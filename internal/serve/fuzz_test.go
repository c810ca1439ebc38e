package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"roadside/internal/graph"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

// FuzzServeRequest feeds arbitrary bytes through every endpoint decoder and
// the full /v1/place, /v1/evaluate and /v1/detour handlers: decoders must
// never panic, must return a well-formed APIError (4xx/5xx with a stable
// code) on rejection, and must only accept bodies that decode to a
// validated problem, to a memo hit, or (for a digest reference) to none.
//
// The memo path must answer exactly like the decode path. Each body goes
// twice to a server whose memo holds the Fig. 4 problem under the seeds'
// bytes, and once to a server whose 1-byte budget never fits a memo key,
// so it always decodes. Status and error code must agree, and 200 bodies
// must be identical except for the cache field. The one tolerated
// difference is a 504 against a 200: a request deadline is checked
// against the wall clock, and only the decode path digests (and, first
// time, builds) before the check. The checked-in corpus under
// testdata/fuzz/FuzzServeRequest and the seeds below cover the
// interesting shapes, among them the memoized spans in envelopes that the
// split accepts and declines; verify.sh runs this target in its fuzz
// smoke.
func FuzzServeRequest(f *testing.F) {
	spec, err := ProblemSpecOf(testutil.Fig4Problem(f, utility.Linear{D: 10}))
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(PlaceRequest{ProblemSpec: spec, K: 2, Algo: "algorithm2"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	evalBody, err := json.Marshal(EvaluateRequest{ProblemSpec: spec, Placement: []graph.NodeID{2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(evalBody)
	f.Add([]byte(`{"k":1}`))
	f.Add(valid[:len(valid)/2]) // truncated mid-structure
	f.Add([]byte(`null`))
	f.Add([]byte(`{"graph":{"version":"bogus"},"flows":[],"k":-1}`))
	// Memo-path seeds: node checks run against the recalled engine's graph
	// before admission, so an out-of-range node stays a 422 even when the
	// deadline has already passed.
	badEval, err := json.Marshal(EvaluateRequest{ProblemSpec: spec, Placement: []graph.NodeID{99}, TimeoutMS: 1e-6})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(badEval)
	badDetour, err := json.Marshal(DetourRequest{ProblemSpec: spec, Nodes: []graph.NodeID{-1}, TimeoutMS: 1e-6})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(badDetour)
	// Split-path seeds: the memoized Fig. 4 spans in other envelopes.
	// Padded, reordered and note-carrying envelopes split and hit the memo.
	// A case variant of a key or a repeated graph makes the split decline
	// and leaves it to the whole-body decode: the memoized bytes win when
	// they come last (a memo hit) and lose when a variant follows them.
	// Invalid JSON in another member, a mistyped k and trailing bytes fail
	// that decode.
	_, graph, flows, small := fig4Members(f)
	for _, body := range []string{
		" \n{ \"graph\" :" + graph + " ,\t\"flows\":\r\n" + flows + " , " + small + " }\n",
		`{` + small + `,"flows":` + flows + `,"graph":` + graph + `}`,
		`{"Graph":{"nodes":[]},"graph":` + graph + `,"flows":` + flows + `,` + small + `}`,
		`{"graph":{"nodes":[]},"flows":` + flows + `,"graph":` + graph + `,` + small + `}`,
		`{"graph":` + graph + `,"flows":` + flows + `,"x":{],` + small + `}`,
		`{"graph":` + graph + `,"flows":` + flows + `,` + strings.Replace(small, `"k":2`, `"k":"2"`, 1) + `}`,
		`{"graph":` + graph + `,"flows":` + flows + `,` + small + `}}x`,
		`{"note":"\"graph\":{}","graph":` + graph + `,"flows":` + flows + `,` + small + `}`,
		`{"graph":` + graph + `,"flows":` + flows + `,` + small + `,"Graph":{"nodes":[]}}`,
		"{\"graph\":" + graph + ",\"flows\":" + flows + "," + small + ",\"flowſ\":[]}",
	} {
		f.Add([]byte(body))
	}

	memoSrv, decodeSrv := New(Config{}), New(Config{CacheBytes: 1})
	serveBody := func(srv *Server, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	if rec := serveBody(memoSrv, "/v1/place", valid); rec.Code != http.StatusOK {
		f.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if n := memoSrv.Metrics().Gauge("serve.cache.memo_keys").Value(); n != 1 {
		f.Fatalf("warm-up left %v memo keys, want 1", n)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		checkErr := func(what string, apiErr *APIError) {
			t.Helper()
			if apiErr == nil {
				return
			}
			if apiErr.Status < 400 || apiErr.Status > 599 {
				t.Errorf("%s: error status %d outside 4xx/5xx", what, apiErr.Status)
			}
			if apiErr.Code == "" {
				t.Errorf("%s: empty error code", what)
			}
		}
		// A by-reference body decodes to no problem by contract; any other
		// accepted body must decode to a validated problem or a memo hit.
		checkProblem := func(what, digest string, fp *fullProblem) {
			t.Helper()
			if (fp == nil) != (digest != "") || (fp != nil && !decodedOK(fp)) {
				t.Errorf("%s: accepted body (digest %q) decoded to an invalid problem", what, digest)
			}
		}
		if req, fp, apiErr := memoSrv.decodePlaceRequest(body); apiErr != nil {
			checkErr("place", apiErr)
		} else {
			checkProblem("place", req.Digest, fp)
		}
		if req, fp, apiErr := memoSrv.decodeEvaluateRequest(body); apiErr != nil {
			checkErr("evaluate", apiErr)
		} else {
			checkProblem("evaluate", req.Digest, fp)
		}
		if req, fp, apiErr := memoSrv.decodeDetourRequest(body); apiErr != nil {
			checkErr("detour", apiErr)
		} else {
			checkProblem("detour", req.Digest, fp)
		}

		// End-to-end through the handlers: whatever the body, the response
		// must be well-formed JSON — a 200 result or the uniform error
		// shape, never garbage and never a panic — and the same through
		// the memo path as through the decode path.
		for _, path := range []string{"/v1/place", "/v1/evaluate", "/v1/detour"} {
			want := serveBody(decodeSrv, path, body)
			wantFields, wantCode := responseShape(t, path, want)
			for send := 1; send <= 2; send++ {
				got := serveBody(memoSrv, path, body)
				gotFields, gotCode := responseShape(t, path, got)
				if got.Code != want.Code {
					if (got.Code == http.StatusOK) != (want.Code == http.StatusOK) &&
						(got.Code == http.StatusGatewayTimeout) != (want.Code == http.StatusGatewayTimeout) {
						continue // a wall-clock deadline fired on one path only
					}
					t.Fatalf("%s send %d: status %d (%s), decode path %d (%s)",
						path, send, got.Code, gotCode, want.Code, wantCode)
				}
				if gotCode != wantCode {
					t.Fatalf("%s send %d: error code %q, decode path %q", path, send, gotCode, wantCode)
				}
				if got.Code == http.StatusOK && !bytes.Equal(gotFields, wantFields) {
					t.Fatalf("%s send %d: memo path answered\n%s\ndecode path\n%s", path, send, gotFields, wantFields)
				}
			}
		}
	})
}

// decodedOK reports whether an accepted full body decoded to a validated
// problem or to a memo hit.
func decodedOK(fp *fullProblem) bool {
	if fp == nil {
		return false
	}
	if fp.p == nil {
		return fp.digest != ""
	}
	return fp.p.Validate() == nil
}

// responseShape checks that rec holds a well-formed answer from path — a
// 200 result of the endpoint's type or the uniform error shape — and
// returns the 200 body re-encoded without its cache field, or the error
// code.
func responseShape(t *testing.T, path string, rec *httptest.ResponseRecorder) (fields []byte, code string) {
	t.Helper()
	if rec.Code != http.StatusOK {
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Err.Code == "" {
			t.Errorf("%s: status %d body is not the uniform error shape: %v (%s)",
				path, rec.Code, err, rec.Body.Bytes())
		}
		return nil, er.Err.Code
	}
	typed := map[string]any{"/v1/place": &PlaceResponse{}, "/v1/evaluate": &EvaluateResponse{}, "/v1/detour": &DetourResponse{}}[path]
	if err := json.Unmarshal(rec.Body.Bytes(), typed); err != nil {
		t.Errorf("%s: 200 body is not a %T: %v", path, typed, err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("%s: 200 body is not a JSON object: %v", path, err)
	}
	delete(m, "cache")
	fields, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return fields, ""
}

// FuzzBatchRequest drives arbitrary bytes through the batch decoder and
// the full /v1/batch handler: no panics, envelope rejections carry stable
// codes, accepted batches answer index-aligned results, and per-item
// failures stay isolated in their slots.
func FuzzBatchRequest(f *testing.F) {
	spec, err := ProblemSpecOf(testutil.Fig4Problem(f, utility.Linear{D: 10}))
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(BatchRequest{ProblemSpec: spec, Items: []BatchItem{
		{K: 1, Algo: "lazy"}, {K: 2, Algo: "algorithm2"}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	mixed, err := json.Marshal(BatchRequest{ProblemSpec: spec, Items: []BatchItem{
		{K: 2}, {K: 0}, {K: 1, Algo: "annealing"}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixed)
	f.Add([]byte(`{"items":[]}`))
	f.Add([]byte(`{"digest":"rapd1-00","items":[{"k":1}]}`))
	f.Add(valid[:len(valid)/2]) // truncated mid-structure
	f.Add([]byte(`null`))

	srv := New(Config{MaxBatchItems: 64})
	f.Fuzz(func(t *testing.T, body []byte) {
		if req, fp, apiErr := srv.decodeBatchRequest(body); apiErr != nil {
			if apiErr.Status < 400 || apiErr.Status > 599 {
				t.Errorf("batch: error status %d outside 4xx/5xx", apiErr.Status)
			}
			if apiErr.Code == "" {
				t.Error("batch: empty error code")
			}
		} else if req == nil || (req.Digest == "" && !decodedOK(fp)) {
			t.Error("batch: accepted body decoded to an invalid problem")
		}

		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(string(body)))
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			var batch BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
				t.Fatalf("200 body is not a BatchResponse: %v", err)
			}
			failed := 0
			for i, item := range batch.Items {
				if item.Index != i {
					t.Errorf("item %d carries index %d: ordering broke", i, item.Index)
				}
				if item.Error != nil {
					failed++
					if item.Error.Code == "" {
						t.Errorf("item %d error lacks a code", i)
					}
				}
			}
			if failed != batch.Failed {
				t.Errorf("failed = %d but %d items carry errors", batch.Failed, failed)
			}
		} else {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Err.Code == "" {
				t.Errorf("status %d body is not the uniform error shape: %v (%s)",
					rec.Code, err, rec.Body.Bytes())
			}
		}
	})
}

// FuzzJobsRequest drives arbitrary bytes through the job submit path: no
// panics, rejections carry stable codes, and any accepted job must reach
// a terminal state (the envelope decoded to real runnable work).
func FuzzJobsRequest(f *testing.F) {
	spec, err := ProblemSpecOf(testutil.Fig4Problem(f, utility.Linear{D: 10}))
	if err != nil {
		f.Fatal(err)
	}
	inner, err := json.Marshal(PlaceRequest{ProblemSpec: spec, K: 2, Algo: "lazy"})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(JobRequest{Kind: "place", Request: inner})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	batchInner, err := json.Marshal(BatchRequest{ProblemSpec: spec, Items: []BatchItem{{K: 1}}})
	if err != nil {
		f.Fatal(err)
	}
	batchJob, err := json.Marshal(JobRequest{Kind: "batch", Request: batchInner})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batchJob)
	f.Add([]byte(`{"kind":"place"}`))
	f.Add([]byte(`{"kind":"detour","request":{}}`))
	f.Add(valid[:len(valid)/2]) // truncated mid-structure
	f.Add([]byte(`null`))

	srv := New(Config{JobQueue: 4096})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(string(body)))
		srv.Handler().ServeHTTP(rec, req)
		switch {
		case rec.Code == http.StatusOK:
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
				t.Fatalf("200 body is not a JobStatus: %v (%s)", err, rec.Body.Bytes())
			}
			// An accepted job must finish; poll it through the handler.
			for {
				poll := httptest.NewRecorder()
				srv.Handler().ServeHTTP(poll, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil))
				if poll.Code != http.StatusOK {
					t.Fatalf("poll %s: status %d: %s", st.ID, poll.Code, poll.Body.Bytes())
				}
				if err := json.Unmarshal(poll.Body.Bytes(), &st); err != nil {
					t.Fatal(err)
				}
				if st.State == JobDone || st.State == JobFailed || st.State == JobCanceled {
					break
				}
			}
		case rec.Code == http.StatusTooManyRequests:
			if rec.Header().Get("Retry-After") == "" {
				t.Error("429 without a Retry-After header")
			}
		default:
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Err.Code == "" {
				t.Errorf("status %d body is not the uniform error shape: %v (%s)",
					rec.Code, err, rec.Body.Bytes())
			}
		}
	})
}
