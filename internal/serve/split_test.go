package serve

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// fig4Members returns the Fig. 4 place body's graph and flows values as
// they appear in its compact encoding, and the rest of its members
// (utility through algo) without braces, for building bodies that carry
// the memoized spans in other envelopes.
func fig4Members(tb testing.TB) (body []byte, graph, flows, small string) {
	tb.Helper()
	spec := fig4Spec(tb)
	body, err := json.Marshal(PlaceRequest{ProblemSpec: spec, K: 2, Algo: "algorithm2"})
	if err != nil {
		tb.Fatal(err)
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal(body, &members); err != nil {
		tb.Fatal(err)
	}
	graph, flows = string(members["graph"]), string(members["flows"])
	head := `{"graph":` + graph + `,"flows":` + flows + `,`
	if !strings.HasPrefix(string(body), head) || !strings.HasSuffix(string(body), "}") {
		tb.Fatalf("unexpected member order in %s", body)
	}
	return body, graph, flows, strings.TrimSuffix(strings.TrimPrefix(string(body), head), "}")
}

// TestSplitProblem pins what the scanner accepts and declines.
func TestSplitProblem(t *testing.T) {
	cases := []struct {
		body, graph, flows, rest string // graph "" = declined
	}{
		{`{"graph":{"a":[1,"}"]},"flows":[{"b":"\"]"}],"k":1}`, `{"a":[1,"}"]}`, `[{"b":"\"]"}]`,
			`{"graph":null,"flows":null,"k":1}`},
		{" \n{\t\"k\" : 1 , \"flows\" :[] ,\"graph\":{} }\r\n", `{}`, `[]`,
			" \n{\t\"k\" : 1 , \"flows\" :null ,\"graph\":null }\r\n"},
		{`{"note":"\"graph\":{}","graph":{},"flows":[]}`, `{}`, `[]`, `{"note":"\"graph\":{}","graph":null,"flows":null}`},
		{`{"graph":{},"flows":[],"x":{]}`, `{}`, `[]`, `{"graph":null,"flows":null,"x":{]}`},
		{`[{"graph":{},"flows":[]}]`, "", "", ""},                 // not an object
		{`{"graph":{},"flows":[]`, "", "", ""},                    // unclosed object
		{`{"graph":{"a":"}],"flows":[]}`, "", "", ""},             // unclosed string
		{`{"graph":{},"flows":[]}x`, "", "", ""},                  // trailing bytes
		{`{"graph":{},"flows":[]}}x`, "", "", ""},                 // trailing }x
		{`{"graph":{},"Graph":{},"flows":[]}`, "", "", ""},        // case variant
		{`{"graph":{},"flows":[],"FLOWS":[]}`, "", "", ""},        // case variant
		{`{"graph":{},"graph":{},"flows":[]}`, "", "", ""},        // duplicate
		{`{"gr\u0061ph":[1],"graph":{},"flows":[]}`, "", "", ""},  // escaped key
		{"{\"flowſ\":[1],\"graph\":{},\"flows\":[]}", "", "", ""}, // Unicode fold
		{`{"graph":null,"flows":[]}`, "", "", ""},                 // not an object or array
		{`{"graph":"{}","flows":[]}`, "", "", ""},                 // a string
		{`{"graph":{},"k":1}`, "", "", ""},                        // no flows
		{`{"graph":{},"flows":[],"k":}`, "", "", ""},              // empty literal
		{`{"graph":{},"flows":[] "k":1}`, "", "", ""},             // missing comma
		{`{"graph" {},"flows":[]}`, "", "", ""},                   // missing colon
		{`{}`, "", "", ""},
		{``, "", "", ""},
	}
	for _, tc := range cases {
		g, f, rest, ok := splitProblem([]byte(tc.body))
		if ok != (tc.graph != "") {
			t.Errorf("%q: ok %v, want %v", tc.body, ok, tc.graph != "")
			continue
		}
		if ok && (string(g) != tc.graph || string(f) != tc.flows || string(rest) != tc.rest) {
			t.Errorf("%q: split into %q, %q, %q; want %q, %q, %q", tc.body, g, f, rest, tc.graph, tc.flows, tc.rest)
		}
	}
}

// FuzzSplitProblem checks splitProblem differentially against
// encoding/json: whenever it accepts a body whose rest decodes into a
// PlaceRequest and whose two spans are valid JSON, the whole body must
// decode too, to that request with the spans put back. verify.sh runs
// this target in its fuzz smoke.
func FuzzSplitProblem(f *testing.F) {
	valid, graph, flows, small := fig4Members(f)
	f.Add(valid)
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
		`{"graph":{"a":"}"},"flows":[],"k":1}`,
		`{"graph":[],"flows":[],"k":1,"k":[2]}`,
		`{"gr\u0061ph":[1],"graph":{},"flows":[]}`,
		"{\"flowſ\":[1],\"graph\":{},\"flows\":[]}",
		`{"graph":{},"flows":[],"extra_shops":[1,2],"utility_d":1e400}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		g, fl, rest, ok := splitProblem(body)
		if !ok {
			return
		}
		var fromRest PlaceRequest
		if json.Unmarshal(rest, &fromRest) != nil || !json.Valid(g) || !json.Valid(fl) {
			return
		}
		fromRest.Graph, fromRest.Flows = g, fl
		var whole PlaceRequest
		if err := json.Unmarshal(body, &whole); err != nil {
			t.Fatalf("split accepted %q, its rest %q decodes, but the whole body does not: %v", body, rest, err)
		}
		if !reflect.DeepEqual(whole, fromRest) {
			t.Fatalf("body %q decodes to\n%+v\nits split to\n%+v", body, whole, fromRest)
		}
	})
}
