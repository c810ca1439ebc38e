package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"roadside/internal/core"
	"roadside/internal/graph"
	"roadside/internal/serve"
)

// fullbody sends full-body /v1/place requests: a zipf-popular hot set of
// eight problems, plus one never-seen pair of requests in each of the
// first len(cold) blocks of coldBlock ops. A pair shares one problem, so
// the two clients race to build it: exactly one answer is a miss, the
// other a coalesced wait or a hit. The never-seen problems are generated
// in set-up, a fixed number per second of the timed phase, so every run
// ends with the same engines cached.
type fullbody struct {
	cfg  config
	hot  []*problem
	rank []int
	sv   *server
	refs [][][]answer // [hot][algo][k]
	cold []*coldProblem

	replay []*core.Engine // traced runs: default-worker engines of the hot set

	mu    sync.Mutex
	pairs map[int64][]pairAnswer // block -> cache outcomes of its never-seen pair
}

// coldProblem is a hot problem with another shop and utility threshold.
type coldProblem struct {
	h      int // the hot problem it varies
	shop   graph.NodeID
	d      float64
	p      *core.Problem
	digest string
	refs   [][]answer // [algo][k]
}

type pairAnswer struct {
	idx   int64
	cache string
}

type fullOp struct {
	h     int
	cold  *coldProblem
	block int64
	algo  int
	k     int
}

func (w *fullbody) opAt(i int64) fullOp {
	seed := w.cfg.seed
	op := fullOp{algo: int(i % int64(len(algos))), k: ks[mix(seed, i, 3)%uint64(len(ks))]}
	block, pos := i/coldBlock, i%coldBlock
	if block < int64(len(w.cold)) {
		if first := int64(mix(seed, block, 1) % (coldBlock - 1)); pos == first || pos == first+1 {
			op.cold, op.block = w.cold[block], block
			op.h = op.cold.h
			return op
		}
	}
	op.h = w.rank[zipf(mix(seed, i, 2), len(w.hot))]
	return op
}

// body renders op's request.
func (w *fullbody) body(op fullOp) []byte {
	pr := w.hot[op.h]
	if op.cold != nil {
		return pr.placeBody(op.cold.shop, op.cold.d, op.k, algos[op.algo])
	}
	return pr.placeBody(pr.p.Shop, pr.d, op.k, algos[op.algo])
}

func setupFullbody(cfg config) (instance, error) {
	hot, err := hotSet(cfg.seed)
	if err != nil {
		return nil, err
	}
	w := &fullbody{cfg: cfg, hot: hot, rank: hotRank(cfg.seed), sv: newServer(), pairs: map[int64][]pairAnswer{}}
	for b := int64(0); b < int64(max(1, int(coldPerSecond*cfg.seconds))); b++ {
		h := int(b % int64(len(hot)))
		pr := hot[h]
		c := &coldProblem{h: h, shop: pr.shops[mix(cfg.seed, b, 5)%uint64(len(pr.shops))], d: pr.d + 0.001*float64(b+1)}
		if c.p, err = pr.variant(c.shop, c.d); err != nil {
			return nil, err
		}
		w.cold = append(w.cold, c)
	}
	// Warm-up: build every hot engine through the server.
	for _, pr := range hot {
		code, body, _, _ := w.sv.call("/v1/place", pr.placeBody(pr.p.Shop, pr.d, ks[0], "algorithm2"))
		var resp serve.PlaceResponse
		if err := decodeJSON(code, body, &resp); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up %s: %w", pr.name, err)
		}
	}
	return w, nil
}

func (w *fullbody) prepare() error {
	for _, pr := range w.hot {
		_, refs, err := refsFor(pr.p, w.cfg.corrupt)
		if err != nil {
			return err
		}
		w.refs = append(w.refs, refs)
		if w.cfg.trace {
			re, err := core.NewEngine(pr.p)
			if err != nil {
				return err
			}
			w.replay = append(w.replay, re)
		}
	}
	for _, c := range w.cold {
		var err error
		if c.digest, err = core.ProblemDigest(c.p); err != nil {
			return err
		}
		if _, c.refs, err = refsFor(c.p, w.cfg.corrupt); err != nil {
			return err
		}
	}
	return nil
}

func (w *fullbody) do(i int64, ot *opTrace) sample {
	op := w.opAt(i)
	pr := w.hot[op.h]
	algo := algos[op.algo]
	body := w.body(op)
	code, out, start, end := w.sv.call("/v1/place", body)
	s := sample{idx: i, total: end.Sub(start), read: -1, write: -1, reqBytes: len(body)}
	var resp serve.PlaceResponse
	if err := decodeJSON(code, out, &resp); err != nil {
		s.failed = err.Error()
		return s
	}
	name, digest, ref := "hot "+pr.name, pr.digest, w.refs[op.h][op.algo][kIndex(op.k)]
	if op.cold != nil {
		name, digest, ref = "never-seen "+pr.name, op.cold.digest, op.cold.refs[op.algo][kIndex(op.k)]
		w.mu.Lock()
		w.pairs[op.block] = append(w.pairs[op.block], pairAnswer{idx: i, cache: resp.Cache})
		w.mu.Unlock()
		switch resp.Cache {
		case serve.CacheMiss:
			s.write = s.total
		case serve.CacheHit, serve.CacheCoalesced:
		default:
			s.failed = fmt.Sprintf("%s answered cache %q", name, resp.Cache)
		}
	} else {
		s.read = s.total
		if resp.Cache != serve.CacheHit {
			s.failed = fmt.Sprintf("%s answered cache %q, want hit", name, resp.Cache)
		}
	}
	if s.failed != "" {
		return s
	}
	if resp.Digest != digest {
		s.failed = fmt.Sprintf("%s digest %s, want %s", name, resp.Digest, digest)
		return s
	}
	if err := ref.check(resp.Nodes, resp.StepGains, resp.Attracted); err != nil {
		s.failed = fmt.Sprintf("%s %s k=%d: %v", name, algo, op.k, err)
		return s
	}
	if ot != nil {
		if err := w.replayPlace(ot, op, body, start, end, &resp); err != nil {
			s.failed = "replay: " + err.Error()
		}
	}
	return s
}

func (w *fullbody) replayPlace(ot *opTrace, op fullOp, body []byte, start, end time.Time, resp *serve.PlaceResponse) error {
	kind := "place-hot"
	if op.cold != nil {
		kind = "place-cold"
	}
	ot.root("serve.place", start, end)
	var req serve.PlaceRequest
	p, err := replayProblem(ot, body, &req, &req.ProblemSpec)
	if err != nil {
		return err
	}
	e := w.replay[op.h]
	if op.cold != nil {
		build := func() { e, err = core.NewEngine(p) }
		if resp.Cache == serve.CacheMiss {
			ot.child("core.build", build)
		} else {
			build() // the server waited on (or found) the pair's other build
		}
		if err != nil {
			return err
		}
	}
	ot.child("core.solve."+algos[op.algo], func() { _, err = solveAll(e, algos[op.algo], op.k, nil) })
	if err != nil {
		return err
	}
	ot.child("serve.encode", func() { _, err = json.Marshal(resp) })
	ot.commit(kind, true)
	return err
}

// finish checks that each never-seen pair built its problem exactly once
// and that the cache evicted nothing.
func (w *fullbody) finish() []failure {
	var fails []failure
	blocks := make([]int64, 0, len(w.pairs))
	for b := range w.pairs {
		blocks = append(blocks, b)
	}
	slices.Sort(blocks)
	for _, b := range blocks {
		answers := w.pairs[b]
		misses := 0
		for _, a := range answers {
			if a.cache == serve.CacheMiss {
				misses++
			}
		}
		if misses != 1 {
			fails = append(fails, failure{answers[0].idx, fmt.Sprintf("never-seen pair got %d misses, want 1", misses)})
		}
	}
	if n := w.sv.counter("serve.cache.evicted"); n != 0 {
		fails = append(fails, failure{-1, fmt.Sprintf("serve.cache.evicted = %d", n)})
	}
	return fails
}

func (w *fullbody) counters() map[string]float64 { return w.sv.serveCounters(0) }
func (w *fullbody) probeProblem() *problem       { return w.hot[w.rank[0]] }
func (w *fullbody) close()                       { w.sv.close() }
