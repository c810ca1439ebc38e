package serve

import (
	"container/list"
	"context"
	"net/http"
	"strings"
	"sync"
	"time"

	"roadside/internal/core"
	"roadside/internal/graph"
	"roadside/internal/obs"
)

// Cache outcomes reported on the wire and counted in metrics.
const (
	CacheHit       = "hit"       // engine found in the LRU
	CacheMiss      = "miss"      // this request built the engine
	CacheCoalesced = "coalesced" // waited on another request's build
)

// engineCache is the heart of placement-as-a-service: a byte-budgeted LRU
// of immutable engines keyed by base digest (core.ProblemDigest), with
// singleflight coalescing. The lineage map, the in-flight map, and the LRU
// share one mutex, so between "no cached engine" and "a flight exists for
// this digest" there is no window for a second builder: one build per
// digest, exactly, no matter how many requests race.
//
// Engines are immutable once published and entries only hold references,
// so eviction can never corrupt an in-flight solve — a request that
// obtained an engine keeps it alive through its solve regardless of what
// the LRU does.
//
// The cache keeps one entry per lineage. POST /v1/update evolves a cached
// engine through core.ApplyCopy and the successor replaces its
// predecessor, so a drifting problem occupies one engine's worth of
// budget, not one per update. A full-body request for a drifted lineage
// is not a hit — its problem is sequence 0, not the lineage's head — and
// the engine it builds replaces the head, restarting the lineage.
//
// The memo maps a full-body request's problem bytes (memoKey) to the seq-0
// entry they decoded to, so a repeated body skips decode and digest and
// goes straight to Get. Keys hang off their entry: removing the entry —
// eviction, an update replacing it, a full-body rebuild — drops them, and
// their bytes count against the budget with the engine's.
type engineCache struct {
	budget int64

	mu       sync.Mutex
	lru      *list.List               // front = most recently used; values are *cacheEntry
	lineages map[string]*list.Element // base digest -> the lineage's one entry
	flights  map[string]*flight
	memo     map[memoKey]*list.Element // problem-bytes key -> its seq-0 entry
	bytes    int64

	hits, misses, coalesced *obs.Counter
	evicted, builds         *obs.Counter
	buildErrors             *obs.Counter
	updates, unresolved     *obs.Counter
	staleRefs, memoHits     *obs.Counter
	bytesG, entriesG        *obs.Gauge
	memoKeysG               *obs.Gauge
	buildUS, updateUS       *obs.Histogram
}

// cacheEntry is one cached engine. All fields except keys, bytes and mu
// are immutable after the entry is published into the map; updates never
// mutate a published entry, they replace it (ApplyCopy, then publish).
// keys and bytes grow, under the cache mutex, as memo keys are
// remembered. mu serializes updaters of the entry's lineage: an updater
// holds it across apply-and-publish so two concurrent updates on one
// lineage cannot both derive from the same sequence.
type cacheEntry struct {
	digest string // full digest: base for seq 0, base@seq afterwards
	base   string // lineage root (== ProblemDigest of the original problem)
	seq    int
	eng    *core.Engine
	warm   *core.Warm // lazy: built by the first update, carried forward after
	keys   []memoKey  // memo keys resolving here; seq 0 only
	bytes  int64      // arena bytes plus memoKeyBytes per key

	mu sync.Mutex
}

// flight is one in-progress engine build; waiters block on done.
type flight struct {
	done chan struct{}
	eng  *core.Engine
	err  error
}

func newEngineCache(budget int64, reg *obs.Registry) *engineCache {
	return &engineCache{
		budget:      budget,
		lru:         list.New(),
		lineages:    map[string]*list.Element{},
		flights:     map[string]*flight{},
		memo:        map[memoKey]*list.Element{},
		hits:        reg.Counter("serve.cache.hit"),
		misses:      reg.Counter("serve.cache.miss"),
		coalesced:   reg.Counter("serve.cache.coalesced"),
		evicted:     reg.Counter("serve.cache.evicted"),
		builds:      reg.Counter("serve.engine.builds"),
		buildErrors: reg.Counter("serve.engine.build_errors"),
		updates:     reg.Counter("serve.cache.updates"),
		unresolved:  reg.Counter("serve.cache.unresolved"),
		staleRefs:   reg.Counter("serve.cache.stale"),
		memoHits:    reg.Counter("serve.cache.memo_hits"),
		bytesG:      reg.Gauge("serve.cache.bytes"),
		entriesG:    reg.Gauge("serve.cache.entries"),
		memoKeysG:   reg.Gauge("serve.cache.memo_keys"),
		buildUS:     reg.Histogram("serve.engine.build_us", obs.DurationBucketsUS),
		updateUS:    reg.Histogram("serve.engine.update_us", obs.DurationBucketsUS),
	}
}

// Get returns the engine for the base digest of a full problem, building it
// via build on a miss; only a lineage still at sequence 0 is a hit. The
// returned outcome says how the request was answered; it is what the
// response's cache field and the hit/miss/coalesced counters report, and
// every call lands in exactly one of the three counters — hit + miss +
// coalesced equals calls, whatever mix of successes, failures, and
// abandoned waits occurred.
//
// The build runs detached from the leader's context: a leader whose ctx
// expires mid-build returns its context error like an abandoned waiter,
// but the build itself keeps running and populates the cache for the
// requests that coalesced onto it (and for everyone after). Build errors
// are never cached.
func (c *engineCache) Get(ctx context.Context, digest string, build func() (*core.Engine, error)) (*core.Engine, string, error) {
	c.mu.Lock()
	if el, ok := c.lineages[digest]; ok && el.Value.(*cacheEntry).seq == 0 {
		c.lru.MoveToFront(el)
		eng := el.Value.(*cacheEntry).eng
		c.mu.Unlock()
		c.hits.Inc()
		return eng, CacheHit, nil
	}
	if fl, ok := c.flights[digest]; ok {
		c.mu.Unlock()
		c.coalesced.Inc()
		select {
		case <-fl.done:
			return fl.eng, CacheCoalesced, fl.err
		case <-ctx.Done():
			return nil, CacheCoalesced, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[digest] = fl
	c.mu.Unlock()
	// This request is the miss whether or not the build succeeds or the
	// leader lives to see the result.
	c.misses.Inc()

	go func() {
		start := time.Now()
		eng, err := build()
		c.buildUS.Observe(float64(time.Since(start).Microseconds()))

		c.mu.Lock()
		delete(c.flights, digest)
		if err == nil {
			c.insertLocked(&cacheEntry{digest: digest, base: digest, eng: eng, bytes: eng.ArenaBytes()})
		}
		c.mu.Unlock()
		if err != nil {
			c.buildErrors.Inc()
		} else {
			c.builds.Inc()
		}
		fl.eng, fl.err = eng, err
		close(fl.done)
	}()

	select {
	case <-fl.done:
		return fl.eng, CacheMiss, fl.err
	case <-ctx.Done():
		return nil, CacheMiss, ctx.Err()
	}
}

// Peek looks a full-body request's memo key up: on a hit it returns the
// digest and engine of the seq-0 entry those exact bytes decoded to, and
// the request skips decode and digest. It counts nothing: decodeFull
// counts serve.cache.memo_hits once the request uses the recalled digest,
// and the Get that follows counts its hit, miss or coalesced wait.
func (c *engineCache) Peek(key memoKey) (digest string, eng *core.Engine, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.memo[key]
	if !ok {
		return "", nil, false
	}
	ent := el.Value.(*cacheEntry)
	return ent.digest, ent.eng, true
}

// Remember records that key's bytes decoded, validated and digested to
// digest. Only the decode path calls it, after a successful Get, and it
// writes the key only onto a lineage still at sequence 0. The key's bytes
// are charged to its entry, which moves to the LRU front, and other
// entries are evicted as on insert; a key that would not fit the budget
// beside its own entry alone is not written.
func (c *engineCache) Remember(key memoKey, digest string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.lineages[digest]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	if _, dup := c.memo[key]; dup || ent.seq != 0 || ent.bytes+memoKeyBytes > c.budget {
		return
	}
	ent.keys = append(ent.keys, key)
	ent.bytes += memoKeyBytes
	c.bytes += memoKeyBytes
	c.memo[key] = el
	c.lru.MoveToFront(el)
	c.evictLocked()
}

// Resolve answers a by-reference lookup (see lookupLocked). There is
// nothing to build from, so a client racing an updater observes the old
// engine, the new engine, or a stale error, never a blend.
func (c *engineCache) Resolve(ref string) (*cacheEntry, *APIError) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, apiErr := c.lookupLocked(ref)
	if apiErr != nil {
		return nil, apiErr
	}
	c.lru.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheEntry), nil
}

// lookupLocked finds ref's lineage entry (c.mu held). ref is either a base
// digest, resolving to the lineage's current entry whatever its sequence,
// or an explicit "base@seq", resolving only if the lineage currently sits
// at exactly that sequence. An unknown base is a 404 and a sequence
// mismatch a 409.
func (c *engineCache) lookupLocked(ref string) (*list.Element, *APIError) {
	base, wantSeq, err := core.SplitDigest(ref)
	if err != nil {
		c.unresolved.Inc()
		return nil, errorf(http.StatusNotFound, CodeUnknownDigest, "digest ref %q: %v", ref, err)
	}
	el, ok := c.lineages[base]
	if !ok {
		c.unresolved.Inc()
		return nil, errorf(http.StatusNotFound, CodeUnknownDigest,
			"no cached engine for digest %q; send the full problem once to create it", ref)
	}
	if seq := el.Value.(*cacheEntry).seq; strings.IndexByte(ref, '@') >= 0 && seq != wantSeq {
		c.staleRefs.Inc()
		return nil, errorf(http.StatusConflict, CodeStaleDigest,
			"digest %q is stale: lineage %s is at sequence %d", ref, base, seq)
	}
	return el, nil
}

// Update applies ops to the current engine of ref's lineage and publishes
// the result as the lineage's next sequence. ref may pin a sequence
// ("base@seq"), turning the update into a compare-and-swap that fails with
// stale_digest if another update got there first; a bare base digest
// always updates whatever is current.
//
// The engine evolves by ApplyCopy — the superseded engine is untouched, so
// solves that already resolved it finish on consistent arenas — and the
// entry's Warm cache rides along: built on the lineage's first update,
// then Refresh'ed with each update's touched nodes, so by-reference lazy
// solves skip their init scan. Per-lineage serialization comes from the
// entry mutex: an updater holds it from resolve to publish, and a loser of
// that race re-resolves (or fails its pin) rather than deriving two
// engines from one sequence.
func (c *engineCache) Update(ref string, ops []core.FlowUpdate) (*cacheEntry, []graph.NodeID, *APIError) {
	var ent *cacheEntry
	for {
		c.mu.Lock()
		el, apiErr := c.lookupLocked(ref)
		c.mu.Unlock()
		if apiErr != nil {
			return nil, nil, apiErr
		}
		ent = el.Value.(*cacheEntry)

		ent.mu.Lock()
		// Recheck under the entry lock: another updater may have replaced
		// this entry while we waited, and then the lookup must run again
		// (failing a pin the replacement made stale). An entry evicted
		// meanwhile is fine — the engine reference is still valid and
		// publishing re-creates the lineage.
		c.mu.Lock()
		cur, ok := c.lineages[ent.base]
		current := !ok || cur == el
		c.mu.Unlock()
		if current {
			break
		}
		ent.mu.Unlock()
	}
	defer ent.mu.Unlock()

	start := time.Now()
	eng, touched, err := ent.eng.ApplyCopy(ops)
	if err != nil {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadUpdate, "%v", err)
	}
	warm := ent.warm
	if warm == nil {
		warm = eng.NewWarm()
	} else {
		warm = warm.Clone()
		warm.Refresh(eng, touched)
	}
	c.updateUS.Observe(float64(time.Since(start).Microseconds()))

	next := &cacheEntry{
		digest: core.DeriveDigest(ent.base, ent.seq+1),
		base:   ent.base,
		seq:    ent.seq + 1,
		eng:    eng,
		warm:   warm,
		bytes:  eng.ArenaBytes(),
	}
	c.mu.Lock()
	c.insertLocked(next)
	c.mu.Unlock()
	c.updates.Inc()
	return next, touched, nil
}

// insertLocked publishes a freshly built or updated engine as its
// lineage's one entry, silently replacing the lineage's previous entry,
// and evicts from the LRU tail until the byte budget holds again. The
// newest entry is never evicted — a cache whose budget is below one engine
// still serves repeat queries for the latest problem — so the loop stops
// at length one.
func (c *engineCache) insertLocked(ent *cacheEntry) {
	if el, ok := c.lineages[ent.base]; ok {
		c.removeLocked(el)
	}
	c.lineages[ent.base] = c.lru.PushFront(ent)
	c.bytes += ent.bytes
	c.evictLocked()
}

// evictLocked evicts from the LRU tail until the byte budget holds again
// or only the front entry is left, then publishes the occupancy gauges.
func (c *engineCache) evictLocked() {
	for c.bytes > c.budget && c.lru.Len() > 1 {
		c.removeLocked(c.lru.Back())
		c.evicted.Inc()
	}
	c.bytesG.Set(float64(c.bytes))
	c.entriesG.Set(float64(c.lru.Len()))
	c.memoKeysG.Set(float64(len(c.memo)))
}

// removeLocked detaches an entry from the LRU, the lineage map and the
// memo.
func (c *engineCache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.lineages, ent.base)
	for _, key := range ent.keys {
		delete(c.memo, key)
	}
	c.bytes -= ent.bytes
}

// Stats returns the cache's current occupancy (for /healthz).
func (c *engineCache) Stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.bytes
}
