package engine

import (
	"context"
	"sync"

	"repro/internal/discern"
	"repro/internal/record"
)

// propKey identifies one memoized sub-decision: one property of one type
// at one process count. Types are identified by structural fingerprint, so
// two independently constructed but identical types share entries.
type propKey struct {
	fp   uint64
	prop Property
	n    int
}

// propResult is a memoized decision. At most one of the witness fields is
// set, matching the property. Witnesses are immutable once computed, so
// sharing the pointers across goroutines and engines is safe.
type propResult struct {
	ok bool
	dw *discern.Witness
	rw *record.Witness
}

// call tracks one in-flight computation for singleflight deduplication.
type call struct {
	done chan struct{}
	res  propResult
	err  error
}

// Cache memoizes decider results across Analyze calls and across engines,
// with singleflight semantics: concurrent requests for the same key share
// one computation instead of racing to redo the exponential search. It is
// safe for concurrent use. A single Cache may back any number of engines
// (see WithCache); the zero value is not usable — construct with NewCache.
type Cache struct {
	mu           sync.Mutex
	m            map[propKey]propResult
	inflight     map[propKey]*call
	sink         func(Entry)
	hits, misses uint64
}

// NewCache returns an empty decision cache.
func NewCache() *Cache {
	return &Cache{
		m:        make(map[propKey]propResult),
		inflight: make(map[propKey]*call),
	}
}

// do returns the memoized result for k, waiting on an in-flight
// computation of the same key if one exists, or running compute and
// memoizing its result otherwise. cached reports whether the result was
// served without running compute in this call. Waiting is bounded by the
// caller's own ctx — a deadlined engine does not hang on another
// engine's longer-lived computation. A failed compute (e.g. cancellation
// of the computing engine's context) is not memoized; waiters whose own
// context is still live retry, possibly becoming the computer themselves.
func (c *Cache) do(ctx context.Context, k propKey, compute func() (propResult, error)) (res propResult, cached bool, err error) {
	for {
		c.mu.Lock()
		if r, ok := c.m[k]; ok {
			c.hits++
			c.mu.Unlock()
			return r, true, nil
		}
		if cl, ok := c.inflight[k]; ok {
			c.hits++
			c.mu.Unlock()
			select {
			case <-cl.done:
			case <-ctx.Done():
				return propResult{}, false, ctx.Err()
			}
			if cl.err != nil {
				// The computer was canceled; try again under our own
				// context (compute itself polls it).
				continue
			}
			return cl.res, true, nil
		}
		c.misses++
		cl := &call{done: make(chan struct{})}
		c.inflight[k] = cl
		c.mu.Unlock()

		cl.res, cl.err = compute()
		c.mu.Lock()
		delete(c.inflight, k)
		var sink func(Entry)
		if cl.err == nil {
			c.m[k] = cl.res
			sink = c.sink
		}
		c.mu.Unlock()
		close(cl.done)
		if sink != nil {
			sink(entryOf(k, cl.res))
		}
		return cl.res, false, cl.err
	}
}

// lookup returns the memoized result for k and counts a hit. A key that
// is absent or still being computed is reported as not found and counted
// nowhere: its caller goes through do, which counts it.
func (c *Cache) lookup(k propKey) (propResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[k]
	if ok {
		c.hits++
	}
	return r, ok
}

// Stats reports the cumulative hit/miss counts and the number of distinct
// memoized decisions.
func (c *Cache) Stats() (hits, misses uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.m)
}

// Purge empties the cache, keeping the statistics.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[propKey]propResult)
}

// Entry is the exported form of one memoized decision, the unit of the
// cache's snapshot/restore API (Range, Insert, SetSink): the key and
// value types themselves stay unexported. At most one witness pointer is
// set, matching Prop, and only when OK. Witnesses are shared, not
// cloned — they are immutable by the cache's contract.
type Entry struct {
	// FP is the type's structural fingerprint
	// (spec.FiniteType.Fingerprint), stable across processes.
	FP uint64
	// Prop and N identify the level check.
	Prop Property
	N    int
	// OK is the decision.
	OK bool
	// DiscernWitness certifies a positive discerning decision.
	DiscernWitness *discern.Witness
	// RecordWitness certifies a positive recording decision.
	RecordWitness *record.Witness
}

// entryOf converts an internal key/result pair to its exported form.
func entryOf(k propKey, r propResult) Entry {
	return Entry{FP: k.fp, Prop: k.prop, N: k.n, OK: r.ok,
		DiscernWitness: r.dw, RecordWitness: r.rw}
}

// Range calls fn for every memoized decision, stopping early when fn
// returns false. The iteration order is unspecified. The entries are a
// snapshot taken under the lock, so fn may call back into the cache.
func (c *Cache) Range(fn func(Entry) bool) {
	c.mu.Lock()
	entries := make([]Entry, 0, len(c.m))
	for k, r := range c.m {
		entries = append(entries, entryOf(k, r))
	}
	c.mu.Unlock()
	for _, e := range entries {
		if !fn(e) {
			return
		}
	}
}

// Insert memoizes a completed decision without running a computation —
// the warm-load path of a persistent store. An entry for a key that is
// already memoized overwrites it. Insert does not fire the sink and does
// not count as a hit or a miss.
func (c *Cache) Insert(e Entry) {
	k := propKey{fp: e.FP, prop: e.Prop, n: e.N}
	c.mu.Lock()
	c.m[k] = propResult{ok: e.OK, dw: e.DiscernWitness, rw: e.RecordWitness}
	c.mu.Unlock()
}

// SetSink installs fn as the cache's persistence hook: every newly
// computed decision (not a hit, not an Insert) is passed to fn right
// after it is memoized, outside the cache lock, from the goroutine that
// computed it. fn must be safe for concurrent use. One sink at a time;
// nil uninstalls. Install the sink before handing the cache to engines —
// decisions computed earlier are not replayed (Range covers those).
func (c *Cache) SetSink(fn func(Entry)) {
	c.mu.Lock()
	c.sink = fn
	c.mu.Unlock()
}
