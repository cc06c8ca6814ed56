package engine

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/types"
)

// TestWarmCheckAllocFloor is the in-repo allocation ratchet for the
// warm Check hot path: a headless engine re-checking a cached,
// fully-expanded graph. The packed-word encoding, open-addressed walk
// overlay, interned fingerprint memo, and pooled key buffer brought the
// path from 87 allocs/op down to 9 — all nine are the per-call Result
// and its arenas, which outlive the call and cannot be pooled. The
// bound below leaves headroom for incidental runtime variation but sits
// far under the pre-pack figure, so any change that reintroduces
// per-visit or per-key allocations fails here before it reaches the
// CI bench gate.
func TestWarmCheckAllocFloor(t *testing.T) {
	e := New(WithParallelism(1))
	pr := proto.NewCASWaitFree(2)
	req := CheckRequest{Inputs: []int{0, 1}}
	if _, err := e.Check(pr, req); err != nil { // prime the graph cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Check(pr, req); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 20
	if allocs > limit {
		t.Errorf("warm Check allocates %.1f allocs/op, ratchet is %d (measured floor: 9)",
			allocs, limit)
	}
}

// TestNegativeLevelAllocFloor is the level decider's allocation
// ratchet: a full negative level — Tnn(5,2) at n=6 and n=7, where no
// operation assignment witnesses either property, so every (assignment,
// initial value) pair is swept — allocates a fixed count: the level's
// flattened tables, one sweeper per worker, the shard queue's
// bookkeeping, and the engine's analysis shell and cache entry. The
// count must be equal at both n, although n=7 sweeps 36 assignments to
// n=6's 28, and it sits far below one allocation per swept pair, so a
// per-assignment or per-initial-value allocation fails here.
func TestNegativeLevelAllocFloor(t *testing.T) {
	e := New(WithParallelism(1))
	ft := types.Tnn(5, 2)
	levelAllocs := func(prop Property, n int) float64 {
		return testing.AllocsPerRun(5, func() {
			e.Cache().Purge()
			a, err := e.level(ft, prop, n)
			if err != nil {
				t.Fatal(err)
			}
			if a.Discerning[n] || a.Recording[n] {
				t.Fatalf("Tnn(5,2) %s at n=%d is positive; the ratchet needs a full sweep", prop, n)
			}
		})
	}
	const limit = 40
	for _, prop := range []Property{Discerning, Recording} {
		at6, at7 := levelAllocs(prop, 6), levelAllocs(prop, 7)
		if at6 > limit || at7 != at6 {
			t.Errorf("%s level allocates %.1f allocs at n=6 and %.1f at n=7, want equal counts within the ratchet of %d (measured floor: 30)",
				prop, at6, at7, limit)
		}
	}
}
