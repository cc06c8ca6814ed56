package engine

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/registry"
	"repro/internal/types"
)

// TestWarmCheckAllocFloor is the in-repo allocation ratchet for the
// warm Check hot path: a headless engine re-checking a cached,
// fully-expanded graph. The packed-word encoding, the walk over dense
// ids, the graph cache's fingerprint memo and its pooled key buffer
// leave a fixed handful: the per-call Result, its node list and one
// block holding the twin-chain heads, crash-usage rows and edge list,
// which outlive the call and cannot be pooled. The bound below leaves
// headroom for incidental runtime variation but sits far under the
// pre-pack figure of 87, so any change that reintroduces per-visit or
// per-key allocations fails here before it reaches the CI bench gate.
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
		t.Errorf("warm Check allocates %.1f allocs/op, ratchet is %d (measured floor: 3)",
			allocs, limit)
	}
}

// TestWarmQuotaCheckAllocFloor is the ratchet for the walk recoverable
// consensus is actually checked with: a crash-budgeted walk, quota 1 per
// process, over a cached graph. Its node count grows with every crash
// vector the budget admits, yet the walk keeps its nodes, edges,
// twin-chain heads and interned crash-usage rows in flat slices sized
// from the graph, and the violation cases format one detail per
// reported kind, so the count must stay flat across walks of 147 to 912
// nodes.
func TestWarmQuotaCheckAllocFloor(t *testing.T) {
	cases := []struct {
		protocol string
		inputs   []int
		nodes    int
		ok       bool
	}{
		{"tnn-wf:3,2", []int{0, 1, 1}, 166, false},
		{"tnn-wf:4,2", []int{0, 1, 0, 1}, 912, false},
		{"tas-reg", []int{0, 1}, 147, false},
		{"cas-rec:3", []int{0, 1, 1}, 442, true},
	}
	const limit = 32
	for _, c := range cases {
		t.Run(c.protocol, func(t *testing.T) {
			pr, err := registry.ParseProtocol(c.protocol)
			if err != nil {
				t.Fatal(err)
			}
			quota := make([]int, len(c.inputs))
			for p := range quota {
				quota[p] = 1
			}
			e := New(WithParallelism(1))
			req := CheckRequest{Inputs: c.inputs, CrashQuota: quota}
			res, err := e.Check(pr, req) // prime the graph cache
			if err != nil {
				t.Fatal(err)
			}
			if res.Nodes != c.nodes || res.OK() != c.ok {
				t.Fatalf("walk visits %d nodes, OK=%v; the ratchet is pinned to %d nodes, OK=%v",
					res.Nodes, res.OK(), c.nodes, c.ok)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := e.Check(pr, req); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > limit {
				t.Errorf("warm quota-1 Check of %d nodes allocates %.1f allocs/op, ratchet is %d",
					c.nodes, allocs, limit)
			}
			t.Logf("%s: %d nodes, %.0f allocs/op", c.protocol, c.nodes, allocs)
		})
	}
}

// TestColdCheckAllocFloor is the ratchet for graph expansion: a check
// that purges the graph cache first, so it rebuilds and expands the
// graph cold. Nodes live in the graph's arena chunks, which grow
// geometrically, and successors are int32 ids, so expanding a node
// allocates nothing of its own: between a graph of 88 nodes and one of
// 752, the cold check's allocations beyond its warm walk must grow by
// less than one per 8 extra nodes (they grew by 3.8 per node when every
// node was its own heap object).
func TestColdCheckAllocFloor(t *testing.T) {
	cases := []struct {
		protocol   string
		inputs     []int
		graphNodes uint64
		// coldLimit is the ratchet on a cold check's allocations
		// (measured 140 and 199, race detector included; 493 and 2993
		// when every node was its own heap object).
		coldLimit float64
		coldMinus float64
	}{
		{protocol: "cas-rec:3", inputs: []int{0, 1, 1}, graphNodes: 88, coldLimit: 170},
		{protocol: "tnn-wf:4,2", inputs: []int{0, 1, 0, 1}, graphNodes: 752, coldLimit: 240},
	}
	for i := range cases {
		c := &cases[i]
		pr, err := registry.ParseProtocol(c.protocol)
		if err != nil {
			t.Fatal(err)
		}
		quota := make([]int, len(c.inputs))
		for p := range quota {
			quota[p] = 1
		}
		e := New(WithParallelism(1))
		req := CheckRequest{Inputs: c.inputs, CrashQuota: quota}
		if _, err := e.Check(pr, req); err != nil { // prime the fingerprint memo
			t.Fatal(err)
		}
		if st := e.GraphCacheStats(); st.Nodes != c.graphNodes {
			t.Fatalf("%s: the graph has %d nodes; the ratchet is pinned to %d", c.protocol, st.Nodes, c.graphNodes)
		}
		cold := testing.AllocsPerRun(20, func() {
			e.GraphCache().Purge()
			if _, err := e.Check(pr, req); err != nil {
				t.Fatal(err)
			}
		})
		warm := testing.AllocsPerRun(20, func() {
			if _, err := e.Check(pr, req); err != nil {
				t.Fatal(err)
			}
		})
		if cold > c.coldLimit {
			t.Errorf("%s: a cold check of %d graph nodes allocates %.1f allocs/op, ratchet is %.0f",
				c.protocol, c.graphNodes, cold, c.coldLimit)
		}
		c.coldMinus = cold - warm
		t.Logf("%s: %d graph nodes, cold %.0f, warm %.0f allocs/op", c.protocol, c.graphNodes, cold, warm)
	}
	small, large := cases[0], cases[1]
	if growth, extra := large.coldMinus-small.coldMinus, float64(large.graphNodes-small.graphNodes); growth*8 >= extra {
		t.Errorf("cold-minus-warm allocations grow by %.0f over %.0f extra graph nodes, want under one per 8 nodes",
			growth, extra)
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
