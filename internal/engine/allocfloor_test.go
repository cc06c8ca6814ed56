package engine

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/model"
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
// twin-chain heads and interned crash-usage rows in flat slices, the
// node and edge lists sized from the graph's last walk of the same
// shape, and the violation cases format one detail per reported kind,
// so the count must stay flat across walks of 147 to 912 nodes. The
// bound keeps the relative headroom 32 left over 11: measured 9, 9, 9
// and 3 allocs/op (up to 10 under -race), and 10, 10, 11 and 8 while
// every warm quota walk outgrew lists sized from the graph's node count
// and grew them again. tnn-wf:4,2 also bounds its bytes: 51 712 B/op
// measured (51 812 under -race), 82 437 while its lists grew once per
// walk.
func TestWarmQuotaCheckAllocFloor(t *testing.T) {
	cases := []struct {
		protocol string
		inputs   []int
		nodes    int
		ok       bool
		// bytes bounds the walk's bytes/op; 0 leaves them unbounded.
		bytes float64
	}{
		{"tnn-wf:3,2", []int{0, 1, 1}, 166, false, 0},
		{"tnn-wf:4,2", []int{0, 1, 0, 1}, 912, false, 64 << 10},
		{"tas-reg", []int{0, 1}, 147, false, 0},
		{"cas-rec:3", []int{0, 1, 1}, 442, true, 0},
	}
	const limit = 26
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
			check := func() {
				if _, err := e.Check(pr, req); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, check)
			if allocs > limit {
				t.Errorf("warm quota-1 Check of %d nodes allocates %.1f allocs/op, ratchet is %d",
					c.nodes, allocs, limit)
			}
			bytes := bytesPerRun(50, check)
			if c.bytes > 0 && bytes > c.bytes {
				t.Errorf("warm quota-1 Check of %d nodes allocates %.0f B/op, ratchet is %.0f",
					c.nodes, bytes, c.bytes)
			}
			t.Logf("%s: %d nodes, %.0f allocs/op, %.0f B/op", c.protocol, c.nodes, allocs, bytes)
		})
	}
	t.Run("crash-free after quota", func(t *testing.T) {
		// A crash-free walk is sized from crash-free walks only: on a
		// graph whose quota walks ran longer it allocates what it does on
		// the same nodes, imported into a graph no quota walk has run on.
		pr, err := registry.ParseProtocol("tnn-wf:4,2")
		if err != nil {
			t.Fatal(err)
		}
		inputs := []int{0, 1, 0, 1}
		quotaWalked, err := model.NewGraph(pr, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := quotaWalked.Check(model.CheckOpts{Inputs: inputs, CrashQuota: []int{1, 1, 1, 1}}); err != nil {
			t.Fatal(err)
		}
		crashFree, err := model.NewGraph(pr, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := crashFree.ImportSnapshot(quotaWalked.Export()); err != nil {
			t.Fatal(err)
		}
		walk := func(g *model.Graph) float64 {
			return bytesPerRun(50, func() {
				if _, err := g.Check(model.CheckOpts{Inputs: inputs}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if after, alone := walk(quotaWalked), walk(crashFree); after != alone {
			t.Errorf("a crash-free walk allocates %.0f B/op after quota walks, %.0f B/op on the same nodes after crash-free walks only",
				after, alone)
		}
	})
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average bytes f
// allocates per call over runs calls, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestColdCheckAllocFloor is the ratchet for graph expansion: a check
// that purges the graph cache first, so it rebuilds and expands the
// graph cold. The cache's memo still holds the protocol's compiled
// machine, which the purge leaves alone, so the cold check compiles
// nothing: what it counts is the graph's shell and its expansion. Nodes
// live in the graph's arena chunks, which grow geometrically, and
// successors are int32 ids, so expanding a node allocates nothing of
// its own: between a graph of 88 nodes and one of 752, the cold check's
// allocations beyond its warm walk must grow by less than one per 8
// extra nodes (they grew by 3.8 per node when every node was its own
// heap object).
func TestColdCheckAllocFloor(t *testing.T) {
	cases := []struct {
		protocol   string
		inputs     []int
		graphNodes uint64
		// coldLimit is the ratchet on a cold check's allocations
		// (measured 47 and 77, 47 and 78 under -race; 140 and 199 while
		// every graph compiled its protocol again, under bounds of 170
		// and 240, whose relative headroom these keep; 493 and 2993 when
		// every node was its own heap object).
		coldLimit float64
		coldMinus float64
	}{
		{protocol: "cas-rec:3", inputs: []int{0, 1, 1}, graphNodes: 88, coldLimit: 57},
		{protocol: "tnn-wf:4,2", inputs: []int{0, 1, 0, 1}, graphNodes: 752, coldLimit: 93},
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
			t.Errorf("%s level allocates %.1f allocs at n=6 and %.1f at n=7, want equal counts within the ratchet of %d (measured floor: 33)",
				prop, at6, at7, limit)
		}
	}
}

// TestWarmEventAllocFloor is the ratchet on what progress events cost a
// warm check. With no consumer installed the engine builds no event
// payload, not even the protocol's name, so a warm headless one-request
// CheckBatch stays under its bound (measured 8 allocs/op for each
// protocol; 13, 15 and 17 when it validated the protocol on every call,
// and 19, 21 and 23 when it also named the protocol three times and
// formatted two details per batch whether or not anything read them).
// The bounds keep the relative headroom 16, 18 and 20 left over 13, 15
// and 17. With a no-op consumer, Check and CheckBatch may allocate one
// more than headless: the protocol's name, computed once per call
// (Check allocated 3 headless and 6 with a consumer when events carried
// formatted text).
// That comparison runs on fixedName, whose name costs exactly one
// allocation: the registry protocols format theirs with fmt, whose
// printer pool the race detector drains at random.
func TestWarmEventAllocFloor(t *testing.T) {
	cases := []struct {
		protocol string
		inputs   []int
		limit    float64
	}{
		{"cas-wf:2", []int{0, 1}, 10},
		{"cas-rec:3", []int{0, 1, 1}, 10},
		{"tnn-wf:4,2", []int{0, 1, 0, 1}, 10},
	}
	for _, c := range cases {
		t.Run(c.protocol, func(t *testing.T) {
			pr, err := registry.ParseProtocol(c.protocol)
			if err != nil {
				t.Fatal(err)
			}
			req := CheckRequest{Inputs: c.inputs}
			allocs := func(e *Engine, pr model.Protocol) (check, batch float64) {
				if _, err := e.Check(pr, req); err != nil { // prime the graph cache
					t.Fatal(err)
				}
				check = testing.AllocsPerRun(100, func() {
					if _, err := e.Check(pr, req); err != nil {
						t.Fatal(err)
					}
				})
				batch = testing.AllocsPerRun(100, func() {
					if _, _, err := e.CheckBatch(pr, []CheckRequest{req}); err != nil {
						t.Fatal(err)
					}
				})
				return check, batch
			}
			if _, batch := allocs(New(WithParallelism(1)), pr); batch > c.limit {
				t.Errorf("warm headless CheckBatch allocates %.1f allocs/op, ratchet is %.0f", batch, c.limit)
			}
			named := model.Protocol(fixedName{pr, pr.Name()})
			check, batch := allocs(New(WithParallelism(1)), named)
			sinkCheck, sinkBatch := allocs(New(WithParallelism(1), WithProgress(func(Event) {})), named)
			if sinkCheck > check+1 || sinkBatch > batch+1 {
				t.Errorf("a no-op consumer costs Check %.1f → %.1f and CheckBatch %.1f → %.1f allocs/op, want at most one more (the protocol's name)",
					check, sinkCheck, batch, sinkBatch)
			}
			t.Logf("%s: Check %.0f (%.0f with a consumer), CheckBatch %.0f (%.0f)", c.protocol, check, sinkCheck, batch, sinkBatch)
		})
	}
}

// fixedName is a protocol whose Name costs exactly one allocation.
type fixedName struct {
	model.Protocol
	name string
}

func (p fixedName) Name() string { return strings.Clone(p.name) }
