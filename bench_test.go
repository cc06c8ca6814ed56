package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/decider"
	"repro/internal/discern"
	"repro/internal/engine"
	"repro/internal/graphstore"
	"repro/internal/lineariz"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/universal"
	"repro/internal/xsearch"
)

// The benchmarks below regenerate every experiment of DESIGN.md's
// per-experiment index (E1..E11) plus the ablations called out in
// DESIGN.md Section 5. They are organized one benchmark per experiment;
// sub-benchmarks sweep the experiment's parameters.

// BenchmarkE1Figure3 regenerates the Figure 3 state machine (type
// construction + transition-table rendering).
func BenchmarkE1Figure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ft := types.Tnn(5, 2)
		if len(ft.TransitionTable()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkE2TnnWaitFree model-checks the wait-free algorithm (Lemma 15
// lower bound) for a sweep of n.
func BenchmarkE2TnnWaitFree(b *testing.B) {
	for _, c := range []struct{ n, np int }{{3, 2}, {4, 2}, {5, 2}} {
		b.Run(fmt.Sprintf("n=%d", c.n), func(b *testing.B) {
			pr := proto.NewTnnWaitFree(c.n, c.np, c.n)
			inputs := make([]int, c.n)
			for p := range inputs {
				inputs[p] = p % 2
			}
			for i := 0; i < b.N; i++ {
				res, err := model.Check(pr, model.CheckOpts{Inputs: inputs})
				if err != nil || !res.OK() {
					b.Fatalf("check failed: %v %v", err, res.Violations)
				}
			}
		})
	}
}

// BenchmarkE3TnnUpperBound finds the violating execution for n+1
// processes (Lemma 15 upper bound).
func BenchmarkE3TnnUpperBound(b *testing.B) {
	pr := proto.NewTnnWaitFree(3, 2, 4)
	inputs := []int{1, 1, 1, 1}
	for i := 0; i < b.N; i++ {
		res, err := model.Check(pr, model.CheckOpts{Inputs: inputs})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) == 0 {
			b.Fatal("expected a violation")
		}
	}
}

// BenchmarkE4TnnRecoverable model-checks the recoverable algorithm under
// crash budgets (Lemma 16 lower bound), sweeping the crash quota.
func BenchmarkE4TnnRecoverable(b *testing.B) {
	for _, crashes := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("crashes=%d", crashes), func(b *testing.B) {
			pr := proto.NewTnnRecoverable(4, 2, 2)
			quota := []int{crashes, crashes}
			for i := 0; i < b.N; i++ {
				res, err := model.Check(pr, model.CheckOpts{Inputs: []int{0, 1}, CrashQuota: quota})
				if err != nil || !res.OK() {
					b.Fatalf("check failed: %v", err)
				}
			}
		})
	}
}

// BenchmarkE5TnnRecoverableUpperBound finds the crash-burn counterexample
// for n'+1 processes (Lemma 16 upper bound).
func BenchmarkE5TnnRecoverableUpperBound(b *testing.B) {
	pr := proto.NewTnnRecoverable(4, 2, 3)
	quota := []int{2, 2, 2}
	for i := 0; i < b.N; i++ {
		res, err := model.Check(pr, model.CheckOpts{Inputs: []int{1, 0, 1}, CrashQuota: quota})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) == 0 {
			b.Fatal("expected a violation")
		}
	}
}

// BenchmarkE6CriticalSearch measures the critical-execution search
// (Lemma 6a) plus Observation 11 classification.
func BenchmarkE6CriticalSearch(b *testing.B) {
	for _, n := range []int{2, 3} {
		b.Run(fmt.Sprintf("cas-n=%d", n), func(b *testing.B) {
			pr := proto.NewCASWaitFree(n)
			inputs := make([]int, n)
			for p := range inputs {
				inputs[p] = p % 2
			}
			for i := 0; i < b.N; i++ {
				res, err := model.Check(pr, model.CheckOpts{Inputs: inputs})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := model.FindCritical(res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Robustness analyzes product objects against components.
func BenchmarkE7Robustness(b *testing.B) {
	a1, a2 := types.TestAndSet(), types.Swap(2)
	for i := 0; i < b.N; i++ {
		p := types.Product(a1, a2)
		if _, err := core.Analyze(p, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8TAS runs Golab's separation: decider side and model-checker
// side.
func BenchmarkE8TAS(b *testing.B) {
	b.Run("deciders", func(b *testing.B) {
		ft := types.TestAndSet()
		for i := 0; i < b.N; i++ {
			if ok, _ := discern.IsNDiscerning(ft, 2); !ok {
				b.Fatal("TAS must be 2-discerning")
			}
			if ok, _ := record.IsNRecording(ft, 2); ok {
				b.Fatal("TAS must not be 2-recording")
			}
		}
	})
	b.Run("counterexample", func(b *testing.B) {
		pr := proto.NewTASConsensus()
		for i := 0; i < b.N; i++ {
			res, err := model.Check(pr, model.CheckOpts{Inputs: []int{1, 0}, CrashQuota: []int{2, 2}})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Violations) == 0 {
				b.Fatal("expected violation")
			}
		}
	})
}

// BenchmarkE9XLike certifies the gap-2 families' signatures.
func BenchmarkE9XLike(b *testing.B) {
	b.Run("x4", func(b *testing.B) {
		ft := types.XFour()
		for i := 0; i < b.N; i++ {
			if !xsearch.HasXSignature(ft, 4) {
				b.Fatal("X4 signature lost")
			}
		}
	})
	b.Run("y5", func(b *testing.B) {
		ft := types.TnnReadable(5)
		for i := 0; i < b.N; i++ {
			if ok, _ := record.IsNRecording(ft, 4); !ok {
				b.Fatal("Y5 must be 4-recording")
			}
		}
	})
}

// BenchmarkE10Zoo regenerates the hierarchy table of the zoo.
func BenchmarkE10Zoo(b *testing.B) {
	zoo := []*Type{
		types.Register(2), types.TestAndSet(), types.Swap(2),
		types.FetchAdd(4), types.CompareAndSwap(2), types.StickyBit(),
	}
	for i := 0; i < b.N; i++ {
		for _, ft := range zoo {
			if _, err := core.Analyze(ft, 3); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE11Deciders measures decider cost growth with n — the
// "decidable in finite time" claim quantified.
func BenchmarkE11Deciders(b *testing.B) {
	ft := types.CompareAndSwap(2)
	for n := 2; n <= 6; n++ {
		b.Run(fmt.Sprintf("discern-n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ok, _ := discern.IsNDiscerning(ft, n); !ok {
					b.Fatal("CAS must be discerning")
				}
			}
		})
		b.Run(fmt.Sprintf("record-n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ok, _ := record.IsNRecording(ft, n); !ok {
					b.Fatal("CAS must be recording")
				}
			}
		})
	}
}

// BenchmarkE11SimThroughput measures simulator throughput (events/sec)
// under increasing crash rates.
func BenchmarkE11SimThroughput(b *testing.B) {
	for _, rate := range []float64{0, 0.2, 0.5} {
		b.Run(fmt.Sprintf("crash=%.1f", rate), func(b *testing.B) {
			a := algo.CASRecoverable()
			const procs = 4
			progs := make([]sim.Program, procs)
			for p := range progs {
				progs[p] = a.Program(p)
			}
			inputs := []int{0, 1, 0, 1}
			events := 0
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(a.Cells, progs, inputs,
					adversary.NewRandom(int64(i), rate, 4), sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				events += res.Steps + res.Crashes
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/run")
		})
	}
}

// BenchmarkEngineAnalyzeParallel measures the engine's worker pool on
// multi-level types, sweeping pool widths: workers=1 is the serial
// baseline, wider pools quantify the speedup from running independent
// (property, n) level checks concurrently. Each iteration uses a fresh
// cache so the decider work is really re-done.
func BenchmarkEngineAnalyzeParallel(b *testing.B) {
	workerSet := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		workerSet = append(workerSet, n)
	}
	for _, tc := range []struct {
		name string
		t    *Type
		maxN int
	}{
		{"tnn52", types.Tnn(5, 2), 5},
		{"x5", types.XFive(), 5},
	} {
		for _, workers := range workerSet {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					eng := engine.New(
						engine.WithParallelism(workers),
						engine.WithMaxN(tc.maxN),
						engine.WithCache(engine.NewCache()),
					)
					if _, err := eng.Analyze(tc.t); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBitsetLevelCheck compares the production bitset decider with
// the recursive reference deciders head to head on the hard negative
// instance: a full n=6 sweep over Tnn(5,2) (consensus number 5, so every
// operation assignment is checked and no witness short-circuits the
// enumeration), serial, both properties. backend=search is the
// reference, backend=bitset the sweep the engine runs; the ratio is the
// sweep's headline number, and allocs/op (via -benchmem in CI) pins its
// scratch pooling — the packed-word sweep must not allocate per
// assignment.
func BenchmarkBitsetLevelCheck(b *testing.B) {
	ft := types.Tnn(5, 2)
	const n = 6
	ctx := context.Background()
	run := func(name string, decide func() (bool, error)) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ok, err := decide(); err != nil || ok {
					b.Fatalf("tnn(5,2) must be negative at n=%d: ok=%v err=%v", n, ok, err)
				}
			}
		})
	}
	run("discern/backend=search", func() (bool, error) {
		ok, _, err := discern.IsNDiscerningCtx(ctx, ft, n, discern.Options{})
		return ok, err
	})
	run("record/backend=search", func() (bool, error) {
		ok, _, err := record.IsNRecordingCtx(ctx, ft, n, record.Options{})
		return ok, err
	})
	run("discern/backend=bitset", func() (bool, error) {
		ok, _, err := decider.IsNDiscerning(ctx, ft, n, 1, nil)
		return ok, err
	})
	run("record/backend=bitset", func() (bool, error) {
		ok, _, err := decider.IsNRecording(ctx, ft, n, 1, nil)
		return ok, err
	})
}

// BenchmarkShardedLevelCheck measures sharding a SINGLE large-n level
// check — the workload PR 1's across-level pool cannot parallelize. The
// level is a full negative sweep (Tnn(5,2) has consensus number 5, so no
// 6-discerning witness exists and every operation assignment is
// checked), which makes the sharded work perfectly determined: shards=1
// is the serial baseline, shards=4 is the CI speedup gate (>1.5x on a
// 4-core runner), wider shard counts quantify the scaling headroom.
func BenchmarkShardedLevelCheck(b *testing.B) {
	ft := types.Tnn(5, 2)
	const n = 6
	shardSet := []int{1, 2, 4}
	if c := runtime.NumCPU(); c > 4 {
		shardSet = append(shardSet, c)
	}
	ctx := context.Background()
	for _, shards := range shardSet {
		b.Run(fmt.Sprintf("discern/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, _, err := discern.ShardedIsNDiscerning(ctx, ft, n, shards, discern.ShardOptions{})
				if err != nil || ok {
					b.Fatalf("tnn(5,2) must not be 6-discerning: ok=%v err=%v", ok, err)
				}
			}
		})
	}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("record/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, _, err := record.ShardedIsNRecording(ctx, ft, n, shards, record.ShardOptions{})
				if err != nil || ok {
					b.Fatalf("tnn(5,2) must not be 6-recording: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkShardedLevelCheckSteal tracks the work-stealing chunk queue
// of the sharded level check on the Tnn(5,2) n=6 negative instance, with
// allocs/op: the queue's per-shard cost must stay flat as shards grow.
func BenchmarkShardedLevelCheckSteal(b *testing.B) {
	ft := types.Tnn(5, 2)
	const n = 6
	shardSet := []int{2, 4}
	if c := runtime.NumCPU(); c > 4 {
		shardSet = append(shardSet, c)
	}
	ctx := context.Background()
	for _, shards := range shardSet {
		b.Run(fmt.Sprintf("steal/shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ok, _, err := discern.ShardedIsNDiscerning(ctx, ft, n, shards, discern.ShardOptions{})
				if err != nil || ok {
					b.Fatalf("tnn(5,2) must not be 6-discerning: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkGraphInternWarm measures the packed-word graph walk in
// isolation: one model.Graph is built and fully expanded by a priming
// Check, then every iteration re-walks the interned graph. No engine,
// cache, or event layer — allocs/op here is the floor the interning
// dictionary, open-addressed walk overlay, and pooled frontiers buy on
// the hot path (only the per-call Result and its arenas remain).
func BenchmarkGraphInternWarm(b *testing.B) {
	pr := proto.NewCASWaitFree(2)
	inputs := []int{0, 1}
	g, err := model.NewGraph(pr, inputs)
	if err != nil {
		b.Fatal(err)
	}
	opts := model.CheckOpts{Inputs: inputs}
	if _, err := g.Check(opts); err != nil { // prime: expand every node
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Check(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphCacheCheckBatch measures the engine-resident graph
// cache: one batch of mixed-quota check requests against one protocol,
// cold (a fresh engine per iteration: every graph is built and expanded
// from scratch) versus warm (one long-lived engine: after the first
// iteration every walk runs over a fully expanded cached graph and
// expands nothing). The warm/cold ratio is the cross-call amortization
// the cache buys; allocs/op on the warm path is the hot-walk allocation
// figure the 128-bit fingerprint index and pooled frontiers target.
func BenchmarkGraphCacheCheckBatch(b *testing.B) {
	// Four distinct input vectors on the 5-process wait-free protocol:
	// each is its own graph, so a cold batch pays four full state-space
	// expansions and a warm one pays none — the shape of repeated
	// /v1/check traffic against a long-lived server.
	pr := proto.NewTnnWaitFree(5, 2, 5)
	reqs := []engine.CheckRequest{
		{Inputs: []int{1, 0, 1, 0, 1}},
		{Inputs: []int{0, 1, 0, 1, 0}},
		{Inputs: []int{1, 1, 0, 0, 1}},
		{Inputs: []int{0, 0, 1, 1, 0}},
	}
	runBatch := func(b *testing.B, e *engine.Engine) {
		items, _, err := e.CheckBatch(pr, reqs)
		if err != nil {
			b.Fatal(err)
		}
		for i, it := range items {
			if it.Err != nil || !it.OK() {
				b.Fatalf("item %d failed: %v", i, it.Err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runBatch(b, engine.New(engine.WithParallelism(1)))
		}
	})
	b.Run("warm", func(b *testing.B) {
		e := engine.New(engine.WithParallelism(1))
		runBatch(b, e) // prime the graph cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runBatch(b, e)
		}
	})
}

// BenchmarkEngineCheckWarm pins the allocation cost of the warm Check
// hot path — a single request walking an already-expanded cached graph,
// the steady state of repeated /v1/check traffic. The instrumented
// variant runs the identical workload with engine metrics histograms
// attached; CI's alloc gate compares both against the baseline, so a
// change that makes observability allocate on the warm path fails the
// build rather than landing silently.
func BenchmarkEngineCheckWarm(b *testing.B) {
	pr := proto.NewCASWaitFree(2)
	req := engine.CheckRequest{Inputs: []int{0, 1}}
	run := func(b *testing.B, e *engine.Engine) {
		if _, err := e.Check(pr, req); err != nil { // prime the graph cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Check(pr, req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) {
		run(b, engine.New(engine.WithParallelism(1)))
	})
	b.Run("instrumented", func(b *testing.B) {
		run(b, engine.New(engine.WithParallelism(1), engine.WithMetrics(engine.NewMetrics())))
	})
}

// BenchmarkGraphStoreWarmStart measures what graph persistence buys a
// restarted process: a fresh engine serving a known protocol by
// re-expanding the state space from scratch (cold — the no-store
// restart cost) versus by importing the previously spilled graph from
// the on-disk store and walking it without a single expansion (warm).
// Every iteration builds a fresh cache (and, warm, a fresh store handle
// over the same directory), so the disk load and snapshot import are
// inside the measurement — the warm/cold ratio is the restart speedup.
func BenchmarkGraphStoreWarmStart(b *testing.B) {
	pr := proto.NewCASRecoverable(2)
	reqs := []engine.CheckRequest{
		{Inputs: []int{0, 1}},
		{Inputs: []int{0, 1}, CrashQuota: []int{1, 1}},
	}
	runChecks := func(b *testing.B, e *engine.Engine) {
		for _, req := range reqs {
			if _, err := e.Check(pr, req); err != nil {
				b.Fatal(err)
			}
		}
	}
	dir := b.TempDir()
	{
		// Populate the store once: one expansion, flushed to disk.
		gs, err := graphstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		gc := engine.NewGraphCache(0)
		gc.SetStore(gs)
		runChecks(b, engine.New(engine.WithGraphCache(gc), engine.WithParallelism(1)))
		if err := gc.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runChecks(b, engine.New(engine.WithParallelism(1)))
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gs, err := graphstore.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			gc := engine.NewGraphCache(0)
			gc.SetStore(gs)
			runChecks(b, engine.New(engine.WithGraphCache(gc), engine.WithParallelism(1)))
			st := gc.Stats()
			if st.Store == nil || st.Store.Loads == 0 || st.Store.Errors > 0 {
				b.Fatalf("warm restart did not load from the store: %+v", st.Store)
			}
		}
	})
}

// BenchmarkTheorem13Graph measures graph-backed Theorem 13 chains: the
// construction walking one shared exploration graph for all stages
// (shared, the default) versus re-exploring each stage on a one-shot
// graph (per-stage, the pre-cache behavior, kept as the
// FreshGraphPerStage ablation). The tas-reg case is the multi-walk
// chain: its colliding stage forces a second full exploration, which the
// shared graph serves without expanding a single new node.
func BenchmarkTheorem13Graph(b *testing.B) {
	cases := []struct {
		name   string
		pr     model.Protocol
		inputs []int
		quota  []int
		mayErr bool
	}{
		{"cas-rec2", proto.NewCASRecoverable(2), []int{1, 0}, []int{0, 2}, false},
		{"tnn-rec42", proto.NewTnnRecoverable(4, 2, 2), []int{1, 0}, []int{0, 2}, false},
		// tas-reg's chain legitimately dies at stage 1 (wait-free-only
		// algorithms are not crash-tolerant — that is Golab's
		// separation); both variants still pay stage 1's exploration,
		// which is the interesting one to amortize.
		{"tas-reg", proto.NewTASConsensus(), []int{1, 0}, []int{2, 2}, true},
	}
	for _, c := range cases {
		b.Run(c.name+"/shared", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chain, err := model.Theorem13ChainOpts(c.pr, c.inputs, c.quota, model.ChainOpts{})
				if err != nil && !c.mayErr {
					b.Fatalf("chain failed: %v", err)
				}
				if len(chain.Stages) == 0 {
					b.Fatal("no stages")
				}
			}
		})
		b.Run(c.name+"/per-stage", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chain, err := model.Theorem13ChainOpts(c.pr, c.inputs, c.quota,
					model.ChainOpts{FreshGraphPerStage: true})
				if err != nil && !c.mayErr {
					b.Fatalf("chain failed: %v", err)
				}
				if len(chain.Stages) == 0 {
					b.Fatal("no stages")
				}
			}
		})
	}
}

// BenchmarkEngineAnalyzeCached measures a warm-cache Analyze — the
// steady-state cost when a long-lived engine re-serves a known type.
func BenchmarkEngineAnalyzeCached(b *testing.B) {
	eng := engine.New(engine.WithMaxN(5))
	if _, err := eng.Analyze(types.Tnn(5, 2)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Analyze(types.Tnn(5, 2)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md Section 5) ---

// BenchmarkAblationDiscernNaive compares the naive operation-assignment
// enumeration against the symmetry-reduced default.
func BenchmarkAblationDiscernNaive(b *testing.B) {
	ft := types.Tnn(4, 2)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discern.IsNDiscerningOpt(ft, 4, discern.Options{Naive: true})
		}
	})
	b.Run("reduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discern.IsNDiscerningOpt(ft, 4, discern.Options{})
		}
	})
}

// BenchmarkAblationRecordNaive is the recording-side ablation.
func BenchmarkAblationRecordNaive(b *testing.B) {
	ft := types.Tnn(4, 2)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			record.IsNRecordingOpt(ft, 4, record.Options{Naive: true})
		}
	})
	b.Run("reduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			record.IsNRecordingOpt(ft, 4, record.Options{})
		}
	})
}

// BenchmarkAblationCrashBudget measures how the explored state space and
// cost grow with the crash quota (the engine-level analogue of choosing z
// in E*_z).
func BenchmarkAblationCrashBudget(b *testing.B) {
	for _, q := range []int{0, 1, 2, 3} {
		b.Run(fmt.Sprintf("quota=%d", q), func(b *testing.B) {
			pr := proto.NewTnnRecoverable(5, 3, 3)
			quota := []int{0, q, q}
			nodes := 0
			for i := 0; i < b.N; i++ {
				res, err := model.Check(pr, model.CheckOpts{Inputs: []int{0, 1, 1}, CrashQuota: quota})
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkAblationPrefixSharing measures the shared-prefix DFS of the
// deciders against full per-schedule re-simulation.
func BenchmarkAblationPrefixSharing(b *testing.B) {
	ft := types.XFour()
	b.Run("discern-shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discern.IsNDiscerningOpt(ft, 4, discern.Options{})
		}
	})
	b.Run("discern-noshare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discern.IsNDiscerningOpt(ft, 4, discern.Options{NoPrefixSharing: true})
		}
	})
	b.Run("record-shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			record.IsNRecordingOpt(ft, 3, record.Options{})
		}
	})
	b.Run("record-noshare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			record.IsNRecordingOpt(ft, 3, record.Options{NoPrefixSharing: true})
		}
	})
}

// BenchmarkE12Universal measures the recoverable universal construction:
// operation latency without crashes and with a crash/recover on every
// invocation.
func BenchmarkE12Universal(b *testing.B) {
	ft := types.FetchAdd(64)
	faa, _ := ft.OpByName("FAA")
	b.Run("invoke", func(b *testing.B) {
		u, err := universal.New(ft, 0, 2)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := u.Invoke(0, faa); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("crash-recover", func(b *testing.B) {
		u, err := universal.New(ft, 0, 2)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			_, err := u.InvokeSteps(0, faa, 2) // crash mid-drive
			for err == universal.ErrCrashed {
				_, _, err = u.RecoverSteps(0, 16)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkXSearch measures the candidate sampling + signature check
// pipeline that discovered X4 and X5.
func BenchmarkXSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := xsearch.Sample(int64(i), 5)
		xsearch.HasXSignature(t, 4)
	}
}

// BenchmarkE13Chain measures the mechanized Theorem 13 construction.
func BenchmarkE13Chain(b *testing.B) {
	for _, c := range []struct {
		name  string
		pr    model.Protocol
		procs int
	}{
		{"cas2", proto.NewCASRecoverable(2), 2},
		{"tnn42", proto.NewTnnRecoverable(4, 2, 2), 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			inputs := make([]int, c.procs)
			inputs[0] = 1
			quota := make([]int, c.procs)
			for p := 1; p < c.procs; p++ {
				quota[p] = 2
			}
			for i := 0; i < b.N; i++ {
				chain, err := model.Theorem13Chain(c.pr, inputs, quota)
				if err != nil || !chain.Recording {
					b.Fatalf("chain failed: %v", err)
				}
			}
		})
	}
}

// BenchmarkLineariz measures the Wing-Gong checker on store histories of
// growing size.
func BenchmarkLineariz(b *testing.B) {
	ft := types.FetchAdd(64)
	faa, _ := ft.OpByName("FAA")
	for _, size := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("ops=%d", size), func(b *testing.B) {
			// A sequential (worst case for memo reuse is concurrent, but
			// deterministic input keeps the bench stable) history.
			ops := make([]lineariz.Op, size)
			for i := range ops {
				ops[i] = lineariz.Op{
					ID: i + 1, Op: faa, Resp: Response(i % 64),
					Invoke: int64(2 * i), Respond: int64(2*i + 1),
				}
			}
			h := lineariz.History{Type: ft, Init: 0, Ops: ops}
			for i := 0; i < b.N; i++ {
				res, err := lineariz.Check(h)
				if err != nil || !res.Linearizable {
					b.Fatal("history rejected")
				}
			}
		})
	}
}

// BenchmarkModelStateSpace measures how the explored state space grows
// with the process count for the recoverable CAS protocol.
func BenchmarkModelStateSpace(b *testing.B) {
	for n := 2; n <= 4; n++ {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			pr := proto.NewCASRecoverable(n)
			inputs := make([]int, n)
			inputs[0] = 1
			quota := make([]int, n)
			for p := 1; p < n; p++ {
				quota[p] = 1
			}
			nodes := 0
			for i := 0; i < b.N; i++ {
				res, err := model.Check(pr, model.CheckOpts{Inputs: inputs, CrashQuota: quota})
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}
