package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/proto"
)

// TestGraphCacheWarmCheckBatch is the tentpole acceptance criterion:
// repeating an identical batch on one engine walks warm cached graphs —
// the second batch expands zero nodes, reports cache hits, and returns
// byte-identical results.
func TestGraphCacheWarmCheckBatch(t *testing.T) {
	p := proto.NewCASRecoverable(2)
	reqs := []CheckRequest{
		{Inputs: []int{0, 1}},
		{Inputs: []int{0, 1}, CrashQuota: []int{1, 1}},
		{Inputs: []int{1, 0}, CrashQuota: []int{1, 1}},
	}
	e := New(WithParallelism(2))

	cold, coldGS, err := e.CheckBatch(p, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if coldGS.Expanded == 0 {
		t.Fatalf("cold batch expanded nothing: %+v", coldGS)
	}
	warm, warmGS, err := e.CheckBatch(p, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if warmGS.Expanded != 0 {
		t.Fatalf("warm batch expanded %d nodes, want 0 (stats %+v)", warmGS.Expanded, warmGS)
	}
	if warmGS.Reused == 0 {
		t.Fatalf("warm batch reused nothing: %+v", warmGS)
	}
	for i := range reqs {
		if cold[i].Err != nil || warm[i].Err != nil {
			t.Fatalf("item %d errored: cold %v warm %v", i, cold[i].Err, warm[i].Err)
		}
		if !reflect.DeepEqual(observe(cold[i].Result), observe(warm[i].Result)) {
			t.Fatalf("item %d: warm result diverged from cold:\n got %+v\nwant %+v",
				i, observe(warm[i].Result), observe(cold[i].Result))
		}
	}
	st := e.GraphCacheStats()
	if st.Hits == 0 {
		t.Fatalf("graph cache served no hits: %+v", st)
	}
	if st.Graphs != 2 || st.Misses != 2 { // two distinct input vectors
		t.Fatalf("expected 2 cached graphs from 2 misses, got %+v", st)
	}
	if st.Nodes == 0 {
		t.Fatalf("cached graphs report no nodes: %+v", st)
	}
}

// TestGraphCacheServesCheckAndTheorem13 checks that all three entry
// points share one cached graph: a Check warms it, a Theorem13 chain and
// a batch walk it without expanding.
func TestGraphCacheServesCheckAndTheorem13(t *testing.T) {
	p := proto.NewCASRecoverable(2)
	in := []int{1, 0}
	quota := []int{0, 1}
	e := New(WithParallelism(2))

	if _, err := e.Check(p, CheckRequest{Inputs: in, CrashQuota: quota, SkipLiveness: true}); err != nil {
		t.Fatal(err)
	}
	g, err := e.GraphCache().Get(p, in)
	if err != nil {
		t.Fatal(err)
	}
	afterCheck := g.Stats()

	chain, err := e.Theorem13(p, CheckRequest{Inputs: in, CrashQuota: quota})
	if err != nil {
		t.Fatal(err)
	}
	if !chain.Recording {
		t.Fatalf("CAS chain should end n-recording:\n%s", chain)
	}
	afterChain := g.Stats()
	if afterChain.Expanded != afterCheck.Expanded {
		t.Fatalf("chain expanded %d new nodes over the warmed graph",
			afterChain.Expanded-afterCheck.Expanded)
	}

	if _, gs, err := e.CheckBatch(p, []CheckRequest{{Inputs: in, CrashQuota: quota, SkipLiveness: true}}); err != nil {
		t.Fatal(err)
	} else if gs.Expanded != 0 {
		t.Fatalf("batch after check+chain expanded %d nodes, want 0", gs.Expanded)
	}
}

// TestGraphCacheEviction forces eviction with a tiny node budget and
// checks the counters move while results stay correct.
func TestGraphCacheEviction(t *testing.T) {
	p := proto.NewCASRecoverable(2)
	e := New(WithParallelism(1), WithGraphCacheBudget(1))
	inputSets := [][]int{{0, 1}, {1, 0}, {1, 1}, {0, 0}}
	want := make([]batchObservable, len(inputSets))
	for i, in := range inputSets {
		r, err := model.Check(p, model.CheckOpts{Inputs: in, CrashQuota: []int{1, 1}})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = observe(r)
	}
	for round := 0; round < 3; round++ {
		for i, in := range inputSets {
			res, err := e.Check(p, CheckRequest{Inputs: in, CrashQuota: []int{1, 1}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(observe(res), want[i]) {
				t.Fatalf("round %d inputs %v: result diverged under eviction churn", round, in)
			}
		}
	}
	st := e.GraphCacheStats()
	if st.Evicted == 0 {
		t.Fatalf("a 1-node budget across %d input vectors evicted nothing: %+v", len(inputSets), st)
	}
	if st.Graphs > 1 {
		t.Fatalf("over-budget cache retains %d graphs: %+v", st.Graphs, st)
	}
}

// TestGraphCacheIdentity checks the cache key separates protocols and
// input vectors: distinct (protocol, inputs) never share a graph, equal
// ones always do.
func TestGraphCacheIdentity(t *testing.T) {
	c := NewGraphCache(0)
	g1, err := c.Get(proto.NewCASRecoverable(2), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.Get(proto.NewCASRecoverable(2), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("identical (protocol, inputs) got distinct graphs")
	}
	if g3, _ := c.Get(proto.NewCASRecoverable(2), []int{1, 0}); g3 == g1 {
		t.Fatal("different inputs shared a graph")
	}
	if g4, _ := c.Get(proto.NewCASWaitFree(2), []int{0, 1}); g4 == g1 {
		t.Fatal("different protocols shared a graph")
	}
	if g5, _ := c.Get(proto.NewTnnRecoverable(3, 2, 2), []int{0, 1}); g5 == g1 {
		t.Fatal("different protocol families shared a graph")
	}
	if _, err := c.Get(proto.NewCASRecoverable(2), []int{0}); err == nil {
		t.Fatal("wrong-length inputs should error, not cache")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("want 1 hit / 4 misses, got %+v", st)
	}
}

// TestGraphCacheFingerprintMemo pins the fingerprint memo's scope: it
// lives with its cache, so a repeated protocol value is fingerprinted
// once per cache, a new cache (a restarted server in the same process)
// starts empty instead of inheriting every protocol an earlier one saw,
// and the memo stops growing at fpMemoCap.
func TestGraphCacheFingerprintMemo(t *testing.T) {
	c := NewGraphCache(0)
	p := proto.NewCASRecoverable(2)
	for _, inputs := range [][]int{{0, 1}, {1, 0}, {0, 1}} {
		if _, err := c.Get(p, inputs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get(proto.NewCASRecoverable(2), []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if len(c.fps) != 2 {
		t.Fatalf("memo holds %d protocols after two protocol values, want 2", len(c.fps))
	}
	if fresh := NewGraphCache(0); len(fresh.fps) != 0 {
		t.Fatalf("a new cache starts with %d memoized protocols", len(fresh.fps))
	}
	for i := len(c.fps); i < fpMemoCap+4; i++ {
		if _, err := c.Get(proto.NewCASWaitFree(1), []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.fps) != fpMemoCap {
		t.Fatalf("memo holds %d protocols, want the cap %d", len(c.fps), fpMemoCap)
	}
	if st := c.Stats(); st.Graphs != 3 {
		t.Fatalf("%d graphs cached, want 3 (memo entries never split a key)", st.Graphs)
	}
}

// TestGraphCacheConcurrentChurn is the race test for the tentpole:
// goroutines hammer CheckBatch and Theorem13 on one engine whose tiny
// graph-cache budget keeps eviction churning, across two protocols and
// mixed quotas. Every result must stay byte-identical to its serial
// twin. Run under -race this is the cache's data-race check.
func TestGraphCacheConcurrentChurn(t *testing.T) {
	type workload struct {
		p     model.Protocol
		req   CheckRequest
		want  batchObservable
		chain bool
	}
	var work []workload
	addCheck := func(p model.Protocol, req CheckRequest) {
		r, err := model.Check(p, model.CheckOpts{
			Inputs: req.Inputs, CrashQuota: req.CrashQuota, SkipLiveness: req.SkipLiveness,
		})
		if err != nil {
			t.Fatal(err)
		}
		work = append(work, workload{p: p, req: req, want: observe(r)})
	}
	cas := proto.NewCASRecoverable(2)
	tnn := proto.NewTnnRecoverable(3, 2, 2)
	addCheck(cas, CheckRequest{Inputs: []int{0, 1}, CrashQuota: []int{1, 1}})
	addCheck(cas, CheckRequest{Inputs: []int{1, 0}, CrashQuota: []int{2, 2}})
	addCheck(tnn, CheckRequest{Inputs: []int{0, 1}, CrashQuota: []int{0, 2}})
	addCheck(tnn, CheckRequest{Inputs: []int{1, 1}, CrashQuota: []int{1, 1}})
	work = append(work, workload{p: cas, req: CheckRequest{Inputs: []int{1, 0}, CrashQuota: []int{0, 1}}, chain: true})
	work = append(work, workload{p: tnn, req: CheckRequest{Inputs: []int{1, 0}, CrashQuota: []int{0, 2}}, chain: true})

	// Budget of 1 node: every Get over-budget, eviction on every touch.
	e := New(WithParallelism(4), WithGraphCacheBudget(1))
	wantChain := make(map[int]string)
	for i, w := range work {
		if !w.chain {
			continue
		}
		ch, err := model.Theorem13Chain(w.p, w.req.Inputs, w.req.CrashQuota)
		if err != nil {
			t.Fatal(err)
		}
		wantChain[i] = ch.String()
	}

	const workers = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i, w := range work {
					if w.chain {
						ch, err := e.Theorem13(w.p, w.req)
						if err != nil {
							errs <- fmt.Errorf("worker %d work %d: %v", wkr, i, err)
							return
						}
						if ch.String() != wantChain[i] {
							errs <- fmt.Errorf("worker %d work %d: chain diverged under churn", wkr, i)
							return
						}
						continue
					}
					items, _, err := e.CheckBatch(w.p, []CheckRequest{w.req, w.req})
					if err != nil {
						errs <- fmt.Errorf("worker %d work %d: %v", wkr, i, err)
						return
					}
					for j, it := range items {
						if it.Err != nil {
							errs <- fmt.Errorf("worker %d work %d item %d: %v", wkr, i, j, it.Err)
							return
						}
						if !reflect.DeepEqual(observe(it.Result), w.want) {
							errs <- fmt.Errorf("worker %d work %d item %d: result diverged under churn", wkr, i, j)
							return
						}
					}
				}
			}
		}(wkr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.GraphCacheStats()
	if st.Evicted == 0 {
		t.Fatalf("churn test evicted nothing: %+v", st)
	}
}

// TestTheorem13GraphBackedMatchesSerial is the chain byte-identity
// property test at the engine level: the graph-cached chain must render
// identically to the pre-cache per-stage construction for the registry
// protocols.
func TestTheorem13GraphBackedMatchesSerial(t *testing.T) {
	cases := []struct {
		desc   string
		inputs []int
		quota  []int
	}{
		{"cas-rec:2", []int{1, 0}, []int{0, 1}},
		{"cas-rec:3", []int{1, 0, 0}, []int{0, 1, 1}},
		{"tnn-rec:4,2", []int{1, 0}, []int{0, 2}},
		{"tnn-rec:5,2", []int{1, 0}, []int{0, 2}},
	}
	e := New(WithParallelism(2))
	for _, tc := range cases {
		p, err := e.ResolveProtocol(tc.desc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.Theorem13ChainOpts(p, tc.inputs, tc.quota,
			model.ChainOpts{FreshGraphPerStage: true})
		if err != nil {
			t.Fatalf("%s serial: %v", tc.desc, err)
		}
		got, err := e.Theorem13(p, CheckRequest{Inputs: tc.inputs, CrashQuota: tc.quota})
		if err != nil {
			t.Fatalf("%s graph-backed: %v", tc.desc, err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: graph-backed chain diverged:\n got %s\nwant %s",
				tc.desc, got, want)
		}
		// Run it again: the whole chain must now be served from the warm
		// cached graph without any new expansion.
		g, err := e.GraphCache().Get(p, tc.inputs)
		if err != nil {
			t.Fatal(err)
		}
		beforeRerun := g.Stats()
		if _, err := e.Theorem13(p, CheckRequest{Inputs: tc.inputs, CrashQuota: tc.quota}); err != nil {
			t.Fatal(err)
		}
		if after := g.Stats(); after.Expanded != beforeRerun.Expanded {
			t.Fatalf("%s: repeated chain expanded %d new nodes",
				tc.desc, after.Expanded-beforeRerun.Expanded)
		}
	}
}
