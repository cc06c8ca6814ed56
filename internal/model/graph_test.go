package model_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/schedule"
	"repro/internal/spec"
	"repro/internal/types"
)

// checkObservables projects a Result onto its caller-observable fields,
// the byte-identity contract between serial and shared-graph checks.
type checkObservables struct {
	Nodes      int
	Truncated  bool
	Violations []violationObservable
}

type violationObservable struct {
	Kind   string
	Trace  string
	Config string
	Detail string
}

func observablesOf(r *model.Result) checkObservables {
	out := checkObservables{Nodes: r.Nodes, Truncated: r.Truncated}
	for _, v := range r.Violations {
		out.Violations = append(out.Violations, violationObservable{
			Kind: v.Kind, Trace: v.Trace.String(), Config: v.Config.String(), Detail: v.Detail,
		})
	}
	return out
}

// graphCheckCases spans crash-free and crash-budgeted exploration, clean
// protocols and ones with safety violations under crashes (TAS).
func graphCheckCases() []struct {
	name   string
	pr     model.Protocol
	inputs []int
	quotas [][]int
} {
	return []struct {
		name   string
		pr     model.Protocol
		inputs []int
		quotas [][]int
	}{
		{
			name: "cas-wf-2", pr: proto.NewCASWaitFree(2), inputs: []int{0, 1},
			quotas: [][]int{nil, {0, 1}, {1, 1}, {2, 2}},
		},
		{
			name: "tnn-rec-3-2-2", pr: proto.NewTnnRecoverable(3, 2, 2), inputs: []int{0, 1},
			quotas: [][]int{nil, {0, 1}, {1, 1}, {0, 2}},
		},
		{
			name: "tas-registers", pr: proto.NewTASConsensus(), inputs: []int{0, 1},
			quotas: [][]int{nil, {0, 1}, {1, 1}},
		},
	}
}

// TestGraphCheckMatchesSerial shares one Graph across every quota variant
// and across repeated runs, and requires the results to be identical to a
// fresh serial Check of the same options.
func TestGraphCheckMatchesSerial(t *testing.T) {
	for _, tc := range graphCheckCases() {
		t.Run(tc.name, func(t *testing.T) {
			g, err := model.NewGraph(tc.pr, tc.inputs)
			if err != nil {
				t.Fatal(err)
			}
			for _, quota := range tc.quotas {
				opts := model.CheckOpts{Inputs: tc.inputs, CrashQuota: quota}
				want, err := model.Check(tc.pr, opts)
				if err != nil {
					t.Fatal(err)
				}
				for run := 0; run < 2; run++ {
					got, err := g.Check(opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(observablesOf(got), observablesOf(want)) {
						t.Fatalf("quota %v run %d: shared-graph result diverged:\n got %+v\nwant %+v",
							quota, run, observablesOf(got), observablesOf(want))
					}
				}
			}
			st := g.Stats()
			if st.Expanded == 0 || st.Reused == 0 {
				t.Fatalf("expected both expansions and reuse, got %+v", st)
			}
		})
	}
}

// TestGraphCheckConcurrent hammers shared graphs from many goroutines
// with mixed quotas; every result must match its serial twin. Half the
// walkers use a second graph, for the complementary inputs, built from
// the same compiled machine, so walks of two graphs that share one
// machine's tables run at once. Run under -race this is the
// shared-graph data-race check.
func TestGraphCheckConcurrent(t *testing.T) {
	for _, tc := range graphCheckCases() {
		t.Run(tc.name, func(t *testing.T) {
			m, err := model.Compile(tc.pr)
			if err != nil {
				t.Fatal(err)
			}
			flipped := make([]int, len(tc.inputs))
			for p, in := range tc.inputs {
				flipped[p] = 1 - in
			}
			inputs := [2][]int{tc.inputs, flipped}
			var graphs [2]*model.Graph
			var want [2][]checkObservables
			for k := range graphs {
				if graphs[k], err = m.NewGraph(inputs[k]); err != nil {
					t.Fatal(err)
				}
				for _, quota := range tc.quotas {
					r, err := model.Check(tc.pr, model.CheckOpts{Inputs: inputs[k], CrashQuota: quota})
					if err != nil {
						t.Fatal(err)
					}
					want[k] = append(want[k], observablesOf(r))
				}
			}
			const workers = 8
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					k := w % 2
					for i, quota := range tc.quotas {
						got, err := graphs[k].Check(model.CheckOpts{Inputs: inputs[k], CrashQuota: quota})
						if err != nil {
							errs <- err
							return
						}
						if !reflect.DeepEqual(observablesOf(got), want[k][i]) {
							errs <- fmt.Errorf("worker %d inputs %v quota %v: diverged", w, inputs[k], quota)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for k, g := range graphs {
				if st := g.Stats(); st.Reused == 0 {
					t.Fatalf("concurrent walks of inputs %v reused nothing: %+v", inputs[k], st)
				}
			}
		})
	}
}

// TestGraphExpandOnceUnderContention starts eight walks at once over
// one cold graph, so they meet nodes another walk is expanding and wait
// for them. Every node must be expanded exactly once — the expansion
// counter equals the Done nodes of an export — and every result must
// equal its serial twin. Run it under -race with a -count of 10.
func TestGraphExpandOnceUnderContention(t *testing.T) {
	for _, tc := range graphCheckCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := make([]checkObservables, len(tc.quotas))
			for i, quota := range tc.quotas {
				r, err := model.Check(tc.pr, model.CheckOpts{Inputs: tc.inputs, CrashQuota: quota})
				if err != nil {
					t.Fatal(err)
				}
				want[i] = observablesOf(r)
			}
			g, err := model.NewGraph(tc.pr, tc.inputs)
			if err != nil {
				t.Fatal(err)
			}
			const workers = 8
			start := make(chan struct{})
			errs := make(chan error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					// Half the walks start from the largest quota, half
					// from the smallest, so both directions race.
					for k := range tc.quotas {
						i := k
						if w%2 == 1 {
							i = len(tc.quotas) - 1 - k
						}
						got, err := g.Check(model.CheckOpts{Inputs: tc.inputs, CrashQuota: tc.quotas[i]})
						if err != nil {
							errs <- err
							return
						}
						if !reflect.DeepEqual(observablesOf(got), want[i]) {
							errs <- fmt.Errorf("worker %d quota %v diverged from its serial twin", w, tc.quotas[i])
							return
						}
					}
				}(w)
			}
			close(start)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st, snap := g.Stats(), g.Export()
			if uint64(snap.NumExpanded()) != st.Expanded || uint64(len(snap.Nodes)) != st.Interned {
				t.Fatalf("stats %+v, export has %d nodes and %d done: a node was expanded twice or lost",
					st, len(snap.Nodes), snap.NumExpanded())
			}
		})
	}
}

// TestGraphSharedPrefixExpandedOnce checks the tentpole's core claim: N
// identical requests expand the state space exactly once.
func TestGraphSharedPrefixExpandedOnce(t *testing.T) {
	pr := proto.NewCASWaitFree(2)
	in := []int{0, 1}
	g, err := model.NewGraph(pr, in)
	if err != nil {
		t.Fatal(err)
	}
	opts := model.CheckOpts{Inputs: in, CrashQuota: []int{1, 1}}
	var first model.GraphStats
	for i := 0; i < 5; i++ {
		if _, err := g.Check(opts); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = g.Stats()
		}
	}
	st := g.Stats()
	if st.Expanded != first.Expanded {
		t.Fatalf("later identical requests expanded new nodes: first %+v, final %+v", first, st)
	}
	if st.Reused < 4*first.Expanded {
		t.Fatalf("expected ~4 full reuse passes, got %+v (first expanded %d)", st, first.Expanded)
	}
}

// TestGraphInputMismatch rejects a walk whose inputs differ from the
// graph's.
func TestGraphInputMismatch(t *testing.T) {
	g, err := model.NewGraph(proto.NewCASWaitFree(2), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Check(model.CheckOpts{Inputs: []int{1, 0}}); err == nil {
		t.Fatal("expected an inputs-mismatch error")
	}
	if _, err := g.Check(model.CheckOpts{Inputs: []int{0}}); err == nil {
		t.Fatal("expected an inputs-length error")
	}
}

// TestGraphCheckCancel verifies a canceled walk context stops the walk
// without corrupting the shared graph for later walks.
func TestGraphCheckCancel(t *testing.T) {
	pr := proto.NewCASRecoverable(2)
	in := []int{0, 1}
	g, err := model.NewGraph(pr, in)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Check(model.CheckOpts{Ctx: ctx, Inputs: in, CrashQuota: []int{1, 1}}); err == nil {
		t.Fatal("expected context error")
	}
	want, err := model.Check(pr, model.CheckOpts{Inputs: in, CrashQuota: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Check(model.CheckOpts{Inputs: in, CrashQuota: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(observablesOf(got), observablesOf(want)) {
		t.Fatal("post-cancel walk diverged from serial")
	}
}

// TestGraphStartTraceRoot checks StartTrace roots resolve through the
// graph identically to serial exploration.
func TestGraphStartTraceRoot(t *testing.T) {
	pr := proto.NewCASWaitFree(2)
	in := []int{0, 1}
	start := schedule.Schedule{schedule.Step(0), schedule.Crash(0), schedule.Step(1)}
	g, err := model.NewGraph(pr, in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.Check(pr, model.CheckOpts{Inputs: in, CrashQuota: []int{1, 1}, StartTrace: start})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Check(model.CheckOpts{Inputs: in, CrashQuota: []int{1, 1}, StartTrace: start})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(observablesOf(got), observablesOf(want)) {
		t.Fatal("StartTrace walk diverged from serial")
	}
}

// spinProto is a one-process protocol that reads a register forever
// without deciding: a crash-free step cycle, i.e. a deterministic
// recoverable wait-freedom violation.
type spinProto struct {
	reg *spec.FiniteType
}

func newSpinProto() *spinProto { return &spinProto{reg: types.Register(2)} }

func (s *spinProto) Name() string { return "spin" }
func (s *spinProto) Procs() int   { return 1 }
func (s *spinProto) Objects() []model.ObjectSpec {
	return []model.ObjectSpec{{Type: s.reg, Init: 0}}
}
func (s *spinProto) Init(p, input int) string { return "a" }
func (s *spinProto) Poised(p int, state string) model.Action {
	return model.Apply(0, 0)
}
func (s *spinProto) Next(p int, state string, resp spec.Response) string {
	if state == "a" {
		return "b"
	}
	return "a"
}

// TestGraphCheckDeterministicLiveness runs a liveness-violating check
// repeatedly and requires the same witness every time (the BFS-order
// sweep removed the old map-order nondeterminism).
func TestGraphCheckDeterministicLiveness(t *testing.T) {
	pr := newSpinProto()
	var first checkObservables
	for i := 0; i < 5; i++ {
		r, err := model.Check(pr, model.CheckOpts{Inputs: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		obs := observablesOf(r)
		found := false
		for _, v := range obs.Violations {
			if v.Kind == "wait-freedom" {
				found = true
			}
		}
		if !found {
			t.Fatalf("run %d: expected a wait-freedom violation, got %+v", i, obs)
		}
		if i == 0 {
			first = obs
		} else if !reflect.DeepEqual(obs, first) {
			t.Fatalf("run %d: liveness witness not deterministic:\n got %+v\nwant %+v", i, obs, first)
		}
	}
}
