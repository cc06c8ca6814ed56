package model_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/proto"
)

// TestTheorem13ChainCAS runs the mechanized Theorem 13 construction on
// recoverable CAS consensus: the very first critical configuration is
// already n-recording (CAS records the winner forever), so the chain ends
// at stage 0.
func TestTheorem13ChainCAS(t *testing.T) {
	for n := 2; n <= 3; n++ {
		pr := proto.NewCASRecoverable(n)
		inputs := make([]int, n)
		inputs[0] = 1
		quota := make([]int, n)
		for p := 1; p < n; p++ {
			quota[p] = 1
		}
		chain, err := model.Theorem13Chain(pr, inputs, quota)
		if err != nil {
			t.Fatalf("n=%d: %v\n%s", n, err, chain)
		}
		if !chain.Recording {
			t.Errorf("n=%d: chain did not reach n-recording:\n%s", n, chain)
		}
		if len(chain.Stages) != 1 {
			t.Logf("n=%d: chain took %d stages:\n%s", n, len(chain.Stages), chain)
		}
	}
}

// TestTheorem13ChainTnnRecoverable runs the construction on the paper's
// own recoverable algorithm within its process bound: Theorem 13
// guarantees the chain reaches an n-recording configuration, certifying
// that T_{n,n'} is n'-recording (n' = procs here).
func TestTheorem13ChainTnnRecoverable(t *testing.T) {
	cases := []struct{ n, np int }{{4, 2}, {5, 2}, {4, 3}}
	for _, c := range cases {
		pr := proto.NewTnnRecoverable(c.n, c.np, c.np)
		inputs := make([]int, c.np)
		inputs[0] = 1
		quota := make([]int, c.np)
		for p := 1; p < c.np; p++ {
			quota[p] = 2
		}
		chain, err := model.Theorem13Chain(pr, inputs, quota)
		if err != nil {
			t.Fatalf("T[%d,%d]: %v\n%s", c.n, c.np, err, chain)
		}
		if !chain.Recording {
			t.Errorf("T[%d,%d]: chain did not reach n-recording:\n%s", c.n, c.np, chain)
		}
		if len(chain.Stages) > c.np {
			t.Errorf("T[%d,%d]: chain took %d stages, paper bounds l <= n-1",
				c.n, c.np, len(chain.Stages))
		}
	}
}

// TestTheorem13ChainRendering checks the report form.
func TestTheorem13ChainRendering(t *testing.T) {
	pr := proto.NewCASRecoverable(2)
	chain, err := model.Theorem13Chain(pr, []int{0, 1}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := chain.String()
	for _, want := range []string{"stage 0", "class=", "n-recording configuration"} {
		if !strings.Contains(s, want) {
			t.Errorf("chain rendering missing %q:\n%s", want, s)
		}
	}
}

// TestTheorem13ChainUnivalentStart: with equal inputs the initial
// configuration is univalent and the chain cannot start.
func TestTheorem13ChainUnivalentStart(t *testing.T) {
	pr := proto.NewCASRecoverable(2)
	if _, err := model.Theorem13Chain(pr, []int{1, 1}, []int{0, 1}); err == nil {
		t.Error("expected failure from a univalent initial configuration")
	}
}

// chainCases are the property-test protocols: the registry families with
// known multi- and single-stage chains.
func chainCases() []struct {
	name   string
	pr     model.Protocol
	inputs []int
	quota  []int
} {
	return []struct {
		name   string
		pr     model.Protocol
		inputs []int
		quota  []int
	}{
		{"cas-rec-2", proto.NewCASRecoverable(2), []int{1, 0}, []int{0, 1}},
		{"cas-rec-3", proto.NewCASRecoverable(3), []int{1, 0, 0}, []int{0, 1, 1}},
		{"tnn-rec-4-2", proto.NewTnnRecoverable(4, 2, 2), []int{1, 0}, []int{0, 2}},
		{"tnn-rec-4-3", proto.NewTnnRecoverable(4, 3, 3), []int{1, 0, 0}, []int{0, 2, 2}},
		{"tas-reg", proto.NewTASConsensus(), []int{1, 0}, []int{0, 2}},
	}
}

// TestTheorem13ChainGraphMatchesPerStage is the chain byte-identity
// property test: the shared-graph construction must produce stages
// identical — start schedules, critical traces, classifications, team
// vectors — to the per-stage reference (Theorem13PerStage, the chain loop
// over one-shot graphs) AND to a direct serial replay of every stage (a
// fresh model.Check from the stage's start prefix followed by
// FindCritical).
func TestTheorem13ChainGraphMatchesPerStage(t *testing.T) {
	for _, tc := range chainCases() {
		t.Run(tc.name, func(t *testing.T) {
			shared, errShared := model.Theorem13Chain(tc.pr, tc.inputs, tc.quota)
			fresh, errFresh := model.Theorem13PerStage(tc.pr, tc.inputs, tc.quota)
			if (errShared == nil) != (errFresh == nil) {
				t.Fatalf("error behavior diverged: shared %v, per-stage %v", errShared, errFresh)
			}
			if errShared != nil {
				if errShared.Error() != errFresh.Error() {
					t.Fatalf("errors diverged: shared %v, per-stage %v", errShared, errFresh)
				}
				// tas-reg is wait-free only: its colliding stage 0 leads to
				// a configuration with no critical execution.
				if want := "stage 1: model: process p0 already decided in critical configuration"; tc.name != "tas-reg" || errShared.Error() != want {
					t.Fatalf("chain error %q, want tas-reg's %q", errShared, want)
				}
				return
			}
			if shared.String() != fresh.String() {
				t.Fatalf("shared-graph chain diverged from per-stage chain:\n got %s\nwant %s",
					shared, fresh)
			}

			// Replay every stage serially: Check from the stage's start
			// prefix, FindCritical, and compare the full classification.
			for i, st := range shared.Stages {
				res, err := model.Check(tc.pr, model.CheckOpts{
					Inputs:       tc.inputs,
					CrashQuota:   tc.quota,
					StartTrace:   st.Start,
					SkipLiveness: true,
				})
				if err != nil {
					t.Fatalf("stage %d serial replay: %v", i, err)
				}
				info, err := model.FindCritical(res)
				if err != nil {
					t.Fatalf("stage %d serial FindCritical: %v", i, err)
				}
				if got, want := st.Info.Trace.String(), info.Trace.String(); got != want {
					t.Fatalf("stage %d: trace diverged: got [%s] want [%s]", i, got, want)
				}
				if st.Info.Class != info.Class {
					t.Fatalf("stage %d: class diverged: got %s want %s", i, st.Info.Class, info.Class)
				}
				if !reflect.DeepEqual(st.Info.Teams, info.Teams) {
					t.Fatalf("stage %d: teams diverged: got %v want %v", i, st.Info.Teams, info.Teams)
				}
				if st.Info.Config.String() != info.Config.String() {
					t.Fatalf("stage %d: critical configuration diverged", i)
				}
			}
		})
	}
}

// TestTheorem13ChainSharedGraphExpandsOnce quantifies the tentpole: a
// chain on one shared graph never expands more than per-stage one-shot
// graphs would, and — the acceptance criterion — the graph's Expanded
// counter is FLAT after the first stage: every later stage's walk is
// served entirely from the stage-0 expansion. The registry's recoverable
// protocols end n-recording at stage 0, so the multi-walk case is
// tas-reg: its colliding stage-0 classification forces the Figure 1 move
// and a second full exploration from the shifted root (which then fails
// FindCritical — wait-free-only algorithms are expected to; the stage-1
// walk still ran, and is what this test measures).
func TestTheorem13ChainSharedGraphExpandsOnce(t *testing.T) {
	for _, tc := range chainCases() {
		t.Run(tc.name, func(t *testing.T) {
			g, err := model.NewGraph(tc.pr, tc.inputs)
			if err != nil {
				t.Fatal(err)
			}
			var perStage []model.GraphStats
			shared, chainErr := g.Theorem13(tc.quota, model.ChainOpts{
				OnStage: func(int, *model.CriticalInfo) { perStage = append(perStage, g.Stats()) },
			})
			if chainErr != nil && len(shared.Stages) == 0 {
				t.Fatalf("chain failed before any stage: %v", chainErr)
			}
			if len(perStage) > 0 {
				afterStage0 := perStage[0].Expanded
				if final := g.Stats().Expanded; final != afterStage0 {
					t.Fatalf("Expanded not flat across stages: %d after stage 0, %d at the end",
						afterStage0, final)
				}
			}

			// The per-stage baseline: total expansions when every stage
			// explores its own one-shot graph (exactly what the shared
			// chain's walks covered, minus a possibly erroring final
			// stage whose walk the shared graph additionally absorbed).
			var freshTotal uint64
			for _, st := range shared.Stages {
				fg, err := model.NewGraph(tc.pr, tc.inputs)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fg.Check(model.CheckOpts{
					Inputs:     tc.inputs,
					CrashQuota: tc.quota,
					StartTrace: st.Start, SkipLiveness: true,
				}); err != nil {
					t.Fatal(err)
				}
				freshTotal += fg.Stats().Expanded
			}
			if sharedTotal := g.Stats().Expanded; sharedTotal > freshTotal {
				t.Fatalf("shared graph expanded more (%d) than per-stage total (%d)",
					sharedTotal, freshTotal)
			}
		})
	}
}

// BenchmarkTheorem13PerStage measures the per-stage reference
// (Theorem13PerStage: every stage re-explored on a one-shot graph) on the
// cases of the root package's BenchmarkTheorem13Graph, whose */shared
// sub-benchmarks measure the production chain walking one graph.
func BenchmarkTheorem13PerStage(b *testing.B) {
	cases := []struct {
		name   string
		pr     model.Protocol
		inputs []int
		quota  []int
		mayErr bool
	}{
		{"cas-rec2", proto.NewCASRecoverable(2), []int{1, 0}, []int{0, 2}, false},
		{"tnn-rec42", proto.NewTnnRecoverable(4, 2, 2), []int{1, 0}, []int{0, 2}, false},
		// tas-reg's chain dies at stage 1, after paying its exploration.
		{"tas-reg", proto.NewTASConsensus(), []int{1, 0}, []int{2, 2}, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chain, err := model.Theorem13PerStage(c.pr, c.inputs, c.quota)
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
