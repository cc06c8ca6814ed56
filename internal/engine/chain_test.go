package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/decider"
	"repro/internal/registry"
	"repro/internal/spec"
	"repro/internal/types"
)

// analyzePool lists the descriptors of the benchmark's analyze pool
// (bench/reprodbench's typePool): every registry family at the sizes the
// deciders finish in milliseconds at maxN 5, plus the unordered products
// of the types with at most 2 operations and at most 6 values.
func analyzePool() []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	for m := 2; m <= 24; m++ {
		add("faa:%d", m)
		add("counter:%d", m)
	}
	for n := 2; n <= 8; n++ {
		for np := 1; np < n; np++ {
			add("tnn:%d,%d", n, np)
		}
	}
	for n := 3; n <= 8; n++ {
		add("y:%d", n)
	}
	for c := 1; c <= 4; c++ {
		add("queue:%d", c)
		add("stack:%d", c)
		add("peekqueue:%d", c)
	}
	for k := 2; k <= 10; k++ {
		add("cas:%d", k)
	}
	for k := 1; k <= 3; k++ {
		add("register:%d", k)
		add("swap:%d", k)
	}
	out = append(out, "tas", "sticky", "x4", "x5", "trivial")
	parts := []string{"tas", "register:1", "swap:1", "trivial"}
	for m := 2; m <= 6; m++ {
		parts = append(parts, fmt.Sprintf("faa:%d", m), fmt.Sprintf("counter:%d", m))
	}
	for i, a := range parts {
		for _, b := range parts[i+1:] {
			add("product:%s,%s", a, b)
		}
	}
	return out
}

// everyLevel is t's analysis with every level decided on its own by the
// bitset decider, serially: the answer an analysis must give whether it
// searches a level or derives it.
func everyLevel(t *testing.T, ft *spec.FiniteType, maxN int) *core.Analysis {
	t.Helper()
	ctx := context.Background()
	a := newAnalysis(ft, maxN)
	for n := 2; n <= maxN; n++ {
		ok, dw, err := decider.IsNDiscerning(ctx, ft, n, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		a.Discerning[n] = ok
		if ok {
			a.DiscerningWitness[n] = dw
		}
		ok, rw, err := decider.IsNRecording(ctx, ft, n, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		a.Recording[n] = ok
		if ok {
			a.RecordingWitness[n] = rw
		}
	}
	finish(a)
	return a
}

// firstNegative is the lowest n at which holds is false, or 0 if it
// holds at every level up to maxN.
func firstNegative(holds map[int]bool, maxN int) int {
	for n := 2; n <= maxN; n++ {
		if !holds[n] {
			return n
		}
	}
	return 0
}

// TestAnalyzeMatchesEveryLevel: an analysis searches each property's
// levels upward and derives every level above the first negative one.
// Over the benchmark's analyze pool at maxN 5, the analyses of a serial
// engine (AnalyzeAll: every type's chains on one worker) and of a sharding
// engine on four workers (AnalyzeTo per type) must equal the analysis
// whose every level is decided on its own, witnesses included. The pool
// must hold, for each property, types whose first negative level is each
// of n = 2..5, so every chain length derives.
func TestAnalyzeMatchesEveryLevel(t *testing.T) {
	const maxN = 5
	var ts []*spec.FiniteType
	for _, desc := range analyzePool() {
		ft, err := registry.Parse(desc)
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, ft)
	}
	serial, err := New(WithParallelism(1), WithMaxN(maxN)).AnalyzeAll(ts)
	if err != nil {
		t.Fatal(err)
	}
	sharded := sharding(New(WithParallelism(4)))
	firstNeg := map[Property]map[int]bool{Discerning: {}, Recording: {}}
	derived := 0
	for i, ft := range ts {
		want := everyLevel(t, ft, maxN)
		got, err := sharded.AnalyzeTo(ft, maxN)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []struct {
			name string
			a    *core.Analysis
		}{{"serial", serial[i]}, {"sharded", got}} {
			if !reflect.DeepEqual(eng.a, want) {
				t.Errorf("%s engine, %s: analysis differs from every level decided alone:\ngot  %+v\nwant %+v",
					eng.name, ft.Name(), eng.a, want)
			}
		}
		for prop, holds := range map[Property]map[int]bool{Discerning: want.Discerning, Recording: want.Recording} {
			if n := firstNegative(holds, maxN); n > 0 {
				firstNeg[prop][n] = true
				derived += maxN - n
			}
		}
	}
	for _, prop := range []Property{Discerning, Recording} {
		for n := 2; n <= maxN; n++ {
			if !firstNeg[prop][n] {
				t.Errorf("no pool type's first negative %s level is n=%d", prop, n)
			}
		}
	}
	t.Logf("%d types: %d of %d levels derived per analysis pass", len(ts), derived, 2*(maxN-1)*len(ts))
}

// TestImpliedLevelsRunNoSearch: the levels above a property's first
// negative one are derived, not searched. XFive is 5-discerning and
// 3-recording; searching all its levels up to n=14 takes about 2s on two
// workers of a 2-vCPU Xeon VM (0.8-1.0s for the n=14 discerning level
// alone), so an analysis to n=14 ends within a one-second deadline only
// if levels 7..14 and 5..14 run no search. The memo's fast path carries
// a chain's negative level into the pool: after an analysis to n=7, one
// to n=14 answers levels 2..7 from the memo and derives 8..14. A
// negative planted in the memo, at a level the decider finds positive,
// shows that nothing above it is searched, both where the fast path
// hands the chain over and where a worker meets it.
func TestImpliedLevelsRunNoSearch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	x5 := types.XFive()
	analyze := func(eng *Engine, maxN int) {
		t.Helper()
		a, err := eng.AnalyzeTo(x5, maxN)
		if err != nil {
			t.Fatalf("XFive to n=%d under a 1s deadline: %v", maxN, err)
		}
		if a.ConsensusNumber != 5 || a.RecoverableConsensusNumber != 3 {
			t.Errorf("XFive to n=%d: cons=%d rcons=%d, want 5/3",
				maxN, a.ConsensusNumber, a.RecoverableConsensusNumber)
		}
	}
	analyze(New(WithContext(ctx), WithParallelism(2)), 14)

	var mu sync.Mutex
	var levels []Event
	eng := New(WithContext(ctx), WithParallelism(2), WithProgress(func(ev Event) {
		if ev.Kind == "level.done" {
			mu.Lock()
			levels = append(levels, ev)
			mu.Unlock()
		}
	}))
	analyze(eng, 7)
	levels = nil
	_, misses0, _ := eng.Cache().Stats()
	analyze(eng, 14)
	if len(levels) != 2*13 {
		t.Fatalf("got %d level.done events, want %d", len(levels), 2*13)
	}
	for _, ev := range levels {
		if ev.Cached != (ev.N <= 7) {
			t.Errorf("%s level %d: cached=%v, want %v", ev.Property, ev.N, ev.Cached, ev.N <= 7)
		}
	}
	if _, misses, _ := eng.Cache().Stats(); misses-misses0 != 2*7 {
		t.Errorf("levels 8..14 counted %d misses, want %d", misses-misses0, 2*7)
	}

	// XFive is 3-discerning, so a planted negative at n=3 is not what
	// the decider would return: a level above it that came back positive
	// would have been searched.
	planted := Entry{FP: x5.Fingerprint(), Prop: Discerning, N: 3}
	for _, tc := range []struct {
		name   string
		primed int // the analysis that fills the memo first (0: none)
	}{
		{"fast-path", 3},
		{"worker", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(WithContext(ctx), WithParallelism(2))
			if tc.primed > 0 {
				if _, err := eng.AnalyzeTo(x5, tc.primed); err != nil {
					t.Fatal(err)
				}
			}
			eng.Cache().Insert(planted)
			a, err := eng.AnalyzeTo(x5, 6)
			if err != nil {
				t.Fatal(err)
			}
			for n := 3; n <= 6; n++ {
				if a.Discerning[n] {
					t.Errorf("discerning level %d is positive above a negative level 3: it was searched", n)
				}
			}
			if !a.Discerning[2] || a.RecoverableConsensusNumber != 3 {
				t.Errorf("levels outside the planted chain changed: discerning[2]=%v rcons=%d",
					a.Discerning[2], a.RecoverableConsensusNumber)
			}
		})
	}
}
