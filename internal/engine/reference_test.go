package engine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/decider"
	"repro/internal/spec"
	"repro/internal/types"
)

// TestBackendsAgreeOnAnalyses drives the engine's decider through the
// full engine path (pooled levels, auto-sharding, a private cache) and
// compares the complete analyses against the recursive reference
// deciders behind core.Analyze.
func TestBackendsAgreeOnAnalyses(t *testing.T) {
	e := New(WithCache(NewCache()), WithParallelism(4))
	for _, tt := range []string{"tnn:3,2", "swap:2", "queue:2", "tas"} {
		ft, err := e.Resolve(tt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.AnalyzeTo(ft, 4)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Analyze(ft, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: analyses diverged:\nengine:    %+v\nreference: %+v", tt, got, want)
		}
	}
}

// TestDeciderRunsCounted: every level decision the engine computes is
// one decision-cache miss, and a cache hit runs no decider.
func TestDeciderRunsCounted(t *testing.T) {
	e := New(WithCache(NewCache()))
	if _, _, err := e.Discerning(types.TestAndSet(), 2); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := e.Cache().Stats(); hits != 0 || misses != 1 {
		t.Fatalf("after one decision: hits=%d misses=%d, want 0/1", hits, misses)
	}
	if _, _, err := e.Discerning(types.TestAndSet(), 2); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := e.Cache().Stats(); hits != 1 || misses != 1 {
		t.Fatalf("after a repeat: hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestMaxNAboveCapRejected: every engine entry point that takes a
// process count rejects one above decider.BitsetMaxN up front, with the
// decider's message naming the cap, and decides nothing.
func TestMaxNAboveCapRejected(t *testing.T) {
	const n = decider.BitsetMaxN + 1
	ft := types.TestAndSet()
	for _, tc := range []struct {
		name string
		call func(e *Engine) error
	}{
		{"AnalyzeTo", func(e *Engine) error { _, err := e.AnalyzeTo(ft, n); return err }},
		{"Analyze", func(e *Engine) error { _, err := e.Analyze(ft); return err }},
		{"AnalyzeAll", func(e *Engine) error { _, err := e.AnalyzeAll([]*spec.FiniteType{ft}); return err }},
		{"Discerning", func(e *Engine) error { _, _, err := e.Discerning(ft, n); return err }},
		{"Recording", func(e *Engine) error { _, _, err := e.Recording(ft, n); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(WithMaxN(n), WithCache(NewCache()))
			err := tc.call(e)
			if err == nil || !strings.Contains(err.Error(), decider.CheckN(n).Error()) {
				t.Fatalf("err = %v, want the decider's cap error", err)
			}
			if _, misses, _ := e.Cache().Stats(); misses != 0 {
				t.Fatalf("%d levels decided before the rejection", misses)
			}
		})
	}
	// The cap itself is accepted.
	if err := checkMaxN(decider.BitsetMaxN); err != nil {
		t.Fatalf("maxN = cap rejected: %v", err)
	}
}
