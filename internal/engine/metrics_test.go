package engine

import (
	"sync"
	"testing"

	"repro/internal/proto"
)

// TestMetricsAndSpanEvents pins the observability contract of the check
// paths: every Check brackets itself with check.start/check.done, the
// graph cache walked on attributes the cold first walk to its expand
// histogram and the warm repeat to its walk histogram, and graph
// resolution is observed per call.
func TestMetricsAndSpanEvents(t *testing.T) {
	var mu sync.Mutex
	var kinds []string
	eng := New(WithProgress(func(ev Event) {
		mu.Lock()
		kinds = append(kinds, ev.Kind)
		mu.Unlock()
	}))
	p := proto.NewCASRecoverable(2)
	req := CheckRequest{Inputs: []int{0, 1}, CrashQuota: []int{1, 1}}
	for i := 0; i < 2; i++ {
		if _, err := eng.Check(p, req); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"check.start", "check.done", "check.start", "check.done"}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	resolve, expand, walk := eng.GraphCache().PhaseSnapshots()
	if resolve.Count != 2 {
		t.Errorf("resolve count = %d, want 2", resolve.Count)
	}
	if expand.Count != 1 {
		t.Errorf("expand count = %d, want 1 (cold first walk)", expand.Count)
	}
	if walk.Count != 1 {
		t.Errorf("walk count = %d, want 1 (warm repeat)", walk.Count)
	}

	kinds = nil
	if _, err := eng.Theorem13(p, req); err != nil {
		t.Fatal(err)
	}
	if len(kinds) < 2 || kinds[0] != "chain.start" || kinds[len(kinds)-1] != "check.done" {
		t.Errorf("Theorem13 kinds = %v, want chain.start ... check.done", kinds)
	}

	kinds = nil
	if _, _, err := eng.CheckBatch(p, []CheckRequest{req, req}); err != nil {
		t.Fatal(err)
	}
	if len(kinds) < 2 || kinds[0] != "checkbatch.start" || kinds[len(kinds)-1] != "checkbatch.done" {
		t.Errorf("CheckBatch kinds = %v, want checkbatch.start ... checkbatch.done", kinds)
	}
}
