package engine

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/proto"
)

// batchObservable projects a model.Result onto its observable fields for
// byte-identity comparison between batch and serial runs.
type batchObservable struct {
	Nodes      int
	Truncated  bool
	Violations []string
}

func observe(r *model.Result) batchObservable {
	out := batchObservable{Nodes: r.Nodes, Truncated: r.Truncated}
	for _, v := range r.Violations {
		out.Violations = append(out.Violations, v.String())
	}
	return out
}

func TestCheckBatchMatchesSerial(t *testing.T) {
	p := proto.NewCASRecoverable(2)
	reqs := []CheckRequest{
		{Inputs: []int{0, 1}},
		{Inputs: []int{0, 1}, CrashQuota: []int{1, 1}},
		{Inputs: []int{0, 1}, CrashQuota: []int{2, 2}},
		{Inputs: []int{1, 1}, CrashQuota: []int{1, 1}},
		{Inputs: []int{0, 1}, CrashQuota: []int{1, 1}}, // duplicate of [1]
	}
	e := New(WithParallelism(4))
	items, gs, err := e.CheckBatch(p, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(reqs) {
		t.Fatalf("got %d items for %d requests", len(items), len(reqs))
	}
	serial := New(WithParallelism(1))
	for i, req := range reqs {
		if items[i].Err != nil {
			t.Fatalf("item %d: %v", i, items[i].Err)
		}
		want, err := serial.Check(p, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(observe(items[i].Result), observe(want)) {
			t.Fatalf("item %d diverged from serial:\n got %+v\nwant %+v",
				i, observe(items[i].Result), observe(want))
		}
	}
	if gs.Expanded == 0 {
		t.Fatalf("no expansions recorded: %+v", gs)
	}
	if gs.Reused == 0 {
		t.Fatalf("batch with duplicate and nested-quota requests reused nothing: %+v", gs)
	}
}

// TestCheckBatchIdenticalPrefixExpandsOnce is the acceptance criterion:
// N identical requests expand the shared prefix exactly once.
func TestCheckBatchIdenticalPrefixExpandsOnce(t *testing.T) {
	p := proto.NewCASWaitFree(2)
	req := CheckRequest{Inputs: []int{0, 1}, CrashQuota: []int{1, 1}}
	const nreq = 8

	// One request alone: every expansion is fresh.
	_, one, err := New().CheckBatch(p, []CheckRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]CheckRequest, nreq)
	for i := range reqs {
		reqs[i] = req
	}
	items, gs, err := New(WithParallelism(4)).CheckBatch(p, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
	}
	if gs.Expanded != one.Expanded {
		t.Fatalf("%d identical requests expanded %d nodes, want the single-request %d",
			nreq, gs.Expanded, one.Expanded)
	}
	if want := (nreq - 1) * one.Expanded; gs.Reused < want {
		t.Fatalf("reuse %d below the (n-1) full walks %d", gs.Reused, want)
	}
}

func TestCheckBatchPerItemErrors(t *testing.T) {
	p := proto.NewCASWaitFree(2)
	reqs := []CheckRequest{
		{Inputs: []int{0, 1}},
		{Inputs: []int{0}},       // wrong length: per-item error
		{Inputs: []int{0, 1, 1}}, // wrong length: per-item error
		{Inputs: []int{1, 0}},    // fine
	}
	items, _, err := New().CheckBatch(p, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Err != nil || items[3].Err != nil {
		t.Fatalf("well-formed items failed: %v / %v", items[0].Err, items[3].Err)
	}
	for _, i := range []int{1, 2} {
		if items[i].Err == nil {
			t.Fatalf("malformed item %d did not error", i)
		}
		if !strings.Contains(items[i].Err.Error(), "inputs") {
			t.Fatalf("item %d error %q does not mention inputs", i, items[i].Err)
		}
	}
}

// TestCheckBatchInvalidProtocol: a protocol that fails validation fails
// every item with the validation error, the way wrong-length inputs fail
// theirs, and the call itself does not error.
func TestCheckBatchInvalidProtocol(t *testing.T) {
	p := noObjects{proto.NewCASWaitFree(2)}
	want := model.Validate(p)
	if want == nil {
		t.Fatal("a protocol with no objects must fail validation")
	}
	reqs := []CheckRequest{
		{Inputs: []int{0, 1}},
		{Inputs: []int{1, 0}},
		{Inputs: []int{0, 1}, CrashQuota: []int{1, 1}},
	}
	items, _, err := New(WithParallelism(2)).CheckBatch(p, reqs)
	if err != nil {
		t.Fatalf("CheckBatch error %v, want item errors only", err)
	}
	if len(items) != len(reqs) {
		t.Fatalf("%d items for %d requests", len(items), len(reqs))
	}
	for i, it := range items {
		if it.Result != nil || it.Err == nil || it.Err.Error() != want.Error() {
			t.Errorf("item %d = (%v, %v), want the validation error %q", i, it.Result, it.Err, want)
		}
	}
}

// noObjects is a protocol with its shared objects removed.
type noObjects struct{ model.Protocol }

func (noObjects) Objects() []model.ObjectSpec { return nil }

// TestCheckBatchPerRequestCancel cancels one request mid-batch; only that
// item may fail.
func TestCheckBatchPerRequestCancel(t *testing.T) {
	p := proto.NewCASRecoverable(2)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []CheckRequest{
		{Inputs: []int{0, 1}, CrashQuota: []int{1, 1}},
		{Inputs: []int{0, 1}, CrashQuota: []int{1, 1}, Ctx: canceled},
		{Inputs: []int{0, 1}, CrashQuota: []int{2, 2}},
	}
	items, _, err := New(WithParallelism(2)).CheckBatch(p, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("live items failed: %v / %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil {
		t.Fatal("canceled item did not error")
	}
}

// TestCheckBatchEngineCancelMidBatch cancels the engine context while a
// batch runs: in-flight and unfed items error, the call itself returns
// the items (per-item errors), and nothing hangs.
func TestCheckBatchEngineCancelMidBatch(t *testing.T) {
	p := proto.NewCASRecoverable(2)
	ctx, cancel := context.WithCancel(context.Background())
	e := New(WithContext(ctx), WithParallelism(1))

	var once sync.Once
	gate := make(chan struct{})
	// Cancel as soon as the first item reports done, so later feeds stop.
	e.progress = func(ev Event) {
		if ev.Kind == "check.done" {
			once.Do(func() { cancel(); close(gate) })
		}
	}
	reqs := make([]CheckRequest, 16)
	for i := range reqs {
		reqs[i] = CheckRequest{Inputs: []int{0, 1}, CrashQuota: []int{2, 2}}
	}
	done := make(chan struct{})
	var items []CheckItem
	var err error
	go func() {
		items, _, err = e.CheckBatch(p, reqs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("CheckBatch hung after engine cancellation")
	}
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	var failed int
	for _, it := range items {
		if it.Err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("engine cancellation mid-batch failed no items")
	}
}

func TestResolveProtocol(t *testing.T) {
	e := New()
	for _, desc := range []string{"tnn-wf:3,2", "tnn-rec:3,2,2", "cas-wf:2", "cas-rec", "tas-reg"} {
		p, err := e.ResolveProtocol(desc)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		if p.Procs() < 1 {
			t.Fatalf("%s: bad protocol", desc)
		}
	}
	if _, err := e.ResolveProtocol("nope"); err == nil || !strings.Contains(err.Error(), "valid names") {
		t.Fatalf("unknown protocol error should list valid names, got %v", err)
	}
	if _, err := e.ResolveProtocol("tnn-wf:2,2"); err == nil {
		t.Fatal("tnn-wf with n == n' should error")
	}
}
