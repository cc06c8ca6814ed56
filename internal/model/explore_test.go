package model_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/schedule"
	"repro/internal/spec"
)

// TestMaxNodesTruncates: a tiny node budget must truncate and mark the
// result not-OK without reporting spurious violations as facts.
func TestMaxNodesTruncates(t *testing.T) {
	pr := proto.NewCASRecoverable(3)
	res, err := model.Check(pr, model.CheckOpts{
		Inputs:     []int{0, 1, 0},
		CrashQuota: []int{2, 2, 2},
		MaxNodes:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("expected truncation")
	}
	if res.OK() {
		t.Error("truncated result must not be OK")
	}
	if _, err := model.FindCritical(res); err == nil {
		t.Error("FindCritical on truncated exploration must fail")
	}
}

// TestStartTraceExploresFromMidExecution: exploration rooted mid-run must
// see only the suffix behaviour.
func TestStartTraceExploresFromMidExecution(t *testing.T) {
	pr := proto.NewCASWaitFree(2)
	// After p0's step the protocol is decided for 0-univalence.
	start, _ := schedule.Parse("p0")
	res, err := model.Check(pr, model.CheckOpts{
		Inputs:     []int{0, 1},
		StartTrace: start,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Valence(res.InitNode()); v != model.Valence0 {
		t.Errorf("valence from mid-execution root = %d, want 0-univalent", v)
	}
	// Compare against a full exploration's node at the same schedule.
	full, err := model.Check(pr, model.CheckOpts{Inputs: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	nd := full.Node(start)
	if nd == nil {
		t.Fatal("full exploration lost the p0 node")
	}
	if !full.NodeConfig(nd).Equal(res.NodeConfig(res.InitNode())) {
		t.Error("StartTrace root differs from the full exploration's node")
	}
}

// TestStartTraceWithCrashGetsFreshQuota: crashes inside StartTrace must
// not consume the exploration's quota.
func TestStartTraceWithCrashGetsFreshQuota(t *testing.T) {
	pr := proto.NewTnnRecoverable(3, 2, 2)
	start, _ := schedule.Parse("p1 c1")
	res, err := model.Check(pr, model.CheckOpts{
		Inputs:     []int{0, 1},
		CrashQuota: []int{0, 1},
		StartTrace: start,
	})
	if err != nil {
		t.Fatal(err)
	}
	// p1 must still be crashable once: find a node where p1 has taken a
	// step and check a crash successor exists.
	after, _ := schedule.Parse("p1 c1")
	if res.Node(after) == nil {
		t.Error("crash within quota not explored after StartTrace crash")
	}
}

// TestReachableDecisions: decision reachability from the initial node of
// a mixed-input protocol includes both values.
func TestReachableDecisions(t *testing.T) {
	pr := proto.NewCASWaitFree(2)
	res, err := model.Check(pr, model.CheckOpts{Inputs: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ds := res.ReachableDecisions(res.InitNode())
	if !ds[0] || !ds[1] {
		t.Errorf("ReachableDecisions = %v, want both values", ds)
	}
}

// TestValidateRejectsBrokenProtocols covers protocol validation.
func TestValidateRejectsBrokenProtocols(t *testing.T) {
	if err := model.Validate(&brokenProto{}); err == nil {
		t.Error("broken protocol accepted")
	}
}

type brokenProto struct{}

func (b *brokenProto) Name() string                { return "broken" }
func (b *brokenProto) Procs() int                  { return 0 } // invalid
func (b *brokenProto) Objects() []model.ObjectSpec { return nil }
func (b *brokenProto) Init(p, input int) string    { return "" }
func (b *brokenProto) Poised(p int, state string) model.Action {
	return model.Decide(0)
}
func (b *brokenProto) Next(p int, state string, resp spec.Response) string { return "" }
