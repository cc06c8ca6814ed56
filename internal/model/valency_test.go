package model_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/proto"
)

// TestBivalentInitialConfiguration reproduces Observation 1: an initial
// configuration with mixed inputs is bivalent.
func TestBivalentInitialConfiguration(t *testing.T) {
	pr := proto.NewCASWaitFree(2)
	res, err := model.Check(pr, model.CheckOpts{Inputs: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Valence(res.InitNode()); v != model.Bivalent {
		t.Errorf("initial valence = %d, want bivalent", v)
	}
}

// TestNodeHandlesBelongToTheirResult pins node-handle identity: a handle
// from Node or InitNode addresses its own Result's walk, so another
// Result — even of the same graph and options — answers ValenceNone and
// reaches no decisions from it, and a nil handle behaves the same.
func TestNodeHandlesBelongToTheirResult(t *testing.T) {
	pr := proto.NewCASWaitFree(2)
	g, err := model.NewGraph(pr, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := model.CheckOpts{Inputs: []int{0, 1}}
	a, err := g.Check(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Check(opts)
	if err != nil {
		t.Fatal(err)
	}
	if v := b.Valence(b.InitNode()); v != model.Bivalent {
		t.Fatalf("own initial valence = %d, want bivalent", v)
	}
	if len(b.ReachableDecisions(b.InitNode())) != 2 {
		t.Fatal("own initial node should reach both decisions")
	}
	if v := b.Valence(a.InitNode()); v != model.ValenceNone {
		t.Errorf("another Result's node has valence %d, want ValenceNone", v)
	}
	if d := b.ReachableDecisions(a.InitNode()); len(d) != 0 {
		t.Errorf("another Result's node reaches %v, want nothing", d)
	}
	if v := b.Valence(nil); v != model.ValenceNone {
		t.Errorf("nil handle has valence %d, want ValenceNone", v)
	}
	if d := b.ReachableDecisions(nil); len(d) != 0 {
		t.Errorf("nil handle reaches %v, want nothing", d)
	}
}

// TestUnivalentInitialConfiguration: with equal inputs, validity forces
// univalence.
func TestUnivalentInitialConfiguration(t *testing.T) {
	pr := proto.NewCASWaitFree(2)
	res, err := model.Check(pr, model.CheckOpts{Inputs: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Valence(res.InitNode()); v != model.Valence1 {
		t.Errorf("initial valence = %d, want 1-univalent", v)
	}
	if _, err := model.FindCritical(res); err == nil {
		t.Error("FindCritical should fail from a univalent initial configuration")
	}
}

// TestCriticalExecutionCAS is Experiment E6 on the CAS protocol: a critical
// execution exists, every process is poised on the same object (Lemma 9),
// both teams are nonempty (Lemma 7), and the configuration classifies as
// n-recording (CAS records the first mover forever, so the U sets are
// disjoint and the initial value is unreachable).
func TestCriticalExecutionCAS(t *testing.T) {
	for n := 2; n <= 3; n++ {
		pr := proto.NewCASWaitFree(n)
		inputs := make([]int, n)
		inputs[0] = 0
		for p := 1; p < n; p++ {
			inputs[p] = 1
		}
		res, err := model.Check(pr, model.CheckOpts{Inputs: inputs})
		if err != nil {
			t.Fatal(err)
		}
		info, err := model.FindCritical(res)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Lemma 7: both teams nonempty.
		has := [2]bool{}
		for _, team := range info.Teams {
			has[team] = true
		}
		if !has[0] || !has[1] {
			t.Errorf("n=%d: teams %v — Lemma 7 violated", n, info.Teams)
		}
		// CAS never collides and never hides: the critical configuration
		// must be n-recording.
		if info.Class != "n-recording" {
			t.Errorf("n=%d: critical configuration classified %q, want n-recording", n, info.Class)
		}
		// For the fresh CAS protocol the critical execution is empty (the
		// very first CAS decides the winner) — the initial configuration
		// is critical.
		if len(info.Trace) != 0 {
			t.Logf("n=%d: critical execution %s (non-empty is acceptable)", n, info.Trace)
		}
	}
}

// TestCriticalExecutionTnn runs the critical search on the paper's own
// wait-free protocol over T_{n,n'}: again both teams must be nonempty and
// all processes poised on the single object.
func TestCriticalExecutionTnn(t *testing.T) {
	for _, c := range []struct{ n, np int }{{2, 1}, {3, 2}, {4, 2}} {
		pr := proto.NewTnnWaitFree(c.n, c.np, c.n)
		inputs := make([]int, c.n)
		for p := range inputs {
			inputs[p] = p % 2
		}
		res, err := model.Check(pr, model.CheckOpts{Inputs: inputs})
		if err != nil {
			t.Fatal(err)
		}
		info, err := model.FindCritical(res)
		if err != nil {
			t.Fatalf("T[%d,%d]: %v", c.n, c.np, err)
		}
		if info.Object != 0 {
			t.Errorf("T[%d,%d]: poised object = %d, want 0", c.n, c.np, info.Object)
		}
		has := [2]bool{}
		for _, team := range info.Teams {
			has[team] = true
		}
		if !has[0] || !has[1] {
			t.Errorf("T[%d,%d]: teams %v — Lemma 7 violated", c.n, c.np, info.Teams)
		}
		// With n processes the full schedule drives the object to s_bot
		// regardless of which team moved first, so U_0 and U_1 intersect
		// at s_bot: the critical configuration COLLIDES. This matches the
		// record decider (T_{n,n'} is (n-1)-recording but not
		// n-recording) and is precisely why the type solves wait-free
		// consensus (collisions are disambiguated by responses) but not
		// recoverable consensus (a crashed process must re-learn the
		// winner from the value, per the paper's Theorem 13 machinery).
		if info.Class != "colliding" {
			t.Errorf("T[%d,%d]: classified %q, want colliding", c.n, c.np, info.Class)
		}
	}
}

// TestCriticalWithCrashBudget runs the critical search on the recoverable
// protocol under a crash budget, the closest engine analogue of the
// paper's E*_z-relative criticality.
func TestCriticalWithCrashBudget(t *testing.T) {
	pr := proto.NewTnnRecoverable(4, 2, 2)
	res, err := model.Check(pr, model.CheckOpts{Inputs: []int{0, 1}, CrashQuota: []int{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := model.FindCritical(res)
	if err != nil {
		t.Fatal(err)
	}
	if info.Class == "colliding" {
		t.Errorf("recoverable protocol's critical configuration collides: %+v", info)
	}
	// Replay the critical trace and confirm the configuration matches.
	replayed := model.Exec(pr, model.InitialConfig(pr, []int{0, 1}), info.Trace, []int{0, 1})
	if !replayed.Equal(info.Config) {
		t.Error("critical trace does not replay to the critical configuration")
	}
}

// TestUSetsNonEmpty sanity-checks the U sets of a critical classification:
// every nonempty schedule produces a value, so both teams' sets are
// nonempty whenever both teams exist.
func TestUSetsNonEmpty(t *testing.T) {
	pr := proto.NewCASWaitFree(2)
	res, err := model.Check(pr, model.CheckOpts{Inputs: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := model.FindCritical(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.U[0]) == 0 || len(info.U[1]) == 0 {
		t.Errorf("U sets should be nonempty: %v / %v", info.U[0], info.U[1])
	}
}
