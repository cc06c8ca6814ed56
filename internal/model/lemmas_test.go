package model_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/schedule"
)

// TestIndistinguishabilityTransfer reproduces the indistinguishability
// principle of Section 2 (citing Attiya-Ellen): if two configurations are
// indistinguishable to a process and all objects have the same values,
// the process behaves identically from both. We build two executions of
// the CAS protocol that p1 cannot distinguish and check its solo run
// decides the same value.
func TestIndistinguishabilityTransfer(t *testing.T) {
	pr := proto.NewCASRecoverable(3)
	inputs := []int{0, 1, 1}
	c0 := model.InitialConfig(pr, inputs)

	// Execution A: p0 reads, then CASes 0 (wins).
	cfgA := model.Exec(pr, c0, schedule.Steps(0, 0), inputs)
	// Execution B: p0 reads, CASes, then crashes — p1 took no steps in
	// either, and the object values match.
	sigmaB := schedule.Schedule{
		schedule.Step(0), schedule.Step(0), schedule.Crash(0),
	}
	cfgB := model.Exec(pr, c0, sigmaB, inputs)

	if !cfgA.IndistinguishableTo(cfgB, 1) {
		t.Fatal("p1 should not distinguish the configurations")
	}
	if !cfgA.SameObjectValues(cfgB) {
		t.Fatal("objects should have the same values")
	}
	// p1's solo run from both configurations must decide the same value.
	soloA := model.Exec(pr, cfgA, schedule.Steps(1, 1), inputs)
	soloB := model.Exec(pr, cfgB, schedule.Steps(1, 1), inputs)
	dA, okA := model.Decision(pr, soloA, 1)
	dB, okB := model.Decision(pr, soloB, 1)
	if !okA || !okB || dA != dB {
		t.Errorf("solo decisions differ: (%d,%v) vs (%d,%v)", dA, okA, dB, okB)
	}
}

// TestIndistinguishableSet checks the ~Q relation helper.
func TestIndistinguishableSet(t *testing.T) {
	pr := proto.NewCASWaitFree(3)
	inputs := []int{0, 1, 0}
	c0 := model.InitialConfig(pr, inputs)
	c1 := model.Exec(pr, c0, schedule.Steps(0), inputs)
	set := c0.IndistinguishableSet(c1)
	if len(set) != 2 || set[0] != 1 || set[1] != 2 {
		t.Errorf("IndistinguishableSet = %v, want [1 2]", set)
	}
}

// TestObservation2UnivalencePersists: once an execution is v-univalent,
// every extension is v-univalent (valence can only shrink along edges).
func TestObservation2UnivalencePersists(t *testing.T) {
	pr := proto.NewTnnRecoverable(4, 2, 2)
	inputs := []int{0, 1}
	res, err := model.Check(pr, model.CheckOpts{Inputs: inputs, CrashQuota: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Walk a few schedules; whenever a node is univalent, check every
	// successor reachable by one more event keeps the same valence.
	for _, sigma := range []string{"p0", "p0 p1", "p0 p0", "p1 c1 p1", "p0 p1 c1"} {
		s, err := schedule.Parse(sigma)
		if err != nil {
			t.Fatal(err)
		}
		nd := res.Node(s)
		if nd == nil {
			continue
		}
		v := res.Valence(nd)
		if v != model.Valence0 && v != model.Valence1 {
			continue
		}
		for _, ext := range []string{"p0", "p1", "c1"} {
			e, _ := schedule.Parse(ext)
			child := res.Node(s.Concat(e))
			if child == nil {
				continue
			}
			if cv := res.Valence(child); cv != v && cv != 0 {
				t.Errorf("univalence not preserved: [%s] valence %d, [%s %s] valence %d",
					sigma, v, sigma, ext, cv)
			}
		}
	}
}

// TestObservation5UnivalenceTransfers: two explored nodes with identical
// configurations (same states, same object values) have the same valence
// even when reached by different executions with the same crash usage.
func TestObservation5UnivalenceTransfers(t *testing.T) {
	pr := proto.NewCASWaitFree(3)
	inputs := []int{0, 1, 1}
	res, err := model.Check(pr, model.CheckOpts{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	// p1 and p2 both have input 1; the configurations after "p1 p2" and
	// "p2 p1" differ (different processes won), but after "p0 p1 p2" and
	// "p0 p2 p1" the CAS is already decided by p0, so the configurations
	// coincide and so must the valences.
	a, _ := schedule.Parse("p0 p1 p2")
	b, _ := schedule.Parse("p0 p2 p1")
	na, nb := res.Node(a), res.Node(b)
	if na == nil || nb == nil {
		t.Fatal("nodes not explored")
	}
	if !res.NodeConfig(na).Equal(res.NodeConfig(nb)) {
		t.Fatal("configurations should coincide")
	}
	if res.Valence(na) != res.Valence(nb) {
		t.Error("valences differ for identical configurations")
	}
}

// TestLemma8CriticalConfigBivalent: the configuration at the end of a
// critical execution is itself bivalent with respect to executions from
// it (Lemma 8) — engine-level: the critical node's valence is Bivalent.
func TestLemma8CriticalConfigBivalent(t *testing.T) {
	pr := proto.NewCASWaitFree(2)
	res, err := model.Check(pr, model.CheckOpts{Inputs: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := model.FindCritical(res)
	if err != nil {
		t.Fatal(err)
	}
	nd := res.Node(info.Trace)
	if nd == nil {
		t.Fatal("critical node not found by schedule lookup")
	}
	if res.Valence(nd) != model.Bivalent {
		t.Error("critical configuration must be bivalent (Lemma 8)")
	}
}

// TestLemma10ValueCollisionStructure inspects a colliding critical
// configuration (T_{n,n'} wait-free at n processes): per Lemma 10's
// contrapositive setup, there exist schedules from both teams driving the
// object to the same value — here s_bot, reached by full schedules.
func TestLemma10ValueCollisionStructure(t *testing.T) {
	pr := proto.NewTnnWaitFree(3, 2, 3)
	inputs := []int{0, 1, 1}
	res, err := model.Check(pr, model.CheckOpts{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	info, err := model.FindCritical(res)
	if err != nil {
		t.Fatal(err)
	}
	if info.Class != "colliding" {
		t.Fatalf("expected colliding class, got %s", info.Class)
	}
	// The collision value must be in both U sets.
	found := false
	for v := range info.U[0] {
		if info.U[1][v] {
			found = true
		}
	}
	if !found {
		t.Error("colliding classification without a shared U value")
	}
}

// TestExecMatchesStepByStep: Exec is the fold of Step/CrashProc.
func TestExecMatchesStepByStep(t *testing.T) {
	pr := proto.NewTnnRecoverable(3, 1, 2)
	inputs := []int{1, 0}
	sigma, _ := schedule.Parse("p0 p1 c1 p1 p0 p1")
	byExec := model.Exec(pr, model.InitialConfig(pr, inputs), sigma, inputs)
	cfg := model.InitialConfig(pr, inputs)
	for _, e := range sigma {
		if e.Crash {
			cfg = model.CrashProc(pr, cfg, e.P, inputs[e.P])
		} else {
			cfg = model.Step(pr, cfg, e.P)
		}
	}
	if !byExec.Equal(cfg) {
		t.Error("Exec disagrees with manual folding")
	}
}
