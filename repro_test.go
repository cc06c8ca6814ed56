package repro

import (
	"strings"
	"testing"

	"repro/internal/proto"
)

// facadeProtocol returns a small recoverable protocol for facade tests.
func facadeProtocol() Protocol { return proto.NewCASRecoverable(2) }

// TestFacadeAnalyze exercises the re-exported analysis path end to end.
func TestFacadeAnalyze(t *testing.T) {
	a, err := Analyze(TestAndSet(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.ConsensusNumber != 2 || a.RecoverableConsensusNumber != 1 {
		t.Errorf("TAS analysis: cons=%d rcons=%d, want 2/1",
			a.ConsensusNumber, a.RecoverableConsensusNumber)
	}
}

// TestFacadeDeciders exercises the engine's single-level deciders
// through the facade.
func TestFacadeDeciders(t *testing.T) {
	eng := New()
	if ok, w, err := eng.Discerning(TestAndSet(), 2); err != nil || !ok || w == nil {
		t.Errorf("TAS should be 2-discerning with a witness (err %v)", err)
	}
	if ok, _, err := eng.Recording(TestAndSet(), 2); err != nil || ok {
		t.Errorf("TAS should not be 2-recording (err %v)", err)
	}
}

// TestFacadeCustomType builds a type through the facade builder and
// analyzes it.
func TestFacadeCustomType(t *testing.T) {
	b := NewType("mini-sticky")
	b.Values("bot", "0", "1")
	b.Ops("set0", "set1", "read")
	b.Transition("bot", "set0", 0, "0")
	b.Transition("bot", "set1", 1, "1")
	for _, v := range []string{"0", "1"} {
		r := 0
		if v == "1" {
			r = 1
		}
		b.Transition(v, "set0", Response(r), v)
		b.Transition(v, "set1", Response(r), v)
	}
	b.ReadOp("read", 100)
	ft, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(ft, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.ConsensusNumber != Unbounded {
		t.Errorf("sticky bit should be unbounded at maxN=4, got %d", a.ConsensusNumber)
	}
}

// TestFacadeModelChecking drives the checker and the Theorem 13 chain
// through the facade.
func TestFacadeModelChecking(t *testing.T) {
	pr := facadeProtocol()
	res, err := CheckProtocol(pr, []int{0, 1}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("CAS recoverable should check clean: %v", res.Violations)
	}
	if _, err := FindCritical(res); err != nil {
		t.Fatalf("FindCritical: %v", err)
	}
	chain, err := Theorem13Chain(pr, []int{0, 1}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !chain.Recording {
		t.Error("chain should reach an n-recording configuration")
	}
}

// TestFacadeEngine drives the option-driven Engine API end to end
// through the public facade: options, Resolve, Analyze vs the deprecated
// serial wrapper, Check and Theorem13.
func TestFacadeEngine(t *testing.T) {
	var events []Event
	eng := New(
		WithParallelism(2),
		WithMaxN(4),
		WithCache(NewCache()),
		WithProgress(func(ev Event) { events = append(events, ev) }),
	)
	ft, err := eng.Resolve("tnn:4,2")
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Analyze(ft)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(Tnn(4, 2), 4) // deprecated serial path
	if err != nil {
		t.Fatal(err)
	}
	if got.ConsensusNumber != want.ConsensusNumber ||
		got.RecoverableConsensusNumber != want.RecoverableConsensusNumber {
		t.Errorf("engine cons/rcons = %d/%d, serial facade %d/%d",
			got.ConsensusNumber, got.RecoverableConsensusNumber,
			want.ConsensusNumber, want.RecoverableConsensusNumber)
	}
	if len(events) == 0 {
		t.Error("no progress events emitted")
	}

	res, err := eng.Check(facadeProtocol(), CheckRequest{Inputs: []int{0, 1}, CrashQuota: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("engine Check: %v", res.Violations)
	}
	chain, err := eng.Theorem13(facadeProtocol(), CheckRequest{Inputs: []int{0, 1}, CrashQuota: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !chain.Recording {
		t.Error("engine Theorem13 chain should reach n-recording")
	}
}

// TestFacadeResolveErrorListsNames pins the registry error contract at
// the facade level.
func TestFacadeResolveErrorListsNames(t *testing.T) {
	_, err := Resolve("zzz")
	if err == nil {
		t.Fatal("unknown descriptor should fail")
	}
	for _, name := range []string{"tas", "x5", "trivial"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error should list %q: %v", name, err)
		}
	}
	if _, err := Resolve("trivial"); err != nil {
		t.Errorf("trivial should resolve (facade exports Trivial too): %v", err)
	}
}

// TestFacadeZoo spot-checks the re-exported constructors.
func TestFacadeZoo(t *testing.T) {
	for name, ft := range map[string]*Type{
		"tnn":    Tnn(4, 2),
		"y4":     TnnReadable(4),
		"x4":     XFour(),
		"x5":     XFive(),
		"reg":    Register(2),
		"swap":   Swap(2),
		"faa":    FetchAdd(3),
		"cas":    CompareAndSwap(2),
		"sticky": StickyBit(),
		"queue":  Queue(2),
		"cnt":    Counter(3),
		"maxreg": MaxRegister(3),
		"prod":   Product(TestAndSet(), Register(2)),
		"triv":   Trivial(),
		"stack":  Stack(2),
		"peekq":  PeekQueue(2),
	} {
		if err := ft.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
