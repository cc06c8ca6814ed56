package xsearch

import (
	"context"
	"testing"

	"repro/internal/decider"
	"repro/internal/discern"
	"repro/internal/record"
	"repro/internal/spec"
	"repro/internal/types"
)

type (
	specValue = spec.Value
	specOp    = spec.Op
)

// TestFrozenSeedReproduces checks that the frozen XFour type in
// internal/types matches the sampled candidate it was extracted from, so
// the provenance documented in its constructor stays accurate.
func TestFrozenSeedReproduces(t *testing.T) {
	sampled := Sample(1994, 5)
	frozen := types.XFour()
	if sampled.NumValues() != frozen.NumValues() || sampled.NumOps() != frozen.NumOps() {
		t.Fatalf("shape mismatch: sampled %dx%d vs frozen %dx%d",
			sampled.NumValues(), sampled.NumOps(), frozen.NumValues(), frozen.NumOps())
	}
	for v := 0; v < sampled.NumValues(); v++ {
		for o := 0; o < sampled.NumOps(); o++ {
			if sampled.Apply(spec2(v), op2(o)) != frozen.Apply(spec2(v), op2(o)) {
				t.Errorf("transition (%d,%d) differs between sampled and frozen", v, o)
			}
		}
	}
}

// TestXFourHasSignature re-verifies the frozen type's signature through
// the search predicate, serial and sharded.
func TestXFourHasSignature(t *testing.T) {
	if !HasXSignature(types.XFour(), 4) {
		t.Error("frozen XFour lost the X_4 signature")
	}
	if ok, err := HasXSignatureDecider(shardedDecider(2), types.XFour(), 4); err != nil || !ok {
		t.Errorf("sharded signature check = (%v, %v), want (true, nil)", ok, err)
	}
}

// TestNegativeSignatures checks the predicate rejects types that fail each
// leg of the signature.
func TestNegativeSignatures(t *testing.T) {
	if HasXSignature(types.Queue(2), 4) {
		t.Error("non-readable queue must be rejected")
	}
	if HasXSignature(types.CompareAndSwap(2), 4) {
		t.Error("CAS is 3-recording, must be rejected")
	}
	if HasXSignature(types.TestAndSet(), 4) {
		t.Error("TAS is not 2-recording, must be rejected")
	}
	if HasXSignature(types.Register(3), 4) {
		t.Error("registers are not 4-discerning, must be rejected")
	}
}

// TestSignatureMatchesReference runs the signature check through the
// production level decider at two shards against the same three legs
// decided by the recursive reference deciders over a seed window, and
// checks it refuses n above the decider's cap with decider.CheckN's
// error before any level check runs.
func TestSignatureMatchesReference(t *testing.T) {
	reference := func(ft *spec.FiniteType, n int) bool {
		if !ft.Readable() {
			return false
		}
		if ok, _ := record.IsNRecording(ft, n-1); ok {
			return false
		}
		if ok, _ := record.IsNRecording(ft, n-2); !ok {
			return false
		}
		ok, _ := discern.IsNDiscerning(ft, n)
		return ok
	}
	hits := 0
	for seed := int64(1990); seed < 2000; seed++ {
		ft := Sample(seed, 5)
		got, err := HasXSignatureDecider(shardedDecider(2), ft, 4)
		if err != nil {
			t.Fatal(err)
		}
		if want := reference(ft, 4); got != want {
			t.Errorf("seed %d: signature %v, reference %v", seed, got, want)
		}
		if got {
			hits++
		}
	}
	if hits == 0 {
		t.Error("the seed window holds the frozen X_4 seed; expected a hit")
	}
	_, err := HasXSignatureDecider(refusingDecider{t}, types.XFour(), decider.BitsetMaxN+1)
	if want := decider.CheckN(decider.BitsetMaxN + 1); err == nil || err.Error() != want.Error() {
		t.Fatalf("n above the cap: error %v, want %v", err, want)
	}
}

// shardedDecider is the production level decider at a fixed shard count.
type shardedDecider int

func (s shardedDecider) Discerning(t *spec.FiniteType, n int) (bool, *discern.Witness, error) {
	return decider.IsNDiscerning(context.Background(), t, n, int(s), nil)
}

func (s shardedDecider) Recording(t *spec.FiniteType, n int) (bool, *record.Witness, error) {
	return decider.IsNRecording(context.Background(), t, n, int(s), nil)
}

// refusingDecider fails its test if any level check reaches it.
type refusingDecider struct{ t *testing.T }

func (d refusingDecider) Discerning(_ *spec.FiniteType, n int) (bool, *discern.Witness, error) {
	d.t.Errorf("discerning level n=%d ran", n)
	return false, nil, nil
}

func (d refusingDecider) Recording(_ *spec.FiniteType, n int) (bool, *record.Witness, error) {
	d.t.Errorf("recording level n=%d ran", n)
	return false, nil, nil
}

func TestSignaturePanicsBelow4(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=3")
		}
	}()
	HasXSignature(types.XFour(), 3)
}

// TestSearchFindsFrozenSeed runs the seed window that contains the frozen
// candidate and checks the search rediscovers it.
func TestSearchFindsFrozenSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("search is a few seconds")
	}
	found, err := SearchDecider(context.Background(), serialDecider{}, 4, 1990, 10, []int{5}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	for _, c := range found {
		if c.Seed == 1994 && c.NumValues == 5 {
			ok = true
		}
	}
	if !ok {
		t.Error("search over seeds [1990,2000) did not rediscover seed 1994")
	}
}

// TestSearchDeciderErrors: a signature-check error that is not the
// context's stops the sweep and is returned (n above the decider's cap
// fails with decider.CheckN's error and no candidate), while a context
// canceled mid-check returns the candidates found so far and no error.
func TestSearchDeciderErrors(t *testing.T) {
	n := decider.BitsetMaxN + 1
	found, err := SearchDecider(context.Background(), refusingDecider{t}, n, 1, 3, []int{5}, 0, nil)
	if want := decider.CheckN(n); err == nil || err.Error() != want.Error() || len(found) != 0 {
		t.Fatalf("n=%d: (%d candidates, %v), want (0, %v)", n, len(found), err, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := &cancelingDecider{ctx: ctx, cancel: cancel, cancelAt: 7}
	found, err = SearchDecider(ctx, d, 4, 1, 100, []int{5}, 0, nil)
	if err != nil || len(found) != 2 {
		t.Fatalf("canceled on the third check: (%d candidates, %v), want (2, nil)", len(found), err)
	}
}

// cancelingDecider answers every level the way the X_4 signature needs
// (2-recording, not 3-recording, 4-discerning) until its cancelAt-th
// call, which cancels ctx; from then on it fails with the context's
// error, as an engine does. Each readable candidate costs three calls.
type cancelingDecider struct {
	ctx             context.Context
	cancel          context.CancelFunc
	calls, cancelAt int
}

func (d *cancelingDecider) call() error {
	if d.calls++; d.calls == d.cancelAt {
		d.cancel()
	}
	return d.ctx.Err()
}

func (d *cancelingDecider) Discerning(*spec.FiniteType, int) (bool, *discern.Witness, error) {
	return true, nil, d.call()
}

func (d *cancelingDecider) Recording(_ *spec.FiniteType, n int) (bool, *record.Witness, error) {
	return n == 2, nil, d.call()
}

// spec2/op2 are tiny readability helpers for index conversions.
func spec2(v int) (out specValue) { return specValue(v) }
func op2(o int) (out specOp)      { return specOp(o) }
