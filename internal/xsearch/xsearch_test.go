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
// the search predicate.
func TestXFourHasSignature(t *testing.T) {
	if !HasX4Signature(types.XFour()) {
		t.Error("frozen XFour lost the X_4 signature")
	}
	if !HasXSignature(types.XFour(), 4) {
		t.Error("generalized signature check disagrees")
	}
}

// TestNegativeSignatures checks the predicate rejects types that fail each
// leg of the signature.
func TestNegativeSignatures(t *testing.T) {
	if HasX4Signature(types.Queue(2)) {
		t.Error("non-readable queue must be rejected")
	}
	if HasX4Signature(types.CompareAndSwap(2)) {
		t.Error("CAS is 3-recording, must be rejected")
	}
	if HasX4Signature(types.TestAndSet()) {
		t.Error("TAS is not 2-recording, must be rejected")
	}
	if HasX4Signature(types.Register(3)) {
		t.Error("registers are not 4-discerning, must be rejected")
	}
}

// TestSignatureMatchesReference runs the signature check, which goes
// through the production level decider, against the same three legs
// decided by the recursive reference deciders over a seed window, and
// checks it refuses n above the decider's cap with decider.CheckN's
// error before any work.
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
		got, err := HasXSignatureShardedCtx(context.Background(), ft, 4, 2)
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
	_, err := HasXSignatureShardedCtx(context.Background(), types.XFour(), decider.BitsetMaxN+1, 1)
	if want := decider.CheckN(decider.BitsetMaxN + 1); err == nil || err.Error() != want.Error() {
		t.Fatalf("n above the cap: error %v, want %v", err, want)
	}
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
	found := Search(4, 1990, 10, []int{5}, 0, nil)
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

// spec2/op2 are tiny readability helpers for index conversions.
func spec2(v int) (out specValue) { return specValue(v) }
func op2(o int) (out specOp)      { return specOp(o) }
