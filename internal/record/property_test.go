package record

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/spec"
)

// randomType builds a random deterministic readable type (distinct
// responses per (value, op) pair; responses are irrelevant to recording).
func randomType(rng *rand.Rand, v, m int) *spec.FiniteType {
	b := spec.NewBuilder("random")
	names := make([]string, v)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	b.Values(names...)
	resp := spec.Response(0)
	for o := 0; o < m; o++ {
		opName := string(rune('A' + o))
		b.Ops(opName)
		for val := 0; val < v; val++ {
			b.Transition(names[val], opName, resp, names[rng.Intn(v)])
			resp++
		}
	}
	b.Ops("read")
	b.ReadOp("read", 1000)
	return b.MustBuild()
}

// TestMonotonicityOnRandomTypes: n-recording implies (n-1)-recording for
// n >= 3 (drop a process from the team with more than one member; the
// U sets only shrink and the singleton side condition is preserved).
func TestMonotonicityOnRandomTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	for i := 0; i < 60; i++ {
		ft := randomType(rng, 3+rng.Intn(3), 2)
		for n := 3; n <= 4; n++ {
			okN, _ := IsNRecording(ft, n)
			okN1, _ := IsNRecording(ft, n-1)
			if okN && !okN1 {
				t.Fatalf("type %d: %d-recording but not %d-recording:\n%s",
					i, n, n-1, ft.TransitionTable())
			}
		}
	}
}

// TestPrefixSharingAblationAgrees: a scan that re-simulates every
// schedule must find the reference's verdict and witness on random types.
func TestPrefixSharingAblationAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 40; i++ {
		ft := randomType(rng, 3+rng.Intn(2), 2)
		for n := 2; n <= 3; n++ {
			a, w := IsNRecording(ft, n)
			noShare := serialScan(ft, n, noShareCheck(ft, n))
			if a != (noShare != nil) || !reflect.DeepEqual(w, noShare) {
				t.Fatalf("type %d n=%d: shared=(%v, %v) noshare=%v", i, n, a, w, noShare)
			}
		}
	}
}

// TestRecordingImpliesDiscerningNot: recording and discerning are
// genuinely different properties — exhibit random types where they
// diverge, and verify every produced witness.
func TestWitnessesAlwaysVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	found := 0
	for i := 0; i < 100 && found < 25; i++ {
		ft := randomType(rng, 4, 2)
		if ok, w := IsNRecording(ft, 3); ok {
			found++
			verifyWitness(t, ft, w)
		}
	}
	if found == 0 {
		t.Skip("no 3-recording random types in the sample")
	}
}
