package discern

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/spec"
)

// randomType builds a random deterministic readable type with v values
// and m mutating operations plus a Read, with distinct responses per
// (value, op) pair.
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

// TestMonotonicityOnRandomTypes: for random types, n-discerning implies
// (n-1)-discerning for n >= 3 (drop a process from the larger team).
func TestMonotonicityOnRandomTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 60; i++ {
		ft := randomType(rng, 3+rng.Intn(3), 2)
		for n := 3; n <= 4; n++ {
			okN, _ := IsNDiscerning(ft, n)
			okN1, _ := IsNDiscerning(ft, n-1)
			if okN && !okN1 {
				t.Fatalf("type %d: %d-discerning but not %d-discerning:\n%s",
					i, n, n-1, ft.TransitionTable())
			}
		}
	}
}

// TestPrefixSharingAblationAgrees: a scan that re-simulates every
// schedule must find the reference's verdict and witness on random types.
func TestPrefixSharingAblationAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		ft := randomType(rng, 3+rng.Intn(2), 2)
		for n := 2; n <= 3; n++ {
			a, w := IsNDiscerning(ft, n)
			noShare := serialScan(ft, n, noShareCheck(ft, n))
			if a != (noShare != nil) || !reflect.DeepEqual(w, noShare) {
				t.Fatalf("type %d n=%d: shared=(%v, %v) noshare=%v", i, n, a, w, noShare)
			}
		}
	}
}

// TestWitnessesAlwaysVerify: every witness produced on random types
// passes the brute-force check.
func TestWitnessesAlwaysVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	found := 0
	for i := 0; i < 80 && found < 25; i++ {
		ft := randomType(rng, 4, 2)
		if ok, w := IsNDiscerning(ft, 3); ok {
			found++
			verifyWitness(t, ft, w)
		}
	}
	if found == 0 {
		t.Skip("no 3-discerning random types in the sample")
	}
}
