package discern

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/spec"
)

// enumerateSerial reproduces the deciders' recursive enumeration order:
// lexicographic over non-decreasing tuples (or all tuples in naive mode).
func enumerateSerial(m, n int, naive bool) [][]spec.Op {
	var out [][]spec.Op
	ops := make([]spec.Op, n)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == n {
			out = append(out, append([]spec.Op(nil), ops...))
			return
		}
		start := spec.Op(0)
		if !naive && pos > 0 {
			start = ops[pos-1]
		}
		for o := start; int(o) < m; o++ {
			ops[pos] = o
			rec(pos + 1)
		}
	}
	rec(0)
	return out
}

// TestTupleSpaceMatchesSerialOrder pins the space's rank order to the
// serial recursion order for a grid of (m, n): Count matches the
// enumeration size, Unrank(i) is the i-th serially enumerated tuple,
// Rank inverts Unrank, and Next steps through the same sequence. The
// naive=true cases take the expected order from the naive enumeration of
// all m^n tuples instead, keeping only its non-decreasing tuples: the
// symmetry reduction keeps one tuple per multiset, in the naive order.
func TestTupleSpaceMatchesSerialOrder(t *testing.T) {
	for _, naive := range []bool{false, true} {
		for m := 1; m <= 5; m++ {
			for n := 2; n <= 5; n++ {
				t.Run(fmt.Sprintf("m=%d/n=%d/naive=%v", m, n, naive), func(t *testing.T) {
					want := enumerateSerial(m, n, naive)
					if naive {
						want = slices.DeleteFunc(want, func(ops []spec.Op) bool {
							return !slices.IsSorted(ops)
						})
					}
					space := NewTupleSpace(m, n)
					if got := space.Count(); got != int64(len(want)) {
						t.Fatalf("Count=%d, want %d", got, len(want))
					}
					cur := make([]spec.Op, n)
					space.Unrank(0, cur)
					ops := make([]spec.Op, n)
					for i, w := range want {
						space.Unrank(int64(i), ops)
						if !equalOps(ops, w) {
							t.Fatalf("Unrank(%d)=%v, want %v", i, ops, w)
						}
						if r := space.Rank(ops); r != int64(i) {
							t.Fatalf("Rank(%v)=%d, want %d", ops, r, i)
						}
						if !equalOps(cur, w) {
							t.Fatalf("Next-walk[%d]=%v, want %v", i, cur, w)
						}
						if space.Next(cur) != (i < len(want)-1) {
							t.Fatalf("Next at %d/%d returned wrong continuation", i, len(want))
						}
					}
				})
			}
		}
	}
}

// TestTupleSpaceSaturation: oversized spaces saturate instead of
// overflowing.
func TestTupleSpaceSaturation(t *testing.T) {
	if got := NewTupleSpace(1000, 40).Count(); got != math.MaxInt64 {
		t.Errorf("huge space: Count=%d, want saturation", got)
	}
	if got := NewTupleSpace(0, 3).Count(); got != 0 {
		t.Errorf("empty op set: Count=%d, want 0", got)
	}
}

func equalOps(a, b []spec.Op) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
