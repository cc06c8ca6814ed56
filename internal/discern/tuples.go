package discern

import (
	"math"

	"repro/internal/spec"
)

// TupleSpace is the operation-assignment enumeration of one level check in
// rank-addressable form: the non-decreasing length-n tuples over the
// operation set, the symmetry-reduced space the deciders scan. Ranks
// follow lexicographic order, which is exactly the order the serial
// recursive enumeration in IsNDiscerningCtx / IsNRecordingCtx visits
// assignments — that shared order is what lets a sharded scan reproduce
// the serial result bit for bit (the lowest-ranked witnessing assignment
// wins either way).
//
// The zero value is not meaningful; construct with NewTupleSpace.
type TupleSpace struct {
	m, n int
}

// NewTupleSpace describes the assignment space for n processes over a
// type with numOps operations: the C(numOps+n-1, n) non-decreasing
// tuples.
func NewTupleSpace(numOps, n int) TupleSpace {
	return TupleSpace{m: numOps, n: n}
}

// Count returns the number of assignments in the space, saturating at
// math.MaxInt64 for spaces too large to count (which are far too large to
// enumerate anyway).
func (s TupleSpace) Count() int64 {
	return binom(s.m+s.n-1, s.n)
}

// Unrank writes the assignment with lexicographic rank r into out, which
// must have length n. r must be in [0, Count()).
func (s TupleSpace) Unrank(r int64, out []spec.Op) {
	// Walk positions left to right; at position i with running minimum v
	// (tuples are non-decreasing, so out[i] >= out[i-1]), the block of
	// tuples fixing out[i]=v has size C(m-v+n-i-2, n-i-1): the remaining
	// n-i-1 positions range non-decreasingly over [v, m).
	v := 0
	for i := 0; i < s.n; i++ {
		for {
			c := binom(s.m-v+s.n-i-2, s.n-i-1)
			if r < c {
				break
			}
			r -= c
			v++
		}
		out[i] = spec.Op(v)
	}
}

// Rank returns the lexicographic rank of the non-decreasing tuple t, the
// inverse of Unrank.
func (s TupleSpace) Rank(t []spec.Op) int64 {
	r := int64(0)
	v := 0
	for i := 0; i < s.n; i++ {
		for ; v < int(t[i]); v++ {
			r += binom(s.m-v+s.n-i-2, s.n-i-1)
		}
	}
	return r
}

// Next advances t to its lexicographic successor in place, returning
// false (and leaving t past the last tuple) when t was the final tuple.
func (s TupleSpace) Next(t []spec.Op) bool {
	for i := s.n - 1; i >= 0; i-- {
		if int(t[i]) < s.m-1 {
			v := t[i] + 1
			for j := i; j < s.n; j++ {
				t[j] = v
			}
			return true
		}
	}
	return false
}

// binom computes C(a, b), saturating at math.MaxInt64.
func binom(a, b int) int64 {
	if b < 0 || b > a {
		return 0
	}
	if b > a-b {
		b = a - b
	}
	r := int64(1)
	for i := 1; i <= b; i++ {
		// The running product stays integral: after this step r equals
		// C(a-b+i, i).
		f := int64(a - b + i)
		if r > math.MaxInt64/f {
			return math.MaxInt64
		}
		r = r * f / int64(i)
	}
	return r
}
