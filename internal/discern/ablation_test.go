package discern

import (
	"testing"

	"repro/internal/spec"
	"repro/internal/types"
)

// The two ablations of the reference search live here, beside the tests
// and benchmarks that use them: searchNaive drops the symmetry reduction
// over operation assignments, and checkAssignmentNoShare drops the
// shared-prefix DFS over S(P).

// searchNaive is the reference search without its symmetry reduction: it
// decides every one of the numOps^n operation assignments with
// checkAssignment, in lexicographic order, and returns the first witness.
func searchNaive(t *spec.FiniteType, n int) *Witness {
	m := t.NumOps()
	ops := make([]spec.Op, n)
	for {
		if w := checkAssignment(t, n, ops); w != nil {
			return w
		}
		i := n - 1
		for ; i >= 0 && int(ops[i]) == m-1; i-- {
			ops[i] = 0
		}
		if i < 0 {
			return nil
		}
		ops[i]++
	}
}

// noShareCheck is the per-assignment check of the no-share ablation.
func noShareCheck(t *spec.FiniteType, n int) func([]spec.Op) *Witness {
	return func(ops []spec.Op) *Witness { return checkAssignmentNoShare(t, n, ops) }
}

// checkAssignmentNoShare is checkAssignment with observationsNoShare in
// place of observations: the same witness, found by re-simulating every
// schedule.
func checkAssignmentNoShare(t *spec.FiniteType, n int, ops []spec.Op) *Witness {
	for u := 0; u < t.NumValues(); u++ {
		if teams := colorObservations(n, observationsNoShare(t, n, ops, spec.Value(u))); teams != nil {
			return &Witness{N: n, U: spec.Value(u), Teams: teams, Ops: append([]spec.Op(nil), ops...)}
		}
	}
	return nil
}

// observationsNoShare is the ablation variant of observations: it
// enumerates the schedules identically but re-simulates each schedule
// from u in full instead of sharing prefix values.
func observationsNoShare(t *spec.FiniteType, n int, ops []spec.Op, u spec.Value) map[pairKey]uint32 {
	firstMask := make(map[pairKey]uint32)
	inSched := make([]bool, n)
	order := make([]int, 0, n)
	record := func() {
		// Full re-simulation of the current schedule.
		val := u
		resps := make([]spec.Response, len(order))
		for i, p := range order {
			e := t.Apply(val, ops[p])
			resps[i] = e.Resp
			val = e.Next
		}
		bit := uint32(1) << uint(order[0])
		for i, j := range order {
			firstMask[pairKey{j: j, resp: resps[i], val: val}] |= bit
		}
	}
	var rec func()
	rec = func() {
		if len(order) > 0 {
			record()
		}
		for p := 0; p < n; p++ {
			if inSched[p] {
				continue
			}
			inSched[p] = true
			order = append(order, p)
			rec()
			order = order[:len(order)-1]
			inSched[p] = false
		}
	}
	rec()
	return firstMask
}

// BenchmarkAblationDiscernNaive compares the naive operation-assignment
// enumeration against the symmetry-reduced reference. T_{4,2} is not
// 5-discerning, so both scan their whole space (at n = 4 an early
// assignment is a witness, and both would stop after two).
func BenchmarkAblationDiscernNaive(b *testing.B) {
	ft := types.Tnn(4, 2)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			searchNaive(ft, 5)
		}
	})
	b.Run("reduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			IsNDiscerning(ft, 5)
		}
	})
}

// BenchmarkAblationPrefixSharing measures the reference's shared-prefix
// DFS against full per-schedule re-simulation, both on one serial scan
// of the symmetry-reduced space.
func BenchmarkAblationPrefixSharing(b *testing.B) {
	ft := types.XFour()
	b.Run("discern-shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serialScan(ft, 4, referenceCheck(ft, 4))
		}
	})
	b.Run("discern-noshare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serialScan(ft, 4, noShareCheck(ft, 4))
		}
	})
}
