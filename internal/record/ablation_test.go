package record

import (
	"testing"

	"repro/internal/spec"
	"repro/internal/types"
	"repro/internal/uf"
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

// checkAssignmentNoShare is checkAssignment with finalValuesNoShare in
// place of finalValues: the same witness, found by re-simulating every
// schedule.
func checkAssignmentNoShare(t *spec.FiniteType, n int, ops []spec.Op) *Witness {
	for u := 0; u < t.NumValues(); u++ {
		firstMask := finalValuesNoShare(t, n, ops, spec.Value(u))
		if teams := ColorFinal(uf.New(n), firstMask, spec.Value(u)); teams != nil {
			return &Witness{N: n, U: spec.Value(u), Teams: teams, Ops: append([]spec.Op(nil), ops...)}
		}
	}
	return nil
}

// finalValuesNoShare is the ablation variant of finalValues: every
// schedule is re-simulated from u in full.
func finalValuesNoShare(t *spec.FiniteType, n int, ops []spec.Op, u spec.Value) []uint32 {
	firstMask := make([]uint32, t.NumValues())
	inSched := make([]bool, n)
	order := make([]int, 0, n)
	var rec func()
	rec = func() {
		if len(order) > 0 {
			val := u
			for _, p := range order {
				val = t.Apply(val, ops[p]).Next
			}
			firstMask[val] |= uint32(1) << uint(order[0])
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

// BenchmarkAblationRecordNaive compares the naive operation-assignment
// enumeration against the symmetry-reduced reference.
func BenchmarkAblationRecordNaive(b *testing.B) {
	ft := types.Tnn(4, 2)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			searchNaive(ft, 4)
		}
	})
	b.Run("reduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			IsNRecording(ft, 4)
		}
	})
}

// BenchmarkAblationPrefixSharing measures the reference's shared-prefix
// DFS against full per-schedule re-simulation, both on one serial scan
// of the symmetry-reduced space.
func BenchmarkAblationPrefixSharing(b *testing.B) {
	ft := types.XFour()
	b.Run("record-shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serialScan(ft, 3, referenceCheck(ft, 3))
		}
	})
	b.Run("record-noshare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serialScan(ft, 3, noShareCheck(ft, 3))
		}
	})
}
