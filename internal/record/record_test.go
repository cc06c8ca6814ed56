package record

import (
	"testing"

	"repro/internal/spec"
	"repro/internal/types"
)

// TestKnownRecordingFacts checks the decider against the facts the paper
// and its predecessors establish:
//
//   - Golab: test-and-set (consensus number 2) cannot solve recoverable
//     consensus for 2 processes; by Theorem 13 it must not be 2-recording.
//   - CAS and sticky bits record the first mover in their value forever,
//     so they are n-recording for every n.
//   - Registers are not 2-recording (they are not even 2-discerning).
func TestKnownRecordingFacts(t *testing.T) {
	tests := []struct {
		name string
		ft   *spec.FiniteType
		n    int
		want bool
	}{
		{"tas not 2-recording (Golab)", types.TestAndSet(), 2, false},
		{"tas not 3-recording", types.TestAndSet(), 3, false},
		{"register not 2-recording", types.Register(2), 2, false},
		{"register3 not 2-recording", types.Register(3), 2, false},
		{"cas 2-recording", types.CompareAndSwap(2), 2, true},
		{"cas 3-recording", types.CompareAndSwap(2), 3, true},
		{"cas 4-recording", types.CompareAndSwap(2), 4, true},
		{"sticky 2-recording", types.StickyBit(), 2, true},
		{"sticky 4-recording", types.StickyBit(), 4, true},
		{"counter not 2-recording", types.Counter(4), 2, false},
		{"maxreg not 2-recording", types.MaxRegister(3), 2, false},
		{"trivial not 2-recording", types.Trivial(), 2, false},
		// Swap: the value records only the LAST writer, so the first
		// team is forgotten: not 2-recording.
		{"swap not 2-recording", types.Swap(3), 2, false},
		// Fetch-and-add: with one process per team applying FAA from 0,
		// the final value counts appliers but forgets order: not
		// 2-recording... except the paper's definition allows u in U_x
		// with a singleton opposite team. FAA values depend only on the
		// number of appliers, which is team-independent for schedules
		// longer than 1, so U_0 and U_1 intersect: not 2-recording.
		{"faa not 2-recording", types.FetchAdd(8), 2, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, w := IsNRecording(tc.ft, tc.n)
			if got != tc.want {
				t.Errorf("IsNRecording(%s, %d) = %v, want %v", tc.ft.Name(), tc.n, got, tc.want)
			}
			if got && w == nil {
				t.Error("positive result must come with a witness")
			}
			if got {
				verifyWitness(t, tc.ft, w)
			}
		})
	}
}

// TestTnnRecording documents the recording spectrum of T_{n,n'}. Theorem 13
// plus Lemma 16 imply T_{n,n'} is n'-recording for n' >= 2 (it solves
// recoverable consensus among n' processes). Because T_{n,n'} is not
// readable (for n' < n-1), being m-recording for m > n' does NOT contradict
// rcons = n': DFFR's sufficiency construction (Theorem 8) requires
// readability. In fact the op0/op1 values record the first mover for up to
// n-1 operations, so T_{n,n'} is m-recording for all m <= n-1.
func TestTnnRecording(t *testing.T) {
	cases := []struct {
		n, np, m int
		want     bool
	}{
		{3, 1, 2, true},  // values record first team with 2 procs
		{4, 2, 2, true},  // Theorem 13 consequence (rcons >= 2)
		{4, 2, 3, true},  // still records at 3 procs (3 <= n-1)
		{5, 2, 4, true},  // records up to n-1 = 4
		{3, 1, 3, false}, // 3 ops can exhaust to s_bot from both teams
		{4, 2, 4, false}, // n ops exhaust to s_bot
		{5, 2, 5, false},
	}
	for _, c := range cases {
		ft := types.Tnn(c.n, c.np)
		got, w := IsNRecording(ft, c.m)
		if got != c.want {
			t.Errorf("IsNRecording(T[%d,%d], %d) = %v, want %v", c.n, c.np, c.m, got, c.want)
		}
		if got {
			verifyWitness(t, ft, w)
		}
	}
}

// TestDiscernWithoutRecordGap exhibits the paper's headline gap at the
// decider level: test-and-set is 2-discerning yet not 2-recording, so its
// consensus number (2) strictly exceeds its recoverable consensus
// number (1).
func TestDiscernWithoutRecordGap(t *testing.T) {
	ft := types.TestAndSet()
	if ok, _ := IsNRecording(ft, 2); ok {
		t.Error("TAS must not be 2-recording")
	}
}

// TestNaiveMatchesReduced cross-checks the symmetry-reduced search against
// the naive search over all numOps^n assignments.
func TestNaiveMatchesReduced(t *testing.T) {
	zoo := []*spec.FiniteType{
		types.Register(2), types.TestAndSet(), types.Swap(2), types.FetchAdd(3),
		types.CompareAndSwap(2), types.StickyBit(), types.Counter(3),
		types.Queue(1), types.Tnn(3, 1), types.Tnn(3, 2), types.Trivial(),
	}
	for _, ft := range zoo {
		for n := 2; n <= 3; n++ {
			fast, _ := IsNRecording(ft, n)
			slow := searchNaive(ft, n) != nil
			if fast != slow {
				t.Errorf("%s n=%d: reduced=%v naive=%v", ft.Name(), n, fast, slow)
			}
		}
	}
}

func TestPanicsOnSmallN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=1")
		}
	}()
	IsNRecording(types.TestAndSet(), 1)
}

func TestWitnessString(t *testing.T) {
	ok, w := IsNRecording(types.StickyBit(), 2)
	if !ok {
		t.Fatal("sticky bit should be 2-recording")
	}
	if w.String() == "" {
		t.Error("empty witness string")
	}
}

// verifyWitness re-checks a witness by brute force directly against the
// definition of n-recording.
func verifyWitness(t *testing.T, ft *spec.FiniteType, w *Witness) {
	t.Helper()
	n := w.N
	has0, has1 := false, false
	teamSize := [2]int{}
	for _, team := range w.Teams {
		if team != 0 && team != 1 {
			t.Fatalf("bad team in witness %v", w)
		}
		teamSize[team]++
		if team == 0 {
			has0 = true
		} else {
			has1 = true
		}
	}
	if !has0 || !has1 {
		t.Fatalf("witness teams not both nonempty: %v", w)
	}

	U := [2]map[spec.Value]bool{make(map[spec.Value]bool), make(map[spec.Value]bool)}
	perm := make([]int, 0, n)
	used := make([]bool, n)
	var rec func(val spec.Value)
	rec = func(val spec.Value) {
		if len(perm) > 0 {
			U[w.Teams[perm[0]]][val] = true
		}
		for p := 0; p < n; p++ {
			if used[p] {
				continue
			}
			used[p] = true
			perm = append(perm, p)
			rec(ft.Apply(val, w.Ops[p]).Next)
			perm = perm[:len(perm)-1]
			used[p] = false
		}
	}
	rec(w.U)

	for v := range U[0] {
		if U[1][v] {
			t.Errorf("witness %v fails: U_0 and U_1 share value %d", w, v)
		}
	}
	for x := 0; x < 2; x++ {
		if U[x][w.U] && teamSize[1-x] != 1 {
			t.Errorf("witness %v fails side condition: u in U_%d but |T_%d| = %d",
				w, x, 1-x, teamSize[1-x])
		}
	}
}
