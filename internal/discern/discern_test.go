package discern

import (
	"testing"

	"repro/internal/spec"
	"repro/internal/types"
)

// TestKnownConsensusNumbers checks the decider against the classical
// consensus hierarchy facts: for deterministic readable types, Ruppert's
// theorem says consensus number >= n iff n-discerning.
func TestKnownConsensusNumbers(t *testing.T) {
	tests := []struct {
		name string
		ft   *spec.FiniteType
		n    int
		want bool
	}{
		// Registers have consensus number 1.
		{"register not 2-discerning", types.Register(2), 2, false},
		{"register3 not 2-discerning", types.Register(3), 2, false},
		// Test-and-set has consensus number 2.
		{"tas 2-discerning", types.TestAndSet(), 2, true},
		{"tas not 3-discerning", types.TestAndSet(), 3, false},
		// Swap has consensus number 2.
		{"swap 2-discerning", types.Swap(3), 2, true},
		{"swap not 3-discerning", types.Swap(3), 3, false},
		// Fetch-and-add has consensus number 2.
		{"faa 2-discerning", types.FetchAdd(8), 2, true},
		{"faa not 3-discerning", types.FetchAdd(8), 3, false},
		// Queues have consensus number 2. Note the queue is NOT readable,
		// so Ruppert's iff does not apply: the bounded queue is in fact
		// 3-discerning by the letter of the definition (the decider found
		// a witness, re-verified by brute force below), which does not
		// imply consensus number 3 — the discerning-to-consensus
		// construction needs readability to observe the final value.
		{"queue 2-discerning", types.Queue(2), 2, true},
		{"queue 3-discerning (non-readable, no consensus implication)", types.Queue(2), 3, true},
		// CAS and sticky bits have unbounded consensus number.
		{"cas 2-discerning", types.CompareAndSwap(2), 2, true},
		{"cas 3-discerning", types.CompareAndSwap(2), 3, true},
		{"cas 4-discerning", types.CompareAndSwap(2), 4, true},
		{"sticky 3-discerning", types.StickyBit(), 3, true},
		{"sticky 4-discerning", types.StickyBit(), 4, true},
		// Counters with uninformative increments: consensus number 1.
		{"counter not 2-discerning", types.Counter(4), 2, false},
		// Max-registers: consensus number 1.
		{"maxreg not 2-discerning", types.MaxRegister(3), 2, false},
		// Trivial type: nothing.
		{"trivial not 2-discerning", types.Trivial(), 2, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, w := IsNDiscerning(tc.ft, tc.n)
			if got != tc.want {
				t.Errorf("IsNDiscerning(%s, %d) = %v, want %v", tc.ft.Name(), tc.n, got, tc.want)
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

// TestTnnDiscerningSpectrum checks Lemma 15's lower-bound side: T_{n,n'} is
// n-discerning (it has consensus number n), and the upper-bound side at the
// decider level: it is not (n+1)-discerning.
func TestTnnDiscerningSpectrum(t *testing.T) {
	cases := []struct{ n, np int }{{2, 1}, {3, 1}, {3, 2}, {4, 2}, {4, 3}, {5, 2}}
	for _, c := range cases {
		ft := types.Tnn(c.n, c.np)
		ok, w := IsNDiscerning(ft, c.n)
		if !ok {
			t.Errorf("T[%d,%d] should be %d-discerning", c.n, c.np, c.n)
		} else {
			verifyWitness(t, ft, w)
		}
		if c.n+1 <= 6 {
			if ok, _ := IsNDiscerning(ft, c.n+1); ok {
				t.Errorf("T[%d,%d] should not be %d-discerning", c.n, c.np, c.n+1)
			}
		}
	}
}

// TestMonotone checks that n-discerning implies (n-1)-discerning for the
// zoo (dropping a process from a witness yields a witness as long as both
// teams stay nonempty; the decider searches all witnesses, so the implied
// monotonicity must hold on concrete types).
func TestMonotone(t *testing.T) {
	for _, ft := range []*spec.FiniteType{
		types.TestAndSet(), types.CompareAndSwap(2), types.StickyBit(),
		types.Tnn(4, 2), types.Queue(2),
	} {
		prev := true
		for n := 5; n >= 2; n-- {
			ok, _ := IsNDiscerning(ft, n)
			if ok && !prev {
				// found n-discerning after (n+1)-discerning... that is
				// fine; the violation is (n+1)-discerning without
				// n-discerning, checked in the other direction below.
				_ = ok
			}
			prev = ok
		}
		for n := 2; n <= 4; n++ {
			okN, _ := IsNDiscerning(ft, n)
			okN1, _ := IsNDiscerning(ft, n+1)
			if okN1 && !okN {
				t.Errorf("%s: %d-discerning but not %d-discerning", ft.Name(), n+1, n)
			}
		}
	}
}

// TestNaiveMatchesReduced cross-checks the symmetry-reduced search against
// the naive search over all numOps^n assignments on the whole zoo for
// n = 2, 3.
func TestNaiveMatchesReduced(t *testing.T) {
	zoo := []*spec.FiniteType{
		types.Register(2), types.TestAndSet(), types.Swap(2), types.FetchAdd(3),
		types.CompareAndSwap(2), types.StickyBit(), types.Counter(3),
		types.Queue(1), types.Tnn(3, 1), types.Tnn(3, 2), types.Trivial(),
	}
	for _, ft := range zoo {
		for n := 2; n <= 3; n++ {
			fast, _ := IsNDiscerning(ft, n)
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
	IsNDiscerning(types.TestAndSet(), 1)
}

func TestWitnessString(t *testing.T) {
	ok, w := IsNDiscerning(types.TestAndSet(), 2)
	if !ok {
		t.Fatal("TAS should be 2-discerning")
	}
	if w.String() == "" {
		t.Error("empty witness string")
	}
}

// verifyWitness re-checks a witness by brute force directly against the
// definition: enumerate every schedule in S(P) containing each p_j and
// confirm R_{0,j} and R_{1,j} are disjoint.
func verifyWitness(t *testing.T, ft *spec.FiniteType, w *Witness) {
	t.Helper()
	n := w.N
	if len(w.Teams) != n || len(w.Ops) != n {
		t.Fatalf("witness arity mismatch: %v", w)
	}
	has0, has1 := false, false
	for _, team := range w.Teams {
		switch team {
		case 0:
			has0 = true
		case 1:
			has1 = true
		default:
			t.Fatalf("bad team value in witness: %v", w)
		}
	}
	if !has0 || !has1 {
		t.Fatalf("witness teams not both nonempty: %v", w)
	}

	type pair struct {
		resp spec.Response
		val  spec.Value
	}
	// R[x][j]
	R := [2][]map[pair]bool{}
	for x := 0; x < 2; x++ {
		R[x] = make([]map[pair]bool, n)
		for j := 0; j < n; j++ {
			R[x][j] = make(map[pair]bool)
		}
	}
	perm := make([]int, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(perm) > 0 {
			// Simulate and record.
			v := w.U
			resps := make(map[int]spec.Response, len(perm))
			for _, p := range perm {
				e := ft.Apply(v, w.Ops[p])
				resps[p] = e.Resp
				v = e.Next
			}
			x := w.Teams[perm[0]]
			for _, j := range perm {
				R[x][j][pair{resps[j], v}] = true
			}
		}
		for p := 0; p < n; p++ {
			if used[p] {
				continue
			}
			used[p] = true
			perm = append(perm, p)
			rec()
			perm = perm[:len(perm)-1]
			used[p] = false
		}
	}
	rec()
	for j := 0; j < n; j++ {
		for p := range R[0][j] {
			if R[1][j][p] {
				t.Errorf("witness %v fails: R_{0,%d} and R_{1,%d} share (%d,%d)",
					w, j, j, p.resp, p.val)
			}
		}
	}
}
