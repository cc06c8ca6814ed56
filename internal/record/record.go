package record

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/spec"
	"repro/internal/uf"
)

// Witness certifies that a type is n-recording.
type Witness struct {
	N     int
	U     spec.Value
	Teams []int
	Ops   []spec.Op
}

// String renders the witness compactly.
func (w *Witness) String() string {
	return fmt.Sprintf("u=%d teams=%v ops=%v", int(w.U), w.Teams, w.Ops)
}

// Clone returns a deep copy of the witness, so callers may mutate the
// copy's slices without affecting shared state (the engine's memo cache
// serves clones).
func (w *Witness) Clone() *Witness {
	if w == nil {
		return nil
	}
	return &Witness{
		N:     w.N,
		U:     w.U,
		Teams: append([]int(nil), w.Teams...),
		Ops:   append([]spec.Op(nil), w.Ops...),
	}
}

// IsNRecording reports whether t is n-recording, for n >= 2, and returns a
// witness if it is. It panics if n < 2 (the partition into two nonempty
// teams requires at least two processes).
func IsNRecording(t *spec.FiniteType, n int) (bool, *Witness) {
	ok, w, _ := IsNRecordingCtx(context.Background(), t, n)
	return ok, w
}

// pollEvery is the number of enumeration recursion steps between context
// polls, in addition to the poll at every complete assignment (a power of
// two so the check compiles to a mask); see the matching constant in
// package discern.
const pollEvery = 256

// IsNRecordingCtx is IsNRecording with cancellation: the search is
// abandoned (returning ctx.Err()) as soon as the context is done, polled
// once per operation assignment and additionally every pollEvery
// recursion steps so a deep prefix sweep cannot delay cancellation.
func IsNRecordingCtx(ctx context.Context, t *spec.FiniteType, n int) (bool, *Witness, error) {
	if n < 2 {
		panic(fmt.Sprintf("record: n-recording is undefined for n=%d (need n >= 2)", n))
	}
	numOps := t.NumOps()
	ops := make([]spec.Op, n)
	done := ctx.Done()
	var canceled bool
	var steps uint
	var tryAll func(pos int) *Witness
	tryAll = func(pos int) *Witness {
		if steps++; steps&(pollEvery-1) == 0 {
			select {
			case <-done:
				canceled = true
				return nil
			default:
			}
		}
		if pos == n {
			select {
			case <-done:
				canceled = true
				return nil
			default:
			}
			return checkAssignment(t, n, ops)
		}
		start := spec.Op(0)
		if pos > 0 {
			start = ops[pos-1]
		}
		for o := start; int(o) < numOps; o++ {
			ops[pos] = o
			if w := tryAll(pos + 1); w != nil {
				return w
			}
			if canceled {
				return nil
			}
		}
		return nil
	}
	if w := tryAll(0); w != nil {
		return true, w, nil
	}
	if canceled {
		return false, nil, ctx.Err()
	}
	return false, nil, nil
}

// checkAssignment decides whether some (u, partition) completes the given
// operation assignment into an n-recording witness, and returns the
// witness if so.
func checkAssignment(t *spec.FiniteType, n int, ops []spec.Op) *Witness {
	for u := 0; u < t.NumValues(); u++ {
		firstMask := finalValues(t, n, ops, spec.Value(u))
		if teams := ColorFinal(uf.New(n), firstMask, spec.Value(u)); teams != nil {
			w := &Witness{N: n, U: spec.Value(u), Teams: teams, Ops: make([]spec.Op, n)}
			copy(w.Ops, ops)
			return w
		}
	}
	return nil
}

// finalValues collects the final object value of every nonempty schedule
// in S(P) applied from u, as a per-value bitmask of first movers, using a
// shared-prefix DFS.
func finalValues(t *spec.FiniteType, n int, ops []spec.Op, u spec.Value) []uint32 {
	firstMask := make([]uint32, t.NumValues())
	inSched := make([]bool, n)
	var dfs func(val spec.Value, first int)
	dfs = func(val spec.Value, first int) {
		firstMask[val] |= uint32(1) << uint(first)
		for p := 0; p < n; p++ {
			if inSched[p] {
				continue
			}
			inSched[p] = true
			dfs(t.Apply(val, ops[p]).Next, first)
			inSched[p] = false
		}
	}
	for f := 0; f < n; f++ {
		inSched[f] = true
		dfs(t.Apply(u, ops[f]).Next, f)
		inSched[f] = false
	}
	return firstMask
}

// ColorFinal turns one assignment's final-value observation sets into an
// n-recording team assignment, or nil when none exists. firstMask[v] is
// the bitmask of first movers f such that some nonempty schedule starting
// with f leaves the object with value v (zero when none does), computed
// from initial value u; groups must hold n singleton components and is
// consumed as scratch. The choice of partition is deterministic given
// firstMask, which is what lets the bitset decider (internal/decider)
// reproduce the recursive search's witnesses bit for bit: both derive the
// same observation sets and color them through this one function, which
// allocates only the returned teams.
func ColorFinal(groups *uf.UnionFind, firstMask []uint32, u spec.Value) []int {
	// Condition 1: every firstMask set must be monochromatic.
	for _, mask := range firstMask {
		groups.UniteMask(mask)
	}

	maskU := firstMask[u]
	if maskU == 0 {
		// u is not producible by any nonempty schedule; condition 2 is
		// vacuous and any valid two-coloring works.
		return groups.TwoColor()
	}

	// u in U_x for the team x that hosts u's producers (they are all in
	// one component, or no valid coloring exists at all). Condition 2
	// forces the opposite team to be a single process, i.e. a singleton
	// component different from the producers' component.
	if groups.Components() < 2 {
		return nil
	}
	n := groups.Len()
	producerRoot := groups.Find(bits.TrailingZeros32(maskU))
	for i := 0; i < n; i++ {
		if groups.Size(i) == 1 && groups.Find(i) != producerRoot {
			// Team 1 = {p_i}; team 0 = everything else (including all of
			// u's producers). Then u in U_0 and |T_1| = 1 as required, and
			// u cannot be in U_1 because p_i is not one of u's producers.
			teams := make([]int, n)
			teams[i] = 1
			return teams
		}
	}
	return nil
}
