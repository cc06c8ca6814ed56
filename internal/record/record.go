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

// Options configures the decision procedure.
type Options struct {
	// Naive disables the symmetry reduction over operation assignments.
	Naive bool
	// NoPrefixSharing re-simulates every schedule from the initial value
	// instead of sharing prefix values (ablation; see DESIGN.md).
	NoPrefixSharing bool
}

// IsNRecording reports whether t is n-recording, for n >= 2, and returns a
// witness if it is. It panics if n < 2 (the partition into two nonempty
// teams requires at least two processes).
func IsNRecording(t *spec.FiniteType, n int) (bool, *Witness) {
	return IsNRecordingOpt(t, n, Options{})
}

// IsNRecordingOpt is IsNRecording with explicit Options.
func IsNRecordingOpt(t *spec.FiniteType, n int, opts Options) (bool, *Witness) {
	ok, w, _ := IsNRecordingCtx(context.Background(), t, n, opts)
	return ok, w
}

// pollEvery is the number of enumeration recursion steps between context
// polls, in addition to the poll at every complete assignment (a power of
// two so the check compiles to a mask); see the matching constant in
// package discern.
const pollEvery = 256

// IsNRecordingCtx is IsNRecordingOpt with cancellation: the search is
// abandoned (returning ctx.Err()) as soon as the context is done, polled
// once per operation assignment and additionally every pollEvery
// recursion steps so a deep prefix sweep cannot delay cancellation.
func IsNRecordingCtx(ctx context.Context, t *spec.FiniteType, n int, opts Options) (bool, *Witness, error) {
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
			return checkAssignment(t, n, ops, opts)
		}
		start := spec.Op(0)
		if !opts.Naive && pos > 0 {
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

func checkAssignment(t *spec.FiniteType, n int, ops []spec.Op, opts Options) *Witness {
	for u := 0; u < t.NumValues(); u++ {
		if teams := checkValueAssignment(t, n, ops, spec.Value(u), opts); teams != nil {
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

// finalValuesNoShare is the ablation variant: every schedule is
// re-simulated from u in full.
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

// checkValueAssignment decides whether some partition completes
// (u, ops) into an n-recording witness and returns the team assignment.
func checkValueAssignment(t *spec.FiniteType, n int, ops []spec.Op, u spec.Value, opts Options) []int {
	// firstMask[v] = bitmask of first-movers f such that some nonempty
	// schedule starting with f leaves the object with value v.
	var firstMask []uint32
	if opts.NoPrefixSharing {
		firstMask = finalValuesNoShare(t, n, ops, u)
	} else {
		firstMask = finalValues(t, n, ops, u)
	}
	return ColorFinal(uf.New(n), firstMask, u)
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
