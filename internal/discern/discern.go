package discern

import (
	"context"
	"fmt"

	"repro/internal/spec"
	"repro/internal/uf"
)

// Witness certifies that a type is n-discerning: the initial value U, the
// team of each process (Teams[i] is 0 or 1), and the operation assigned to
// each process.
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

// IsNDiscerning reports whether t is n-discerning, for n >= 2, and returns
// a witness if it is. It panics if n < 2, since the property is undefined
// (the partition into two nonempty teams requires at least two processes).
func IsNDiscerning(t *spec.FiniteType, n int) (bool, *Witness) {
	ok, w, _ := IsNDiscerningCtx(context.Background(), t, n)
	return ok, w
}

// pollEvery is the number of enumeration recursion steps between context
// polls, in addition to the poll at every complete assignment: a power of
// two so the check compiles to a mask. Without it a type with many
// operations could sweep a deep prefix subtree — numOps^k partial tuples
// — between two complete assignments with cancellation pending.
const pollEvery = 256

// IsNDiscerningCtx is IsNDiscerning with cancellation: the search is
// abandoned (returning ctx.Err()) as soon as the context is done. The
// context is polled once per operation assignment, the unit of work of
// the enumeration, and additionally every pollEvery recursion steps so a
// deep prefix sweep cannot delay cancellation.
func IsNDiscerningCtx(ctx context.Context, t *spec.FiniteType, n int) (bool, *Witness, error) {
	if n < 2 {
		panic(fmt.Sprintf("discern: n-discerning is undefined for n=%d (need n >= 2)", n))
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
			// Symmetry reduction: processes are interchangeable, so only
			// non-decreasing operation tuples need to be tried.
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

// pairKey identifies an observation by process j: its operation's response
// together with the object's resulting value at the end of the schedule.
type pairKey struct {
	j    int
	resp spec.Response
	val  spec.Value
}

// checkAssignment decides whether some (u, partition) completes the given
// operation assignment into an n-discerning witness, and returns the
// witness if so.
func checkAssignment(t *spec.FiniteType, n int, ops []spec.Op) *Witness {
	for u := 0; u < t.NumValues(); u++ {
		if teams := colorObservations(n, observations(t, n, ops, spec.Value(u))); teams != nil {
			w := &Witness{N: n, U: spec.Value(u), Teams: teams, Ops: make([]spec.Op, n)}
			copy(w.Ops, ops)
			return w
		}
	}
	return nil
}

// observations collects, for every nonempty schedule in S(P) applied from
// u, the pair (response of each scheduled process, final value) bucketed
// by the schedule's first process, via a shared-prefix DFS (each prefix's
// object value is computed once).
func observations(t *spec.FiniteType, n int, ops []spec.Op, u spec.Value) map[pairKey]uint32 {
	firstMask := make(map[pairKey]uint32)
	inSched := make([]bool, n)
	resps := make([]spec.Response, n)
	order := make([]int, 0, n)
	var dfs func(val spec.Value, first int)
	dfs = func(val spec.Value, first int) {
		bit := uint32(1) << uint(first)
		for _, j := range order {
			firstMask[pairKey{j: j, resp: resps[j], val: val}] |= bit
		}
		for p := 0; p < n; p++ {
			if inSched[p] {
				continue
			}
			e := t.Apply(val, ops[p])
			inSched[p] = true
			resps[p] = e.Resp
			order = append(order, p)
			dfs(e.Next, first)
			order = order[:len(order)-1]
			inSched[p] = false
		}
	}
	for f := 0; f < n; f++ {
		e := t.Apply(u, ops[f])
		inSched[f] = true
		resps[f] = e.Resp
		order = append(order, f)
		dfs(e.Next, f)
		order = order[:len(order)-1]
		inSched[f] = false
	}
	return firstMask
}

// colorObservations finds a partition in which every observation's
// first-mover set is monochromatic: union-find over the masks; a valid
// partition exists iff at least two components remain.
func colorObservations(n int, firstMask map[pairKey]uint32) []int {
	groups := uf.New(n)
	for _, mask := range firstMask {
		groups.UniteMask(mask)
	}
	return groups.TwoColor()
}
