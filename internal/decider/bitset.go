package decider

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/discern"
	"repro/internal/record"
	"repro/internal/spec"
	"repro/internal/uf"
)

// BitsetMaxN is the largest process count the decider accepts: its
// frontier arrays are indexed by schedule subset, so memory is
// O(2^n * numValues) words per worker, and first-mover masks are
// uint32. 16 is far beyond what assignment enumeration can sweep in
// practice while keeping the worst-case scratch small.
const BitsetMaxN = 16

// CheckN rejects a process count above BitsetMaxN. It is the one error
// every entry point that takes a process count reports, before any work.
func CheckN(n int) error {
	if n > BitsetMaxN {
		return fmt.Errorf("n=%d is above the level decider's cap n <= %d", n, BitsetMaxN)
	}
	return nil
}

// IsNDiscerning decides whether t is n-discerning (2 <= n <=
// BitsetMaxN; it panics for n < 2, like discern.IsNDiscerningCtx),
// returning a witness on a positive decision. The operation-assignment
// enumeration runs on shards workers of discern.SearchSharded (clamped
// to 1 from below); onShard, when non-nil, receives one report per
// finished worker from that worker's goroutine. The sweep is abandoned
// with ctx.Err() when ctx is done.
func IsNDiscerning(ctx context.Context, t *spec.FiniteType, n, shards int, onShard func(discern.ShardReport)) (bool, *discern.Witness, error) {
	if n < 2 {
		panic(fmt.Sprintf("decider: n-discerning is undefined for n=%d (need n >= 2)", n))
	}
	return search(ctx, t, n, shards, onShard, (*sweeper).checkDiscern)
}

// IsNRecording is IsNDiscerning for the recording property.
func IsNRecording(ctx context.Context, t *spec.FiniteType, n, shards int, onShard func(record.ShardReport)) (bool, *record.Witness, error) {
	if n < 2 {
		panic(fmt.Sprintf("decider: n-recording is undefined for n=%d (need n >= 2)", n))
	}
	return search(ctx, t, n, shards, onShard, (*sweeper).checkRecord)
}

// search runs check over the symmetry-reduced assignment space of one
// level, in the reference deciders' tuple order, with one sweeper per
// worker.
func search[W any](ctx context.Context, t *spec.FiniteType, n, shards int, onShard func(discern.ShardReport), check func(*sweeper, []spec.Op) *W) (bool, *W, error) {
	if err := CheckN(n); err != nil {
		return false, nil, err
	}
	l := newLevel(t, n)
	space := discern.NewTupleSpace(t.NumOps(), n, false)
	w, err := discern.SearchSharded(ctx, space, shards, func() func([]spec.Op) *W {
		s := l.newSweeper()
		return func(ops []spec.Op) *W { return check(s, ops) }
	}, onShard)
	if err != nil {
		return false, nil, err
	}
	return w != nil, w, nil
}

// level is one level check's precomputed context: the type's transition
// tables flattened to dense arrays, shared read-only by its workers.
type level struct {
	n, V, O int
	// R is the dense response-class count; respID[v*O+o] interns the
	// response of (value v, op o) into [0, R).
	R      int
	respID []int
	// next[v*O+o] is the successor value of (value v, op o).
	next []spec.Value
}

// sweeper is one worker's sweep state over a level, reused across
// assignments, so deciding an assignment allocates nothing but a
// returned witness.
type sweeper struct {
	*level
	// reach[set*V+v]: first-mover masks of orderings of exactly set
	// ending at value v (or-accumulated; zero outside the row lists).
	reach []uint32
	// rows[set*V .. set*V+rowLen[set]] lists the values v with
	// reach[set*V+v] != 0, in first-reached order: frontiers are sparse,
	// so sweeps walk these lists instead of scanning V cells per set.
	rows   []int32
	rowLen []int32
	// desc[(set*V+v)*W .. +W]: bitset of final values reachable from v
	// past set (fully overwritten per assignment, no zeroing needed).
	desc []uint64
	// obs[r*V+v]: one observer's first-mover masks per (response, final
	// value) (discerning); touched lists its nonzero cells.
	obs     []uint32
	touched []int32
	// final[v]: first-mover masks per final value (recording).
	final []uint32
	// groups colors the masks of one (assignment, initial value).
	groups uf.UnionFind
}

// newLevel flattens t's tables for an n-process level.
func newLevel(t *spec.FiniteType, n int) *level {
	V, O := t.NumValues(), t.NumOps()
	l := &level{
		n: n, V: V, O: O,
		respID: make([]int, V*O),
		next:   make([]spec.Value, V*O),
	}
	seen := make(map[spec.Response]int)
	for v := 0; v < V; v++ {
		for o := 0; o < O; o++ {
			e := t.Apply(spec.Value(v), spec.Op(o))
			id, ok := seen[e.Resp]
			if !ok {
				id = len(seen)
				seen[e.Resp] = id
			}
			l.respID[v*O+o] = id
			l.next[v*O+o] = e.Next
		}
	}
	l.R = len(seen)
	return l
}

// newSweeper allocates one worker's sweep state.
func (l *level) newSweeper() *sweeper {
	size := 1 << l.n
	return &sweeper{
		level:   l,
		reach:   make([]uint32, size*l.V),
		rows:    make([]int32, size*l.V),
		rowLen:  make([]int32, size),
		desc:    make([]uint64, size*l.V*l.words()),
		obs:     make([]uint32, l.R*l.V),
		touched: make([]int32, 0, l.R*l.V),
		final:   make([]uint32, l.V),
	}
}

// words is the per-cell word count of the final-value bitsets.
func (l *level) words() int { return (l.V + 63) / 64 }

// row returns the values set's orderings reach.
func (s *sweeper) row(set int) []int32 {
	return s.rows[set*s.V : set*s.V+int(s.rowLen[set])]
}

// reached merges first movers fm into reach[set][v].
func (s *sweeper) reached(set, v int, fm uint32) {
	i := set*s.V + v
	if s.reach[i] == 0 {
		s.rows[set*s.V+int(s.rowLen[set])] = int32(v)
		s.rowLen[set]++
	}
	s.reach[i] |= fm
}

// forward fills s.reach for one (assignment, initial value): clear the
// previous value's rows, seed the singleton sets, then extend each
// completed frontier by every unscheduled process. Ascending mask order
// makes every reach[set] complete before any superset reads it.
func (s *sweeper) forward(ops []spec.Op, u int) {
	n, V, O := s.n, s.V, s.O
	full := 1<<n - 1
	for set := 1; set <= full; set++ {
		for _, v := range s.row(set) {
			s.reach[set*V+int(v)] = 0
		}
		s.rowLen[set] = 0
	}
	for f := 0; f < n; f++ {
		s.reached(1<<f, int(s.next[u*O+int(ops[f])]), 1<<uint(f))
	}
	for set := 1; set < full; set++ {
		rest := full &^ set
		for _, v := range s.row(set) {
			fm := s.reach[set*V+int(v)]
			for r := rest; r != 0; r &= r - 1 {
				p := bits.TrailingZeros32(uint32(r))
				s.reached(set|1<<p, int(s.next[int(v)*O+int(ops[p])]), fm)
			}
		}
	}
}

// backward fills s.desc for one assignment; it does not depend on the
// initial value. desc[full][v] = {v}; below, the union over one-step
// extensions. Descending mask order makes every desc[set|p] complete
// before desc[set] reads it.
func (s *sweeper) backward(ops []spec.Op) {
	n, V, O, W := s.n, s.V, s.O, s.words()
	full := 1<<n - 1
	for set := full; set >= 0; set-- {
		rest := full &^ set
		for v := 0; v < V; v++ {
			cell := s.desc[(set*V+v)*W : (set*V+v+1)*W]
			clear(cell)
			cell[v>>6] = 1 << uint(v&63)
			for r := rest; r != 0; r &= r - 1 {
				p := bits.TrailingZeros32(uint32(r))
				child := s.desc[((set|1<<p)*V+int(s.next[v*O+int(ops[p])]))*W:]
				for w := range cell {
					cell[w] |= child[w]
				}
			}
		}
	}
}

// observe merges one decomposition step into observer j's masks:
// prefix-set B at value b (first movers fm, or the j-first case), then
// process j, then any suffix. Final values come from desc[B+j].
func (s *sweeper) observe(ops []spec.Op, j, set, b int, fm uint32) {
	V, W := s.V, s.words()
	cell := b*s.O + int(ops[j])
	base := s.respID[cell] * V
	finals := s.desc[((set|1<<j)*V+int(s.next[cell]))*W:]
	for w := 0; w < W; w++ {
		for word := finals[w]; word != 0; word &= word - 1 {
			o := base + w<<6 + bits.TrailingZeros64(word)
			if s.obs[o] == 0 {
				s.touched = append(s.touched, int32(o))
			}
			s.obs[o] |= fm
		}
	}
}

// checkDiscern decides one assignment for the discerning property,
// returning the witness of the smallest witnessing initial value.
//
// A schedule observation "process j saw response r and the object ended
// at value v" decomposes as prefix-set + j + suffix: for every set B not
// containing j and every value b with reach[B][b] != 0, process j
// responds resp(b, ops[j]) and the final value ranges over
// desc[B+j][next(b, ops[j])]. Observer j's masks are complete after its
// own pass, so they are united right away, and once a single component
// remains no coloring exists for this initial value.
func (s *sweeper) checkDiscern(ops []spec.Op) *discern.Witness {
	n, V := s.n, s.V
	full := 1<<n - 1
	s.backward(ops)
	for u := 0; u < V; u++ {
		s.forward(ops, u)
		s.groups.Reset(n)
		for j := 0; j < n && s.groups.Components() > 1; j++ {
			// j first: empty prefix at value u, first mover j itself.
			s.observe(ops, j, 0, u, 1<<uint(j))
			// Nonempty prefixes: every set avoiding j, every value the
			// prefix can reach.
			others := full &^ (1 << j)
			for set := others; set != 0; set = (set - 1) & others {
				for _, b := range s.row(set) {
					s.observe(ops, j, set, int(b), s.reach[set*V+int(b)])
				}
			}
			for _, o := range s.touched {
				if fm := s.obs[o]; fm&(fm-1) != 0 {
					s.groups.UniteMask(fm)
				}
				s.obs[o] = 0
			}
			s.touched = s.touched[:0]
		}
		if teams := s.groups.TwoColor(); teams != nil {
			return &discern.Witness{N: n, U: spec.Value(u), Teams: teams,
				Ops: append([]spec.Op(nil), ops...)}
		}
	}
	return nil
}

// checkRecord decides one assignment for the recording property. The
// final-value first-mover masks are the row sums of the forward sweep;
// record.ColorFinal turns them into the canonical team assignment.
func (s *sweeper) checkRecord(ops []spec.Op) *record.Witness {
	n, V := s.n, s.V
	for u := 0; u < V; u++ {
		s.forward(ops, u)
		clear(s.final)
		for set := 1; set < 1<<n; set++ {
			for _, v := range s.row(set) {
				s.final[v] |= s.reach[set*V+int(v)]
			}
		}
		s.groups.Reset(n)
		if teams := record.ColorFinal(&s.groups, s.final, spec.Value(u)); teams != nil {
			return &record.Witness{N: n, U: spec.Value(u), Teams: teams,
				Ops: append([]spec.Op(nil), ops...)}
		}
	}
	return nil
}
