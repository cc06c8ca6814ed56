package model

import (
	"fmt"

	"repro/internal/schedule"
	"repro/internal/spec"
)

// Valence values: which of {0, 1} can still be decided from a node.
const (
	ValenceNone = 0
	Valence0    = 1 << 0
	Valence1    = 1 << 1
	Bivalent    = Valence0 | Valence1
)

// valency computes, for every explored node, the set of binary decisions
// reachable from it, by backward closure from deciding nodes over
// predecessor lists in compressed form (preds[start[i]:start[i+1]] are
// node i's predecessors). The computation is cycle-safe and linear in
// the size of the explored graph.
func (r *Result) valency() []uint8 {
	if r.valences != nil {
		return r.valences
	}
	n := len(r.nodes)
	start := make([]int32, n+1)
	var succ []int32
	for i := range r.nodes {
		succ = r.succs(int32(i), succ[:0])
		for _, s := range succ {
			start[s+1]++
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	preds := make([]int32, start[n])
	fill := append([]int32(nil), start[:n]...)
	for i := range r.nodes {
		succ = r.succs(int32(i), succ[:0])
		for _, s := range succ {
			preds[fill[s]] = int32(i)
			fill[s]++
		}
	}
	val := make([]uint8, n)
	var queue []int32
	for v := int8(0); v <= 1; v++ {
		bit := uint8(1) << v
		queue = queue[:0]
		for i := range r.nodes {
			c, j := r.g.arena.at(r.nodes[i].gn)
			for _, d := range c.decidedOf(j) {
				if d == v {
					val[i] |= bit
					queue = append(queue, int32(i))
					break
				}
			}
		}
		for head := 0; head < len(queue); head++ {
			nd := queue[head]
			for _, p := range preds[start[nd]:start[nd+1]] {
				if val[p]&bit == 0 {
					val[p] |= bit
					queue = append(queue, p)
				}
			}
		}
	}
	r.valences = val
	return val
}

// Valence returns the decision-reachability mask of a node with respect to
// the explored (crash-budgeted) execution set: Bivalent if both 0 and 1
// are decidable, Valence0/Valence1 if univalent, ValenceNone if no
// decision is reachable (only possible for truncated or broken protocols).
func (r *Result) Valence(nd *node) int {
	i := r.indexOf(nd)
	if i < 0 {
		return ValenceNone
	}
	return int(r.valency()[i])
}

// CriticalInfo describes a critical execution found by FindCritical and
// its Observation 11 classification.
type CriticalInfo struct {
	// Trace is the critical execution alpha (a schedule from the initial
	// configuration).
	Trace schedule.Schedule
	// Config is the critical configuration C-alpha.
	Config Config
	// Object is the object every process is poised to access (Lemma 9).
	Object int
	// Teams[p] is the valency of the step of p from the critical
	// configuration: p is "on team v" (Section 3).
	Teams []int
	// U[x] is the set of object values reachable by nonempty schedules in
	// S(P) starting with a team-x process, each process applying its
	// poised operation (the sets U_v before Observation 11).
	U [2]map[spec.Value]bool
	// Class is "n-recording", "0-hiding", "1-hiding", or "colliding"
	// (Observation 11's trichotomy; n-recording takes priority when both
	// n-recording and v-hiding hold).
	Class string
}

// ErrNoCritical is returned when no critical execution exists in the
// explored graph (e.g. the initial configuration is already univalent).
var ErrNoCritical = fmt.Errorf("model: no critical execution found")

// FindCritical searches the explored graph for a critical execution in the
// sense of Lemma 6(a), with respect to the crash-budgeted execution set
// explored by Check: an execution alpha such that alpha is bivalent and
// every nonempty extension within the budget is univalent. It returns the
// first such execution found by BFS (hence a shortest one) together with
// its classification.
func FindCritical(r *Result) (*CriticalInfo, error) {
	if r.Truncated {
		return nil, fmt.Errorf("model: exploration truncated; criticality would be unsound")
	}
	val := r.valency()
	if val[0]&Bivalent != Bivalent {
		return nil, fmt.Errorf("%w: initial configuration is not bivalent", ErrNoCritical)
	}
	// BFS through bivalent nodes.
	seen := make([]bool, len(r.nodes))
	seen[0] = true
	queue := []int32{0}
	var succ []int32
	for head := 0; head < len(queue); head++ {
		nd := queue[head]
		succ = r.succs(nd, succ[:0])
		anyBivalent := false
		for _, s := range succ {
			if val[s]&Bivalent == Bivalent {
				anyBivalent = true
				if !seen[s] {
					seen[s] = true
					queue = append(queue, s)
				}
			}
		}
		if !anyBivalent {
			return r.classify(nd)
		}
	}
	return nil, fmt.Errorf("%w: all bivalent nodes have bivalent successors (cycle of bivalence)", ErrNoCritical)
}

// classify computes Lemma 9 (same object), the team structure and the
// Observation 11 classification for critical node i.
func (r *Result) classify(i int32) (*CriticalInfo, error) {
	mc := r.g.m
	n := mc.n
	val := r.valency()
	nd := &r.nodes[i]
	c, j := r.g.arena.at(nd.gn)
	words := c.wordsOf(j)

	info := &CriticalInfo{
		Trace:  r.trace(i),
		Config: r.NodeConfig(nd),
		Teams:  make([]int, n),
		U:      [2]map[spec.Value]bool{make(map[spec.Value]bool), make(map[spec.Value]bool)},
	}

	// Lemma 9: every process is poised to apply an operation to the same
	// object in the critical configuration. A poised state's table row
	// is its operation's effect on that object: next[v].val is the value
	// the operation leaves behind when applied at v.
	obj := -1
	ops := make([][]tnext, n)
	for p := 0; p < n; p++ {
		t := mc.state(words, p)
		if t.decided {
			return nil, fmt.Errorf("model: process p%d already decided in critical configuration", p)
		}
		if obj == -1 {
			obj = t.obj
		} else if t.obj != obj {
			return nil, fmt.Errorf("model: Lemma 9 violated — p%d poised on object %d, others on %d",
				p, t.obj, obj)
		}
		ops[p] = t.next
	}
	info.Object = obj

	// Teams: the valency of each step successor. In a critical node every
	// successor is univalent. No process has decided (checked above), so
	// the node's expansion carries exactly one step successor per
	// process — read canonically instead of recomputing the transition.
	for p, cg := range c.stepOf(j) {
		cn := r.lookup(cg, nd.usage)
		if cn < 0 {
			return nil, fmt.Errorf("model: internal error — step successor of critical node not explored")
		}
		switch int(val[cn]) {
		case Valence0:
			info.Teams[p] = 0
		case Valence1:
			info.Teams[p] = 1
		default:
			return nil, fmt.Errorf("model: step of p%d from critical node is not univalent (mask %d)",
				p, val[cn])
		}
	}

	// U_x sets: all object values produced by nonempty schedules in S(P)
	// whose first process is on team x, each process applying its poised
	// operation to the common object.
	cur := spec.Value(mc.val(words, obj))
	inSched := make([]bool, n)
	var dfs func(v spec.Value, team int)
	dfs = func(v spec.Value, team int) {
		info.U[team][v] = true
		for p := 0; p < n; p++ {
			if inSched[p] {
				continue
			}
			inSched[p] = true
			dfs(spec.Value(ops[p][v].val), team)
			inSched[p] = false
		}
	}
	for p := 0; p < n; p++ {
		inSched[p] = true
		dfs(spec.Value(ops[p][cur].val), info.Teams[p])
		inSched[p] = false
	}

	info.Class = classifyUTeams(info.U, info.Teams, cur)
	return info, nil
}

// classifyUTeams implements Observation 11's trichotomy given the U sets,
// the team assignment and the current object value.
func classifyUTeams(u [2]map[spec.Value]bool, teams []int, cur spec.Value) string {
	disjoint := true
	for v := range u[0] {
		if u[1][v] {
			disjoint = false
			break
		}
	}
	if !disjoint {
		return "colliding"
	}
	teamSize := [2]int{}
	for _, t := range teams {
		teamSize[t]++
	}
	for x := 0; x <= 1; x++ {
		if u[x][cur] {
			if teamSize[1-x] == 1 {
				return "n-recording"
			}
			return fmt.Sprintf("%d-hiding", x)
		}
	}
	// cur not in either U set and the sets are disjoint: n-recording with
	// a vacuous side condition.
	return "n-recording"
}
