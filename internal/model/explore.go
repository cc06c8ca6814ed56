package model

import (
	"context"
	"fmt"

	"repro/internal/schedule"
)

// CheckOpts configures an exploration.
type CheckOpts struct {
	// Ctx, when non-nil, cancels the exploration: Check polls it
	// periodically during the BFS and returns ctx.Err() once it is done.
	Ctx context.Context
	// Inputs is the binary input of each process.
	Inputs []int
	// CrashQuota[p] is the maximum number of crashes of process p. A nil
	// slice means crash-free exploration. Note the paper's E sets always
	// keep p0 crash-free; callers model that by setting CrashQuota[0]=0.
	CrashQuota []int
	// Validity overrides the validity predicate for decided values. If
	// nil, the consensus default is used: a decided value must equal the
	// input of some process.
	Validity func(decided int) bool
	// MaxNodes aborts exploration when the state space exceeds the bound
	// (0 means the default of 2,000,000).
	MaxNodes int
	// SkipLiveness disables the recoverable wait-freedom (cycle) check.
	SkipLiveness bool
	// StartTrace, when nonempty, is applied to the initial configuration
	// before exploration begins: the explored root is the configuration
	// (and persistent output history) reached by this schedule. Crashes
	// inside StartTrace do NOT consume the exploration's crash quota —
	// each Check call gets a fresh budget, mirroring the per-stage
	// re-derivation in the Theorem 13 chain construction.
	StartTrace schedule.Schedule
}

// Violation describes one property violation found by the checker.
type Violation struct {
	// Kind is "agreement", "validity", or "wait-freedom".
	Kind string
	// Trace is a schedule from the initial configuration exhibiting the
	// violation (for wait-freedom, a path to the start of a cycle).
	Trace schedule.Schedule
	// Config is the violating configuration.
	Config Config
	// Detail is a human-readable explanation.
	Detail string
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s violation after [%s]: %s", v.Kind, v.Trace, v.Detail)
}

// Result is the outcome of an exploration.
type Result struct {
	// g is the shared exploration graph the walk ran on; post-exploration
	// analyses (Node, valency, critical search) resolve canonical nodes
	// and decode configurations through it.
	g *Graph

	// Nodes is the number of distinct (configuration, crash-usage) nodes
	// visited.
	Nodes int
	// Violations lists all property violations found (deduplicated by
	// kind; the checker records the first witness of each kind).
	Violations []*Violation
	// Truncated reports whether exploration hit MaxNodes.
	Truncated bool

	// nodes indexes this walk's nodes by their canonical graph node; the
	// small per-bucket entries are told apart by crash-usage vector, so
	// the walk's dedup identity is exactly the serial checker's
	// (configuration, crash-usage, output-history) triple. The first
	// entry per canonical node is inlined: crash-free walks (one usage
	// vector per node) never allocate a bucket slice.
	nodes walkIndex
	count int
	// order lists the nodes in BFS discovery order (init first), making
	// post-exploration passes — in particular the liveness DFS sweep —
	// deterministic instead of map-ordered.
	order []*node
	init  *node
	// arena batch-allocates walk nodes and usedArena their crash-usage
	// vectors (they live and die with the Result, so chunked allocation
	// is safe and cheap). arenaHint shrinks the FIRST chunk below the
	// 512-node default when the graph is small (its canonical node
	// count), so a tiny walk over a tiny graph does not allocate a
	// 512-node block; larger walks use default-size chunks — a budgeted
	// or quota-restricted walk may visit only a slice of a big cached
	// graph, so the hint is a cap on waste, not a preallocation target.
	arena     []node
	arenaHint int
	usedArena []int
	valences  map[*node]int
}

// OK reports whether the exploration completed without violations.
func (r *Result) OK() bool { return len(r.Violations) == 0 && !r.Truncated }

type node struct {
	used   []int // crashes used per process
	parent *node
	via    schedule.Event
	// ord is the node's BFS discovery index (position in Result.order),
	// letting post-exploration sweeps keep per-node state in flat
	// ord-indexed slices instead of maps.
	ord int32
	// succ caches step successors (crash successors are recomputed).
	succ []*node
	// gn is the node's canonical twin in the shared exploration graph
	// the walk ran on (see Graph); it carries the configuration's packed
	// identity, the output history (gn.outs[p] is the first value process
	// p ever output along this path, -1 if none — outputs survive crashes
	// in the paper's model, so a process that decided, crashed and
	// re-decided differently violates agreement even though its local
	// decided state was erased), the precomputed decision vector, and
	// the successor set.
	gn *gnode
}

// wentry is one walk-index slot: a canonical graph node and its walk
// twins. The common case of a single crash-usage vector stays inline in
// first; further vectors overflow into rest.
type wentry struct {
	gn    *gnode
	first *node
	rest  []*node
}

// walkIndex is the per-walk dedup index: an open-addressed table from
// canonical graph node to this walk's (node, crash-usage) twins. It
// probes with the gnode's precomputed packed-identity hash (linear
// probing, power-of-two capacity, grown at 3/4 load) and compares slot
// identity by gnode pointer, so a walk lookup is a few pointer probes
// with no hashing work at all. The table lives and dies with its Result
// (post-exploration analyses keep using it), so unlike the frontier and
// sweep scratch it is not pooled.
type walkIndex struct {
	tab  []wentry
	live int
}

// init sizes the table so hint entries fit under 3/4 load.
func (w *walkIndex) init(hint int) {
	capacity := 16
	for capacity*3 < hint*4 {
		capacity <<= 1
	}
	w.tab = make([]wentry, capacity)
	w.live = 0
}

// slot returns the entry for gn, or the empty slot where it would be
// inserted.
func (w *walkIndex) slot(gn *gnode) *wentry {
	mask := uint64(len(w.tab) - 1)
	for i := gn.hash & mask; ; i = (i + 1) & mask {
		e := &w.tab[i]
		if e.gn == gn || e.gn == nil {
			return e
		}
	}
}

func (w *walkIndex) grow() {
	old := w.tab
	next := make([]wentry, len(old)*2)
	mask := uint64(len(next) - 1)
	for i := range old {
		e := &old[i]
		if e.gn == nil {
			continue
		}
		j := e.gn.hash & mask
		for next[j].gn != nil {
			j = (j + 1) & mask
		}
		next[j] = *e
	}
	w.tab = next
}

// add registers nd in the walk's dedup index and discovery order.
func (r *Result) add(nd *node) {
	w := &r.nodes
	e := w.slot(nd.gn)
	if e.gn == nil {
		if (w.live+1)*4 >= len(w.tab)*3 {
			w.grow()
			e = w.slot(nd.gn)
		}
		e.gn = nd.gn
		e.first = nd
		w.live++
	} else {
		e.rest = append(e.rest, nd)
	}
	nd.ord = int32(r.count)
	r.order = append(r.order, nd)
	r.count++
}

// lookup finds this walk's node for (gn, used), or nil. A nil gn (a
// schedule that leaves the explored graph) finds nothing.
func (r *Result) lookup(gn *gnode, used []int) *node {
	if gn == nil {
		return nil
	}
	e := r.nodes.slot(gn)
	if e.gn == nil {
		return nil
	}
	if eqUsed(e.first.used, used) {
		return e.first
	}
	for _, nd := range e.rest {
		if eqUsed(nd.used, used) {
			return nd
		}
	}
	return nil
}

// lookupPlus finds this walk's node for (gn, base with base[p]+1) without
// materializing the incremented usage vector.
func (r *Result) lookupPlus(gn *gnode, base []int, p int) *node {
	if gn == nil {
		return nil
	}
	e := r.nodes.slot(gn)
	if e.gn == nil {
		return nil
	}
	if eqUsedPlus(e.first.used, base, p) {
		return e.first
	}
	for _, nd := range e.rest {
		if eqUsedPlus(nd.used, base, p) {
			return nd
		}
	}
	return nil
}

// newNode hands out the next arena slot. The first chunk is
// min(arenaHint, 512) — see arenaHint — and later chunks the default.
func (r *Result) newNode() *node {
	if len(r.arena) == 0 {
		size := 512
		if r.arenaHint > 0 {
			if r.arenaHint < size {
				size = r.arenaHint
			}
			r.arenaHint = 0
		}
		r.arena = make([]node, size)
	}
	nd := &r.arena[0]
	r.arena = r.arena[1:]
	return nd
}

// newUsed hands out an n-length crash-usage vector from the arena (full
// capacity slice, so an append could never bleed into a neighbor).
func (r *Result) newUsed(n int) []int {
	if len(r.usedArena) < n {
		r.usedArena = make([]int, 512*n)
	}
	u := r.usedArena[:n:n]
	r.usedArena = r.usedArena[n:]
	return u
}

func eqUsed(a, b []int) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// eqUsedPlus reports a == base except a[p] == base[p]+1.
func eqUsedPlus(a, base []int, p int) bool {
	for i, v := range a {
		want := base[i]
		if i == p {
			want++
		}
		if v != want {
			return false
		}
	}
	return true
}

// freshOuts returns an all-undecided output vector.
func freshOuts(n int) []int8 {
	outs := make([]int8, n)
	for i := range outs {
		outs[i] = -1
	}
	return outs
}

// trace reconstructs the schedule from the initial node.
func (n *node) trace() schedule.Schedule {
	var rev []schedule.Event
	for cur := n; cur.parent != nil; cur = cur.parent {
		rev = append(rev, cur.via)
	}
	out := make(schedule.Schedule, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// Check explores the protocol's reachable state space under the given
// options and verifies agreement, validity and recoverable wait-freedom.
// It runs on a one-shot shared exploration graph; batch callers that
// construct a Graph once and Check it many times amortize the state-space
// expansion across requests while getting results identical to this
// function (there is exactly one exploration code path — Graph.Check).
func Check(pr Protocol, opts CheckOpts) (*Result, error) {
	g, err := NewGraph(pr, opts.Inputs)
	if err != nil {
		return nil, err
	}
	return g.Check(opts)
}

// walkState is one Check call's property-checking state: the validity
// predicate, the per-kind first-witness dedup, and the violation sink.
// It replaces the per-walk report/checkSafety closures and seen-kind map
// with a stack value, so a clean walk records violations for free.
type walkState struct {
	r        *Result
	validity func(int) bool
	inputs   []int
	// seen[k] dedups violations per kind (0 agreement, 1 validity,
	// 2 wait-freedom): the checker records the first witness of each.
	seen [3]bool
}

const (
	kindAgreement = iota
	kindValidity
	kindWaitFreedom
)

// valid applies the walk's validity predicate; the consensus default —
// a decided value must equal some process's input — is evaluated
// directly against the input vector, with no closure.
func (w *walkState) valid(d int) bool {
	if w.validity != nil {
		return w.validity(d)
	}
	for _, in := range w.inputs {
		if d == in {
			return true
		}
	}
	return false
}

var kindNames = [3]string{"agreement", "validity", "wait-freedom"}

func (w *walkState) report(kind int, nd *node, detail string) {
	if w.seen[kind] {
		return
	}
	w.seen[kind] = true
	w.r.Violations = append(w.r.Violations, &Violation{
		Kind: kindNames[kind], Trace: nd.trace(), Config: w.r.NodeConfig(nd), Detail: detail,
	})
}

// checkSafety verifies agreement and validity over the path's output
// history (parentOuts) extended by the decisions visible in nd's
// configuration, read from the node's precomputed decision vector and
// output history.
// Outputs persist across crashes: a process that decided, crashed and
// re-decided a different value is an agreement violation with its own
// earlier output.
func (w *walkState) checkSafety(nd *node, parentOuts []int8) {
	n := len(parentOuts)
	for p := 0; p < n; p++ {
		if v := nd.gn.decided[p]; v >= 0 {
			if prev := parentOuts[p]; prev >= 0 && prev != v {
				w.report(kindAgreement, nd, fmt.Sprintf(
					"p%d output %d, crashed, and re-decided %d", p, prev, v))
			}
		}
	}
	first, firstP := -1, -1
	for p := 0; p < n; p++ {
		v := nd.gn.outs[p]
		if v < 0 {
			continue
		}
		if !w.valid(int(v)) {
			w.report(kindValidity, nd, fmt.Sprintf(
				"p%d decided %d, not an input of any process", p, v))
		}
		if first == -1 {
			first, firstP = int(v), p
		} else if int(v) != first {
			w.report(kindAgreement, nd, fmt.Sprintf(
				"p%d decided %d but p%d decided %d", firstP, first, p, v))
		}
	}
}

// sweepFrame is one liveness-DFS stack frame.
type sweepFrame struct {
	nd  *node
	idx int
}

// sweepScratch is the pooled liveness-DFS working set: per-node colors
// (indexed by node.ord) and the explicit DFS stack. Pooled on the graph
// (Graph.postSweep) because, unlike the Result, it dies with the Check
// call.
type sweepScratch struct {
	color []uint8
	stack []sweepFrame
}

func (g *Graph) getSweep(n int) *sweepScratch {
	sc, _ := g.postSweep.Get().(*sweepScratch)
	if sc == nil {
		sc = &sweepScratch{}
	}
	if cap(sc.color) < n {
		sc.color = make([]uint8, n)
	} else {
		sc.color = sc.color[:n]
		clear(sc.color)
	}
	return sc
}

func (g *Graph) putSweep(sc *sweepScratch) {
	// Drop the stack's node pointers so pooling never retains a finished
	// walk's Result.
	clear(sc.stack[:cap(sc.stack)])
	sc.stack = sc.stack[:0]
	g.postSweep.Put(sc)
}

// checkLiveness detects recoverable wait-freedom violations: a cycle in
// the step-successor graph means the adversary can schedule some process to
// take infinitely many steps without crashing and without deciding (crash
// edges strictly consume quota, so no cycle contains a crash). Start nodes
// are swept in BFS discovery order, so the reported witness is
// deterministic for a given exploration.
func (r *Result) checkLiveness(w *walkState) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	sc := r.g.getSweep(r.count)
	defer r.g.putSweep(sc)
	color := sc.color
	// Iterative DFS to avoid deep recursion on long chains.
	stack := sc.stack[:0]
	for _, start := range r.order {
		if color[start.ord] != white {
			continue
		}
		stack = append(stack[:0], sweepFrame{nd: start})
		color[start.ord] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx < len(f.nd.succ) {
				child := f.nd.succ[f.idx]
				f.idx++
				switch color[child.ord] {
				case white:
					color[child.ord] = gray
					stack = append(stack, sweepFrame{nd: child})
				case gray:
					sc.stack = stack
					w.report(kindWaitFreedom, child, fmt.Sprintf(
						"cycle of crash-free steps through %s: some process runs forever without deciding",
						r.NodeConfig(child)))
					return
				}
				continue
			}
			color[f.nd.ord] = black
			stack = stack[:len(stack)-1]
		}
	}
	sc.stack = stack
}

// ReachableDecisions returns the set of values decided in configurations
// reachable from the node identified by applying sigma to the initial
// configuration (respecting remaining crash quota), as a sorted slice.
// It is the engine behind valency computations.
func (r *Result) ReachableDecisions(start *node) map[int]bool {
	mc := r.g.m
	out := make(map[int]bool)
	seen := map[*node]bool{start: true}
	stack := []*node{start}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p := 0; p < mc.n; p++ {
			if t := mc.state(nd.gn.words, p); t.decided {
				out[t.decision] = true
			}
		}
		for _, child := range r.allSucc(nd) {
			if !seen[child] {
				seen[child] = true
				stack = append(stack, child)
			}
		}
	}
	return out
}

// allSucc returns step and crash successors of nd that exist in the
// explored graph. Visited nodes were expanded during the walk, so the
// canonical crash successors are read lock-free off the graph node — no
// table lookup, no shared-graph mutex in the valency and liveness
// sweeps. Nodes left unexpanded by a truncated walk fall back to the
// locked lookup of each crash successor's words (FindCritical refuses
// truncated results anyway).
func (r *Result) allSucc(nd *node) []*node {
	out := append([]*node(nil), nd.succ...)
	if nd.gn.done.Load() {
		for p, cg := range nd.gn.crashSucc {
			if cg == nil {
				continue
			}
			if child := r.lookupPlus(cg, nd.used, p); child != nil {
				out = append(out, child)
			}
		}
		return out
	}
	g := r.g
	sp := g.getScratch()
	defer g.scratch.Put(sp)
	w := *sp
	for p := 0; p < g.m.n; p++ {
		copy(w, nd.gn.words)
		g.m.crash(w, p, g.inputs[p])
		if child := r.lookupPlus(g.find(w), nd.used, p); child != nil {
			out = append(out, child)
		}
	}
	return out
}

// Node looks up the explored node reached by a schedule from the initial
// configuration, or nil if the schedule leaves the explored graph.
func (r *Result) Node(sigma schedule.Schedule) *node {
	g := r.g
	used := make([]int, g.m.n)
	for _, e := range sigma {
		if e.Crash {
			used[e.P]++
		}
	}
	sp := g.getScratch()
	defer g.scratch.Put(sp)
	g.replay(*sp, sigma)
	return r.lookup(g.find(*sp), used)
}

// InitNode returns the initial node of the exploration.
func (r *Result) InitNode() *node { return r.init }

// NodeConfig decodes an explored node's configuration (for violations,
// tests and reports).
func (r *Result) NodeConfig(nd *node) Config { return r.g.m.config(nd.gn.words) }
