package model

import (
	"context"
	"fmt"

	"repro/internal/schedule"
)

// DefaultMaxNodes is the node bound of a walk whose CheckOpts.MaxNodes is
// 0 or less: the model checker's default.
const DefaultMaxNodes = 2_000_000

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
	// (0 or less means DefaultMaxNodes).
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

	// nodes holds the walk's nodes in BFS discovery order, the root first.
	// It is the BFS queue itself, and every other walk structure addresses
	// it by int32 index: parents, step-successor ranges, twin chains, and
	// the per-node state of the liveness, valency and critical-search
	// sweeps, so those sweeps are deterministic and use flat slices. A
	// node holds no pointer, so the garbage collector never scans the
	// list and growing it copies plain memory.
	nodes []node
	// edges holds every expanded node's step successors, at
	// [node.lo, node.hi).
	edges []int32
	// head is the walk's dedup index, addressed by graph node id:
	// head[gn] is 1 + the index of the newest walk node over graph node
	// gn, 0 if the walk has none, and older twins chain through
	// node.twin. It is sized to the graph when the walk starts and grown
	// when a cold walk meets a node interned since, so it costs 4 bytes
	// per graph node against the graph's arena record of 16 + 8w + 10n
	// bytes (w packed words, n processes).
	head []int32
	// usage holds the walk's interned crash-usage vectors, one row of 2n
	// int32 per usage id: the vector's n crash counts, then its memo,
	// where memo[p] is the id of the vector plus one crash of p (0 until
	// computed: id 0 is the all-zero vector, the sum of no crash). A
	// twin test is thereby one int32 compare, and the walk's dedup
	// identity is exactly the serial checker's (configuration,
	// crash-usage, output-history) triple.
	usage []int32
	// valences caches the valency masks by node index.
	valences []uint8
}

// OK reports whether the exploration completed without violations.
func (r *Result) OK() bool { return len(r.Violations) == 0 && !r.Truncated }

// node is one (configuration, crash-usage, output-history) walk node.
type node struct {
	// gn is the id of the node's canonical twin in the shared exploration
	// graph the walk ran on (see Graph), whose arena record carries the
	// configuration's packed identity, the output history (outs[p] is the
	// first value process p ever output along this path, -1 if none —
	// outputs survive crashes in the paper's model, so a process that
	// decided, crashed and re-decided differently violates agreement even
	// though its local decided state was erased), the precomputed
	// decision vector, and the successor set.
	gn int32
	// parent is the discovering node's index (-1 at the root), and p and
	// crash the event it was discovered by.
	parent, p int32
	// usage is the id of the node's crash-usage vector in Result.usage.
	usage int32
	// lo and hi delimit the step successors in Result.edges; the range is
	// empty until the node is expanded.
	lo, hi int32
	// twin is 1 + the index of the next older walk node over gn, 0 at the
	// end of the chain.
	twin  int32
	crash bool
	// color is the liveness sweep's DFS mark.
	color uint8
}

// headOf returns graph node gn's twin-chain head, first growing head
// over the nodes interned since the walk sized it.
func (r *Result) headOf(gn int32) *int32 {
	if int(gn) >= len(r.head) {
		grown := make([]int32, max(2*len(r.head), int(gn)+1, int(r.g.interned.Load())))
		copy(grown, r.head)
		r.head = grown
	}
	return &r.head[gn]
}

// add appends nd to the walk at the head of its twin chain, whose head
// s is (from headOf, and searched in vain), and returns its index.
func (r *Result) add(s *int32, nd node) int32 {
	i := int32(len(r.nodes))
	nd.twin = *s
	*s = i + 1
	r.nodes = append(r.nodes, nd)
	return i
}

// lookup finds this walk's node over graph node gn with crash-usage id
// u and returns its index, or -1. A negative gn (a schedule that leaves
// the explored graph), a node interned after the walk or a negative u
// finds nothing.
func (r *Result) lookup(gn int32, u int32) int32 {
	if gn < 0 || u < 0 || int(gn) >= len(r.head) {
		return -1
	}
	return r.twin(r.head[gn], u)
}

// twin searches the twin chain starting at head value ref for the node
// with crash-usage id u.
func (r *Result) twin(ref int32, u int32) int32 {
	for ; ref != 0; ref = r.nodes[ref-1].twin {
		if r.nodes[ref-1].usage == u {
			return ref - 1
		}
	}
	return -1
}

// usageRow returns crash-usage id u's row: its n crash counts, then its
// memo.
func (r *Result) usageRow(u int32) []int32 {
	s := 2 * int32(r.g.m.n)
	return r.usage[u*s : (u+1)*s : (u+1)*s]
}

// crashUsage returns the id of crash-usage vector u plus one crash of p.
// With intern set it interns that vector on first sight and memoizes the
// answer; without, it changes nothing and returns -1 for a vector the
// walk never met. Vectors are interned along one canonical path, crashes
// counted in process order, so every prefix of an interned vector's path
// is interned too, and a vector reached along another path is found by
// descending its canonical path, never by comparing vectors.
func (r *Result) crashUsage(u int32, p int, intern bool) int32 {
	n := r.g.m.n
	if c := r.usageRow(u)[n+p]; c != 0 {
		return c
	}
	// used stays valid if interning moves r.usage: counts never change.
	used := r.usageRow(u)[:n]
	id := int32(0)
	for q, k := range used {
		if q == p {
			k++
		}
		for ; k > 0; k-- {
			next := r.usageRow(id)[n+q]
			if next == 0 {
				if !intern {
					return -1
				}
				next = r.internUsage(id, q)
			}
			id = next
		}
	}
	if intern {
		r.usageRow(u)[n+p] = id
	}
	return id
}

// internUsage appends crash-usage vector u plus one crash of p, records
// it as u's memo for p, and returns its id. The rows grow by make and
// copy: appending a made slice allocates a temporary under -race.
func (r *Result) internUsage(u int32, p int) int32 {
	n := r.g.m.n
	id := int32(len(r.usage) / (2 * n))
	if len(r.usage)+2*n > cap(r.usage) {
		grown := make([]int32, len(r.usage), 2*cap(r.usage))
		copy(grown, r.usage)
		r.usage = grown
	}
	r.usage = r.usage[:len(r.usage)+2*n]
	row := r.usageRow(id)
	copy(row, r.usageRow(u)[:n])
	clear(row[n:])
	row[p]++
	r.usageRow(u)[n+p] = id
	return id
}

// freshOuts returns an all-undecided output vector.
func freshOuts(n int) []int8 {
	outs := make([]int8, n)
	for i := range outs {
		outs[i] = -1
	}
	return outs
}

// trace reconstructs the schedule from the root to node i.
func (r *Result) trace(i int32) schedule.Schedule {
	depth := 0
	for j := i; r.nodes[j].parent >= 0; j = r.nodes[j].parent {
		depth++
	}
	out := make(schedule.Schedule, depth)
	for j := i; r.nodes[j].parent >= 0; j = r.nodes[j].parent {
		depth--
		out[depth] = schedule.Event{P: int(r.nodes[j].p), Crash: r.nodes[j].crash}
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
// a decided value must equal some process's input — is one bit test, with
// no closure.
func (w *walkState) valid(d int) bool {
	if w.validity != nil {
		return w.validity(d)
	}
	return w.r.g.validInput(d)
}

// full reports whether a new child reached by an edge of process p, out
// of a node with edge flags flags, takes the full safety check: the edge
// is flagged, p is beyond the flag width, or a custom validity makes the
// default flags meaningless. Any other child would report nothing.
func (w *walkState) full(flags uint16, p int) bool {
	return w.validity != nil || p >= flagWidth || flags>>p&1 != 0
}

var kindNames = [3]string{"agreement", "validity", "wait-freedom"}

func (w *walkState) report(kind int, i int32, detail string) {
	if w.seen[kind] {
		return
	}
	w.seen[kind] = true
	w.r.Violations = append(w.r.Violations, &Violation{
		Kind: kindNames[kind], Trace: w.r.trace(i), Config: w.r.NodeConfig(&w.r.nodes[i]), Detail: detail,
	})
}

// checkSafety verifies agreement and validity over the path's output
// history (parentOuts) extended by the decisions visible in node i's
// configuration, read from the node's precomputed decision vector and
// output history. A violation's detail is formatted only for the first
// witness of its kind, the one report keeps.
// Outputs persist across crashes: a process that decided, crashed and
// re-decided a different value is an agreement violation with its own
// earlier output.
func (w *walkState) checkSafety(i int32, parentOuts []int8) {
	c, j := w.r.g.arena.at(w.r.nodes[i].gn)
	outs, decided := c.outsOf(j), c.decidedOf(j)
	n := len(parentOuts)
	for p := 0; p < n; p++ {
		if v := decided[p]; v >= 0 {
			if prev := parentOuts[p]; prev >= 0 && prev != v && !w.seen[kindAgreement] {
				w.report(kindAgreement, i, fmt.Sprintf(
					"p%d output %d, crashed, and re-decided %d", p, prev, v))
			}
		}
	}
	first, firstP := -1, -1
	for p := 0; p < n; p++ {
		v := outs[p]
		if v < 0 {
			continue
		}
		if !w.valid(int(v)) && !w.seen[kindValidity] {
			w.report(kindValidity, i, fmt.Sprintf(
				"p%d decided %d, not an input of any process", p, v))
		}
		if first == -1 {
			first, firstP = int(v), p
		} else if int(v) != first && !w.seen[kindAgreement] {
			w.report(kindAgreement, i, fmt.Sprintf(
				"p%d decided %d but p%d decided %d", firstP, first, p, v))
		}
	}
}

// sweepFrame is one liveness-DFS stack frame: a node and the position of
// its next unvisited step successor in Result.edges.
type sweepFrame struct{ nd, e int32 }

// checkLiveness detects recoverable wait-freedom violations: a cycle in
// the step-successor graph means the adversary can schedule some process to
// take infinitely many steps without crashing and without deciding (crash
// edges strictly consume quota, so no cycle contains a crash). Start nodes
// are swept in BFS discovery order, so the reported witness is
// deterministic for a given exploration. The DFS colors live in the nodes
// and the stack starts in a fixed array, so the sweep allocates only when
// a path runs deeper than that array.
func (r *Result) checkLiveness(w *walkState) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	nodes := r.nodes
	// Iterative DFS to avoid deep recursion on long chains.
	var buf [64]sweepFrame
	stack := buf[:0]
	for start := range nodes {
		if nodes[start].color != white {
			continue
		}
		stack = append(stack[:0], sweepFrame{nd: int32(start), e: nodes[start].lo})
		nodes[start].color = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.e < nodes[f.nd].hi {
				child := r.edges[f.e]
				f.e++
				switch nodes[child].color {
				case white:
					nodes[child].color = gray
					stack = append(stack, sweepFrame{nd: child, e: nodes[child].lo})
				case gray:
					w.report(kindWaitFreedom, child, fmt.Sprintf(
						"cycle of crash-free steps through %s: some process runs forever without deciding",
						r.NodeConfig(&nodes[child])))
					return
				}
				continue
			}
			nodes[f.nd].color = black
			stack = stack[:len(stack)-1]
		}
	}
}

// ReachableDecisions returns the set of values decided in configurations
// reachable from start within the explored (crash-budgeted) graph, as a
// map from decided value to true (empty for nil or another Result's
// node). It is the engine behind valency computations.
func (r *Result) ReachableDecisions(start *node) map[int]bool {
	g := r.g
	out := make(map[int]bool)
	i := r.indexOf(start)
	if i < 0 {
		return out
	}
	seen := make([]bool, len(r.nodes))
	seen[i] = true
	stack := []int32{i}
	var succ []int32
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		words := g.words(r.nodes[i].gn)
		for p := 0; p < g.m.n; p++ {
			if t := g.m.state(words, p); t.decided {
				out[t.decision] = true
			}
		}
		succ = r.succs(i, succ[:0])
		for _, child := range succ {
			if !seen[child] {
				seen[child] = true
				stack = append(stack, child)
			}
		}
	}
	return out
}

// succs appends node i's successors in the walk to buf: its step
// successors, then the crash successors the walk reached. Visited nodes
// were expanded during the walk, so the canonical crash successors are
// read lock-free off the graph node — no table lookup, no shared-graph
// mutex in the valency and critical-search sweeps. Nodes left unexpanded
// by a truncated walk fall back to the locked lookup of each crash
// successor's words (FindCritical refuses truncated results anyway).
func (r *Result) succs(i int32, buf []int32) []int32 {
	nd := &r.nodes[i]
	buf = append(buf, r.edges[nd.lo:nd.hi]...)
	g := r.g
	c, j := g.arena.at(nd.gn)
	if c.meta[j].state.Load() == nodeDone {
		for p, cg := range c.crashOf(j) {
			if cg < 0 {
				continue
			}
			if child := r.lookup(cg, r.crashUsage(nd.usage, p, false)); child >= 0 {
				buf = append(buf, child)
			}
		}
		return buf
	}
	var wb [stackWords]uint64
	w := g.packBuf(&wb)
	for p := 0; p < g.m.n; p++ {
		copy(w, c.wordsOf(j))
		g.m.crash(w, p, g.inputs[p])
		if child := r.lookup(g.find(w), r.crashUsage(nd.usage, p, false)); child >= 0 {
			buf = append(buf, child)
		}
	}
	return buf
}

// Node looks up the explored node reached by a schedule from the initial
// configuration, or nil if the schedule leaves the explored graph. Its
// crash-usage id is found by counting the schedule's crashes in process
// order, the order usage vectors are interned in.
func (r *Result) Node(sigma schedule.Schedule) *node {
	g := r.g
	u := int32(0)
	for p := 0; p < g.m.n && u >= 0; p++ {
		for _, e := range sigma {
			if e.Crash && e.P == p && u >= 0 {
				u = r.crashUsage(u, p, false)
			}
		}
	}
	var wb [stackWords]uint64
	w := g.packBuf(&wb)
	g.replay(w, sigma)
	if i := r.lookup(g.find(w), u); i >= 0 {
		return &r.nodes[i]
	}
	return nil
}

// indexOf returns the index of a node handle (from Node or InitNode),
// found on its graph node's twin chain, or -1 for nil or a handle from
// another Result.
func (r *Result) indexOf(nd *node) int32 {
	if nd == nil || int(nd.gn) >= len(r.head) {
		return -1
	}
	for ref := r.head[nd.gn]; ref != 0; ref = r.nodes[ref-1].twin {
		if &r.nodes[ref-1] == nd {
			return ref - 1
		}
	}
	return -1
}

// InitNode returns the initial node of the exploration.
func (r *Result) InitNode() *node { return &r.nodes[0] }

// NodeConfig decodes an explored node's configuration (for violations,
// tests and reports).
func (r *Result) NodeConfig(nd *node) Config { return r.g.m.config(r.g.words(nd.gn)) }
