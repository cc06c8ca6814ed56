package model

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/schedule"
)

// Graph is a canonicalized, lazily-expanded exploration graph for one
// (protocol, inputs) pair, shared across many Check runs. NewGraph
// compiles the protocol to transition tables over its canonical
// reachable state machine (the same closure model.Fingerprint hashes),
// and a node is nothing but its packed fixed-width words: one state id
// per process, one value per object and the output history. Successors
// are table lookups over words, interning hashes with a word-mix loop
// and compares with == over words, and a Config is decoded only where
// one is returned or printed. Nodes live in an open-addressed
// table (power-of-two capacity, linear probing); hash collisions only
// cost probe steps, equality is always confirmed over the full packed
// identity, so hashing is a pure speedup, never a correctness input.
// Each node's successors are computed exactly once, with singleflight
// semantics: concurrent walks that reach an unexpanded node agree on
// one expander, the rest block until it is done.
//
// Crash usage is deliberately NOT part of a graph node's identity:
// transitions depend only on the configuration and the output history, so
// the same canonical node serves every path to its configuration no
// matter how many crashes the path spent. Each walk layers its own
// (node, crash-usage) bookkeeping on top (see Graph.Check), preserving
// the serial checker's (configuration, crash-usage, output-history)
// dedup exactly. This is what lets walks with different crash quotas —
// and the stages of a Theorem 13 chain, whose per-stage quotas reset —
// share every transition, output-merge and hash computation.
//
// A Graph is safe for concurrent use; Graph.Check may be called from any
// number of goroutines. Results are byte-identical to a fresh serial
// exploration of the same options (model.Check itself runs on a one-shot
// Graph, so there is exactly one exploration code path).
type Graph struct {
	m      *machine
	inputs []int

	mu sync.Mutex
	// table is the open-addressed interned-node index: power-of-two
	// capacity, linear probing on gnode.hash, grown at 3/4 load. Guarded
	// by mu.
	table []*gnode
	live  int
	// order lists the canonical nodes in intern order. It is the
	// deterministic spine of Export/ImportSnapshot: successor references
	// in a snapshot are positions in this list, and an imported graph
	// preserves the list exactly, so export -> import -> export
	// round-trips byte-identically.
	order []*gnode

	// rootOnce memoizes the empty-StartTrace walk root — every plain
	// Check on a warm graph starts there, so the initial configuration,
	// its decision vector and its intern lookup are paid once per graph,
	// not once per walk.
	rootOnce sync.Once
	rootNode *gnode

	// negOuts is the shared all-undecided output vector (read-only), the
	// parent history of every walk root's safety check.
	negOuts []int8
	// inputBits has bit v set when some process's input is v (inputs
	// are 0 or 1): the default validity test is one bit test.
	inputBits uint8

	// scratch pools the packing buffers of expansions, root replays and
	// post-exploration lookups.
	scratch sync.Pool

	interned atomic.Uint64
	expanded atomic.Uint64
	reused   atomic.Uint64
}

// GraphStats counts a graph's reuse: how many canonical nodes exist, how
// many expansions were performed, and how many expansion requests were
// served from already-expanded nodes. Reused/(Expanded+Reused) is the
// share of successor computations the graph amortized away.
type GraphStats struct {
	// Interned is the number of distinct canonical nodes in the store.
	Interned uint64 `json:"interned"`
	// Expanded is the number of node expansions performed (each computes
	// the node's step and crash successors exactly once).
	Expanded uint64 `json:"expanded"`
	// Reused is the number of expansion requests answered by an
	// already-expanded node — work some earlier walk (or an earlier visit
	// of this walk) already paid for.
	Reused uint64 `json:"reused"`
}

// HitRate returns Reused / (Expanded + Reused), or 0 before any walk.
func (s GraphStats) HitRate() float64 {
	if total := s.Expanded + s.Reused; total > 0 {
		return float64(s.Reused) / float64(total)
	}
	return 0
}

// Add accumulates other into s.
func (s *GraphStats) Add(other GraphStats) {
	s.Interned += other.Interned
	s.Expanded += other.Expanded
	s.Reused += other.Reused
}

// Sub returns the counter delta s - prev, the per-call attribution when a
// long-lived cached graph serves many calls.
func (s GraphStats) Sub(prev GraphStats) GraphStats {
	return GraphStats{
		Interned: s.Interned - prev.Interned,
		Expanded: s.Expanded - prev.Expanded,
		Reused:   s.Reused - prev.Reused,
	}
}

// gnode is one canonical node of the shared graph. All fields except the
// expansion set are written once at intern time and read-only afterwards;
// the expansion set (stepSucc, crashSucc and their edge flags) is
// written exactly once inside the sync.Once and published by the done
// flag.
type gnode struct {
	// words is the packed fixed-width identity (see machine) and hash
	// its mix — the graph's intern index key and the snapshot record's
	// check value, computed exactly once per canonical node.
	words []uint64
	hash  uint64
	// ord is the node's position in the graph's intern order, the
	// successor reference of its snapshot record and the index of its
	// twin chain in every walk (Result.head).
	ord int32
	// stepFlags and crashFlags hold one bit per edge of the first
	// flagWidth processes: bit p is set when the default safety check of
	// the step (crash) successor via p, against this node's outputs,
	// reports a violation. They belong to the expansion set and fill the
	// padding after ord, so they cost no memory.
	stepFlags, crashFlags uint16
	// outs is the output history decoded from the output lanes, and
	// decided[p] p's decision in the node's configuration (-1 if
	// undecided), precomputed so per-request safety checks need no table
	// walk. Both are carved from one allocation.
	outs, decided []int8

	once sync.Once
	done atomic.Bool
	// stepSucc[p] is the step successor via process p, nil for a decided
	// process (its no-op step cannot reach a new configuration).
	// crashSucc[p] is the crash successor of process p, nil when p is in
	// its initial state (crashing it changes nothing and only burns
	// quota, so every walk skips it). Both are carved from one
	// allocation.
	stepSucc, crashSucc []*gnode
}

// flagWidth is the number of processes whose edges carry safety flags
// (gnode.stepFlags, crashFlags); a walk gives edges of later processes
// the full safety check.
const flagWidth = 16

// validInput is the consensus default validity: d is some process's
// input.
func (g *Graph) validInput(d int) bool {
	return uint(d) < 2 && g.inputBits>>d&1 != 0
}

// unsafeEdge reports whether the default safety check of child, reached
// from a node whose output history is parentOuts, reports anything: a
// process re-deciding against its earlier output, two outputs that
// disagree, or an output that is no process's input. These depend only
// on the edge, so they are computed once per expansion, not per walk.
func (g *Graph) unsafeEdge(parentOuts []int8, child *gnode) bool {
	decided := child.decided[:len(child.outs)]
	parentOuts = parentOuts[:len(child.outs)]
	first := int8(-1)
	for p, v := range child.outs {
		if d := decided[p]; d >= 0 && parentOuts[p] >= 0 && parentOuts[p] != d {
			return true
		}
		if v < 0 {
			continue
		}
		if !g.validInput(int(v)) || first >= 0 && v != first {
			return true
		}
		first = v
	}
	return false
}

// flagEdges sets nd's edge flags from its expansion set.
func (g *Graph) flagEdges(nd *gnode) {
	for p := 0; p < min(g.m.n, flagWidth); p++ {
		if c := nd.stepSucc[p]; c != nil && g.unsafeEdge(nd.outs, c) {
			nd.stepFlags |= 1 << p
		}
		if c := nd.crashSucc[p]; c != nil && g.unsafeEdge(nd.outs, c) {
			nd.crashFlags |= 1 << p
		}
	}
}

// NewGraph validates the protocol and builds an empty shared graph for
// the given input vector (one 0 or 1 per process). Every Check run on
// the graph must use exactly these inputs — crash transitions and the
// validity default depend on them, so they are part of the graph's
// identity. Building compiles the protocol's transition tables (the
// canonical per-process reachable state closures); protocols whose
// closure exceeds the fingerprint budget, or whose objects have more
// than 2^16 values, are refused.
func NewGraph(pr Protocol, inputs []int) (*Graph, error) {
	mc, err := compile(pr)
	if err != nil {
		return nil, err
	}
	if len(inputs) != mc.n {
		return nil, fmt.Errorf("model: %d inputs for %d processes", len(inputs), mc.n)
	}
	for p, in := range inputs {
		if in != 0 && in != 1 {
			return nil, fmt.Errorf("model: input %d of process %d is not 0 or 1", in, p)
		}
	}
	g := &Graph{
		m: mc, inputs: append([]int(nil), inputs...),
		table:   make([]*gnode, 64),
		negOuts: freshOuts(mc.n),
	}
	for _, in := range inputs {
		g.inputBits |= 1 << in
	}
	return g, nil
}

// Inputs returns the input vector the graph is built for.
func (g *Graph) Inputs() []int {
	out := make([]int, len(g.inputs))
	copy(out, g.inputs)
	return out
}

// Stats snapshots the graph's reuse counters.
func (g *Graph) Stats() GraphStats {
	return GraphStats{
		Interned: g.interned.Load(),
		Expanded: g.expanded.Load(),
		Reused:   g.reused.Load(),
	}
}

// getScratch returns a pooled packing buffer of the graph's node width.
func (g *Graph) getScratch() *[]uint64 {
	if v := g.scratch.Get(); v != nil {
		return v.(*[]uint64)
	}
	w := make([]uint64, g.m.words)
	return &w
}

// probeLocked finds the canonical node with the given packed identity,
// or nil. Lock held.
func (g *Graph) probeLocked(h uint64, words []uint64) *gnode {
	mask := uint64(len(g.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		nd := g.table[i]
		if nd == nil {
			return nil
		}
		if nd.hash == h && wordsEqual(nd.words, words) {
			return nd
		}
	}
}

// insertLocked adds a fresh node to the open-addressed index, growing at
// 3/4 load. Lock held; the caller has already probed for absence.
func (g *Graph) insertLocked(nd *gnode) {
	if (g.live+1)*4 >= len(g.table)*3 {
		g.growLocked()
	}
	mask := uint64(len(g.table) - 1)
	i := nd.hash & mask
	for g.table[i] != nil {
		i = (i + 1) & mask
	}
	g.table[i] = nd
	g.live++
}

// growLocked doubles the index and rehashes from the stored hashes —
// packed identities are never re-hashed after intern.
func (g *Graph) growLocked() {
	next := make([]*gnode, len(g.table)*2)
	mask := uint64(len(next) - 1)
	for _, nd := range g.table {
		if nd == nil {
			continue
		}
		i := nd.hash & mask
		for next[i] != nil {
			i = (i + 1) & mask
		}
		next[i] = nd
	}
	g.table = next
}

// fillNode builds a canonical node over the packed identity w, adopting
// w itself and carving outs and decided from vec (length 2n).
func (g *Graph) fillNode(nd *gnode, w []uint64, h uint64, vec []int8) {
	n := g.m.n
	nd.words, nd.hash = w, h
	nd.outs, nd.decided = vec[:n:n], vec[n:2*n:2*n]
	for p := 0; p < n; p++ {
		nd.outs[p] = g.m.out(w, p)
		nd.decided[p] = g.m.state(w, p).dec8()
	}
}

// intern returns the canonical node with packed identity w, creating it
// if absent. w is caller scratch: a created node copies it.
func (g *Graph) intern(w []uint64) *gnode {
	h := hashWords(w)
	g.mu.Lock()
	if nd := g.probeLocked(h, w); nd != nil {
		g.mu.Unlock()
		return nd
	}
	nd := &gnode{ord: int32(len(g.order))}
	g.fillNode(nd, append([]uint64(nil), w...), h, make([]int8, 2*g.m.n))
	g.insertLocked(nd)
	g.order = append(g.order, nd)
	g.mu.Unlock()
	g.interned.Add(1)
	return nd
}

// find returns the canonical node with packed identity w without
// creating it, or nil — the lookup behind post-exploration analyses
// (Result.Node, crash successors of a truncated walk).
func (g *Graph) find(w []uint64) *gnode {
	h := hashWords(w)
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.probeLocked(h, w)
}

// ensure expands nd's successors if no walk has yet, with singleflight
// semantics: concurrent callers agree on one expander and the rest wait.
// The expansion is one table lookup and one intern per successor, plus
// the successors' edge flags.
func (g *Graph) ensure(nd *gnode) {
	if nd.done.Load() {
		g.reused.Add(1)
		return
	}
	fresh := false
	nd.once.Do(func() {
		n := g.m.n
		sp := g.getScratch()
		w := *sp
		succ := make([]*gnode, 2*n)
		nd.stepSucc, nd.crashSucc = succ[:n:n], succ[n:]
		for p := 0; p < n; p++ {
			if nd.decided[p] >= 0 {
				continue
			}
			copy(w, nd.words)
			g.m.step(w, p)
			nd.stepSucc[p] = g.intern(w)
		}
		for p := 0; p < n; p++ {
			if g.m.stateID(nd.words, p) == int(g.m.procs[p].init[g.inputs[p]]) {
				continue
			}
			copy(w, nd.words)
			g.m.crash(w, p, g.inputs[p])
			nd.crashSucc[p] = g.intern(w)
		}
		g.scratch.Put(sp)
		g.flagEdges(nd)
		g.expanded.Add(1)
		nd.done.Store(true)
		fresh = true
	})
	if !fresh {
		g.reused.Add(1)
	}
}

// replay writes into w the packed identity reached from the initial
// configuration by sigma: a step merges every decided process into the
// outputs, a crash leaves them alone.
func (g *Graph) replay(w []uint64, sigma schedule.Schedule) {
	g.m.initial(w, g.inputs)
	for _, e := range sigma {
		if e.Crash {
			g.m.crash(w, e.P, g.inputs[e.P])
		} else {
			g.m.step(w, e.P)
		}
	}
}

// root interns the walk's starting node: the initial configuration with
// the start trace applied. Crashes inside the trace do not consume the
// walk's crash quota. The empty-StartTrace root — every plain Check — is
// memoized, so warm walks skip the replay entirely.
func (g *Graph) root(startTrace schedule.Schedule) *gnode {
	if len(startTrace) == 0 {
		g.rootOnce.Do(func() { g.rootNode = g.buildRoot(nil) })
		return g.rootNode
	}
	return g.buildRoot(startTrace)
}

func (g *Graph) buildRoot(startTrace schedule.Schedule) *gnode {
	sp := g.getScratch()
	defer g.scratch.Put(sp)
	g.replay(*sp, startTrace)
	return g.intern(*sp)
}

// Check explores the graph under the given options and verifies
// agreement, validity and recoverable wait-freedom, sharing every node
// expansion with concurrent and past walks. opts.Inputs must equal the
// graph's inputs. The walk's own structures — twin-chain heads,
// crash-usage ids, discovery parents, BFS order, violation traces, node
// counts — are private to the call and live in the returned Result, in
// a few flat slices addressed by int32 index (a warm walk allocates a
// handful of blocks, none per node), and the Result is identical to a
// serial model.Check of the same options.
func (g *Graph) Check(opts CheckOpts) (*Result, error) {
	n := g.m.n
	if len(opts.Inputs) != n {
		return nil, fmt.Errorf("model: %d inputs for %d processes", len(opts.Inputs), n)
	}
	for p, in := range opts.Inputs {
		if in != g.inputs[p] {
			return nil, fmt.Errorf("model: graph built for inputs %v, check requested %v", g.inputs, opts.Inputs)
		}
	}
	quota := opts.CrashQuota
	if quota != nil && len(quota) != n {
		return nil, fmt.Errorf("model: %d crash quotas for %d processes", len(quota), n)
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 2_000_000
	}

	// Walk nodes, edges and usage ids are int32 indices; a walk that
	// fits in memory never comes near the cap this puts on MaxNodes.
	maxNodes = min(maxNodes, math.MaxInt32/(2*(n+1)))

	var done <-chan struct{}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, err
		}
		done = opts.Ctx.Done()
	}
	root := g.root(opts.StartTrace)
	r := g.newResult(quota, maxNodes)
	w := walkState{r: r, validity: opts.Validity}
	r.add(r.headOf(root), node{gn: root, parent: -1})

	// BFS over (configuration, crash-usage, output-history) walk nodes,
	// each backed by its canonical (configuration, output-history) graph
	// node plus this walk's crash-usage id. The loop mirrors the
	// original serial exploration exactly; only the successor
	// computations and the edges' safety facts come from the shared
	// graph. r.nodes is the queue: head indexes the node being expanded,
	// and children are appended behind it.
	w.checkSafety(0, g.negOuts)
	for head := int32(0); int(head) < len(r.nodes) && len(r.nodes) <= maxNodes; head++ {
		if done != nil && (head+1)%1024 == 0 {
			select {
			case <-done:
				return nil, opts.Ctx.Err()
			default:
			}
		}
		// Appending children may move r.nodes and r.usage: keep the
		// parent's fields, not a pointer to it. used still reads the
		// parent's counts after a move, since counts never change once
		// interned.
		gn, u := r.nodes[head].gn, r.nodes[head].usage
		used := r.usageRow(u)[:n]
		g.ensure(gn)

		// Step successors (decided processes take no-op steps, which
		// cannot reach new configurations — nil in the expansion).
		// Step children share the parent's crash-usage id.
		lo := int32(len(r.edges))
		for p, cg := range gn.stepSucc {
			if cg == nil {
				continue
			}
			s := r.headOf(cg)
			child := r.twin(*s, u)
			if child < 0 {
				child = r.add(s, node{gn: cg, parent: head, p: int32(p), usage: u})
				if w.full(gn.stepFlags, p) {
					w.checkSafety(child, gn.outs)
				}
			}
			r.edges = append(r.edges, child)
		}
		r.nodes[head].lo, r.nodes[head].hi = lo, int32(len(r.edges))

		// Crash successors: quota is this walk's overlay on the shared
		// structure; the initial-state skip is baked into the expansion.
		for p := 0; p < len(quota); p++ {
			cg := gn.crashSucc[p]
			if cg == nil || int(used[p]) >= quota[p] {
				continue
			}
			c := r.crashUsage(u, p, true)
			s := r.headOf(cg)
			if r.twin(*s, c) >= 0 {
				continue
			}
			child := r.add(s, node{gn: cg, parent: head, p: int32(p), crash: true, usage: c})
			if w.full(gn.crashFlags, p) {
				w.checkSafety(child, gn.outs)
			}
		}
	}
	if len(r.nodes) > maxNodes {
		r.Truncated = true
	}
	r.Nodes = len(r.nodes)

	if !opts.SkipLiveness && !r.Truncated {
		r.checkLiveness(&w)
	}
	return r, nil
}

// newResult sizes a walk from the graph's canonical node count: on a
// warm graph it is head's exact length and bounds a crash-free walk's
// node count, on a cold one it is a harmless underestimate that the
// slices grow past. head, the crash-usage rows (room for every vector
// the quota admits, up to 64) and the edge list are carved from one
// pointer-free block.
func (g *Graph) newResult(quota []int, maxNodes int) *Result {
	n := g.m.n
	interned := int(g.interned.Load())
	hint := min(interned, maxNodes) + 1
	rows := 1
	for _, q := range quota {
		rows = min(rows*(min(max(q, 0), 63)+1), 64)
	}
	usage := interned + 2*n*rows
	buf := make([]int32, usage+n*hint)
	return &Result{
		g:     g,
		nodes: make([]node, 0, hint),
		head:  buf[:interned:interned],
		usage: buf[interned : interned+2*n : usage],
		edges: buf[usage:usage:len(buf)],
	}
}
