package model

import (
	"fmt"
	"math"
	"math/bits"
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
// one is returned or printed.
//
// A node is an int32 id, its intern order, and its record lives in the
// graph's arena (see arena): words, hash, output and decision vectors,
// int32 successors and edge flags, in chunks that hold no pointers, so
// the garbage collector never scans a node. Nodes are indexed by an
// open-addressed table of ids (power-of-two capacity, linear probing);
// hash collisions only cost probe steps, equality is always confirmed
// over the full packed identity, so hashing is a pure speedup, never a
// correctness input. Each node's successors are computed exactly once:
// the first walk to reach an unexpanded node claims it through the
// node's state word, and a walk that meets a node another walk is
// expanding waits on the graph's condition variable until it is done.
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

	// mu guards table, count and the arena's growth, and is the locker
	// of expandDone.
	mu sync.Mutex
	// expandDone is broadcast when an expansion some walk waits for is
	// done (see ensure).
	expandDone sync.Cond
	// table is the open-addressed node index: 1 + a node id per slot, 0
	// for an empty slot, power-of-two capacity, linear probing on the
	// node's hash, grown at 3/4 load. It is allocated by the first
	// intern, or sized by ImportSnapshot.
	table []int32
	// count is the number of interned nodes, the next node id. An id is
	// its node's intern order: the deterministic spine of
	// Export/ImportSnapshot, whose successor references are ids, so
	// export -> import -> export round-trips byte-identically.
	count int32
	arena arena

	// rootOnce memoizes the empty-StartTrace walk root — every plain
	// Check on a warm graph starts there, so the initial configuration,
	// its decision vector and its intern lookup are paid once per graph,
	// not once per walk.
	rootOnce sync.Once
	rootNode int32

	// negOuts is the shared all-undecided output vector (read-only), the
	// parent history of every walk root's safety check.
	negOuts []int8
	// inputBits has bit v set when some process's input is v (inputs
	// are 0 or 1): the default validity test is one bit test.
	inputBits uint8

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

// Node states, the values of nodeMeta.state. A node is interned
// unexpanded; the first walk to reach it claims it (expanding), a walk
// that finds it claimed marks it awaited and waits, and the expander
// publishes its successors and edge flags by storing nodeDone.
const (
	nodeUnexpanded uint32 = iota
	nodeExpanding
	nodeAwaited
	nodeDone
)

// nodeMeta is the fixed-width part of a node's arena record.
type nodeMeta struct {
	// hash is the mix of the node's words: the intern index key and the
	// snapshot record's check value, computed exactly once per node.
	hash uint64
	// state is the node's expansion state. Its successors and edge flags
	// are read only after a load that returns nodeDone, the acquire that
	// pairs with the expander's store.
	state atomic.Uint32
	// stepFlags and crashFlags hold one bit per edge of the first
	// flagWidth processes: bit p is set when the default safety check of
	// the step (crash) successor via p, against this node's outputs,
	// reports a violation. They are written with the successors.
	stepFlags, crashFlags uint16
}

// chunk holds the arena records of a run of consecutive node ids, each
// field a flat slice with a fixed stride per node, none holding a
// pointer. Records are written once — identity at intern time under the
// graph lock, successors and flags by the node's one expander before it
// publishes nodeDone — and a chunk never moves once allocated, so walks
// read published records without a lock.
type chunk struct {
	// n and nw are the process count and the packed identity length,
	// the strides of the fields below.
	n, nw int
	// words holds each node's packed identity (see machine), nw words a
	// node.
	words []uint64
	// vecs holds each node's output history decoded from the output
	// lanes, then decided[p], p's decision in the node's configuration
	// (-1 if undecided), 2n a node, so per-request safety checks need no
	// table walk.
	vecs []int8
	// succ holds each node's step successors, then its crash successors,
	// 2n a node. Step successor p is -1 for a decided process (its no-op
	// step cannot reach a new configuration); crash successor p is -1
	// when p is in its initial state (crashing it changes nothing and
	// only burns quota, so every walk skips it).
	succ []int32
	meta []nodeMeta
}

func (c *chunk) wordsOf(i int) []uint64 { return c.words[i*c.nw : (i+1)*c.nw : (i+1)*c.nw] }

func (c *chunk) outsOf(i int) []int8 {
	b := 2 * c.n * i
	return c.vecs[b : b+c.n : b+c.n]
}

func (c *chunk) decidedOf(i int) []int8 {
	b := 2*c.n*i + c.n
	return c.vecs[b : b+c.n : b+c.n]
}

func (c *chunk) stepOf(i int) []int32 {
	b := 2 * c.n * i
	return c.succ[b : b+c.n : b+c.n]
}

func (c *chunk) crashOf(i int) []int32 {
	b := 2*c.n*i + c.n
	return c.succ[b : b+c.n : b+c.n]
}

// chunkShift sizes the chunks after the first: 1<<chunkShift node
// records, the same again, then doubling, so a graph's capacity doubles
// with each chunk and a small graph pays for a small one.
const chunkShift = 6

// arena is a graph's node storage: a fixed directory of chunks. The
// first chunk holds ids [0, first) — empty for a graph that grows by
// interning, exactly the imported nodes after ImportSnapshot — and the
// later chunks hold 1<<chunkShift, 1<<chunkShift, 2<<chunkShift, ...
// ids in turn. The directory never reallocates and chunks never move, so
// an id resolves to its record with a few arithmetic steps and no lock.
type arena struct {
	first int32
	dir   [33 - chunkShift]*chunk
}

// index returns the directory slot of node id's chunk and the id's
// index in it.
func (a *arena) index(id int32) (k, i int) {
	if id < a.first {
		return 0, int(id)
	}
	x := uint32(id - a.first)
	j := bits.Len32(x >> chunkShift)
	if j > 0 {
		x &^= 1 << (chunkShift + j - 1)
	}
	return 1 + j, int(x)
}

// at returns node id's chunk and its index there. The id must be
// interned.
func (a *arena) at(id int32) (*chunk, int) {
	k, i := a.index(id)
	return a.dir[k], i
}

// newChunk allocates a chunk of capacity node records for a protocol of
// n processes whose nodes are nw words.
func newChunk(capacity, n, nw int) *chunk {
	return &chunk{
		n: n, nw: nw,
		words: make([]uint64, capacity*nw),
		vecs:  make([]int8, capacity*2*n),
		succ:  make([]int32, capacity*2*n),
		meta:  make([]nodeMeta, capacity),
	}
}

// flagWidth is the number of processes whose edges carry safety flags
// (nodeMeta.stepFlags, crashFlags); a walk gives edges of later
// processes the full safety check.
const flagWidth = 16

// validInput is the consensus default validity: d is some process's
// input.
func (g *Graph) validInput(d int) bool {
	return uint(d) < 2 && g.inputBits>>d&1 != 0
}

// unsafeEdge reports whether the default safety check of node child,
// reached from a node whose output history is parentOuts, reports
// anything: a process re-deciding against its earlier output, two
// outputs that disagree, or an output that is no process's input. These
// depend only on the edge, so they are computed once per expansion, not
// per walk.
func (g *Graph) unsafeEdge(parentOuts []int8, child int32) bool {
	c, i := g.arena.at(child)
	outs, decided := c.outsOf(i), c.decidedOf(i)
	parentOuts = parentOuts[:len(outs)]
	first := int8(-1)
	for p, v := range outs {
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

// flagEdges sets the edge flags of record i of c from its successors.
func (g *Graph) flagEdges(c *chunk, i int) {
	outs, step, crash := c.outsOf(i), c.stepOf(i), c.crashOf(i)
	md := &c.meta[i]
	for p := 0; p < min(g.m.n, flagWidth); p++ {
		if s := step[p]; s >= 0 && g.unsafeEdge(outs, s) {
			md.stepFlags |= 1 << p
		}
		if s := crash[p]; s >= 0 && g.unsafeEdge(outs, s) {
			md.crashFlags |= 1 << p
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
		negOuts: freshOuts(mc.n),
	}
	g.expandDone.L = &g.mu
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

// stackWords is the widest packed identity a packing buffer holds on
// the caller's stack: nodes of up to 16 processes and 16 objects take 10
// words.
const stackWords = 16

// packBuf returns a packing buffer of the graph's node width: the
// caller's stack array when the node fits, else a fresh slice. Expansions,
// root replays and post-exploration lookups pack successors into it, and
// a node that fits allocates nothing.
func (g *Graph) packBuf(buf *[stackWords]uint64) []uint64 {
	if g.m.words <= stackWords {
		return buf[:g.m.words]
	}
	return make([]uint64, g.m.words)
}

// words returns node id's packed identity.
func (g *Graph) words(id int32) []uint64 {
	c, i := g.arena.at(id)
	return c.wordsOf(i)
}

// probeLocked finds the node with the given packed identity, or -1.
// Lock held.
func (g *Graph) probeLocked(h uint64, words []uint64) int32 {
	if len(g.table) == 0 {
		return -1
	}
	mask := uint64(len(g.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		ref := g.table[i]
		if ref == 0 {
			return -1
		}
		c, j := g.arena.at(ref - 1)
		if c.meta[j].hash == h && wordsEqual(c.wordsOf(j), words) {
			return ref - 1
		}
	}
}

// insertLocked adds node id with hash h to the open-addressed index,
// growing at 3/4 load. Lock held; the caller has already probed for
// absence.
func (g *Graph) insertLocked(id int32, h uint64) {
	if (int(g.count)+1)*4 >= len(g.table)*3 {
		g.growLocked()
	}
	mask := uint64(len(g.table) - 1)
	i := h & mask
	for g.table[i] != 0 {
		i = (i + 1) & mask
	}
	g.table[i] = id + 1
}

// growLocked doubles the index (the first intern makes it 64 slots) and
// reinserts the nodes in id order from their stored hashes — packed
// identities are never re-hashed after intern, and the arena is read in
// order.
func (g *Graph) growLocked() {
	next := make([]int32, max(len(g.table)*2, 64))
	mask := uint64(len(next) - 1)
	for id := int32(0); id < g.count; id++ {
		c, j := g.arena.at(id)
		i := c.meta[j].hash & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = id + 1
	}
	g.table = next
}

// fill writes the identity part of record i of c: the packed words w,
// their hash h, and the output and decision vectors decoded from them.
func (g *Graph) fill(c *chunk, i int, w []uint64, h uint64) {
	copy(c.wordsOf(i), w)
	c.meta[i].hash = h
	outs, decided := c.outsOf(i), c.decidedOf(i)
	for p := range outs {
		outs[p] = g.m.out(w, p)
		decided[p] = g.m.state(w, p).dec8()
	}
}

// intern returns the id of the node with packed identity w, creating it
// if absent. w is caller scratch: a created node copies it.
func (g *Graph) intern(w []uint64) int32 {
	h := hashWords(w)
	g.mu.Lock()
	defer g.mu.Unlock()
	if id := g.probeLocked(h, w); id >= 0 {
		return id
	}
	id := g.count
	k, i := g.arena.index(id)
	if g.arena.dir[k] == nil {
		g.arena.dir[k] = newChunk(1<<(chunkShift+max(k-2, 0)), g.m.n, g.m.words)
	}
	g.fill(g.arena.dir[k], i, w, h)
	g.insertLocked(id, h)
	g.count++
	g.interned.Add(1)
	return id
}

// find returns the id of the node with packed identity w without
// creating it, or -1 — the lookup behind post-exploration analyses
// (Result.Node, crash successors of a truncated walk).
func (g *Graph) find(w []uint64) int32 {
	h := hashWords(w)
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.probeLocked(h, w)
}

// ensure expands record i of c if no walk has yet, with singleflight
// semantics: the first caller claims the node through its state word
// and expands it, and a caller that finds it claimed waits until it is
// done. The expansion is one table lookup and one intern per successor,
// plus the successors' edge flags.
func (g *Graph) ensure(c *chunk, i int) {
	st := &c.meta[i].state
	if st.Load() == nodeDone {
		g.reused.Add(1)
		return
	}
	if !st.CompareAndSwap(nodeUnexpanded, nodeExpanding) {
		g.await(st)
		g.reused.Add(1)
		return
	}
	g.expand(c, i)
	g.expanded.Add(1)
	if st.Swap(nodeDone) == nodeAwaited {
		g.mu.Lock()
		g.expandDone.Broadcast()
		g.mu.Unlock()
	}
}

// await blocks until another walk's expansion of the node whose state
// word is st is done. The waiter marks the state awaited under the
// graph lock, which it holds until Wait releases it, so the expander's
// Broadcast — taken under the same lock after it stores nodeDone —
// cannot fall between the mark and the wait.
func (g *Graph) await(st *atomic.Uint32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		switch s := st.Load(); {
		case s == nodeDone:
			return
		case s == nodeExpanding && !st.CompareAndSwap(nodeExpanding, nodeAwaited):
			continue
		}
		g.expandDone.Wait()
	}
}

// expand computes the successors and edge flags of record i of c. Only
// the walk that claimed the node runs it.
func (g *Graph) expand(c *chunk, i int) {
	n := g.m.n
	var wb [stackWords]uint64
	w := g.packBuf(&wb)
	words, decided := c.wordsOf(i), c.decidedOf(i)
	step, crash := c.stepOf(i), c.crashOf(i)
	for p := 0; p < n; p++ {
		step[p] = -1
		if decided[p] >= 0 {
			continue
		}
		copy(w, words)
		g.m.step(w, p)
		step[p] = g.intern(w)
	}
	for p := 0; p < n; p++ {
		crash[p] = -1
		if g.m.stateID(words, p) == int(g.m.procs[p].init[g.inputs[p]]) {
			continue
		}
		copy(w, words)
		g.m.crash(w, p, g.inputs[p])
		crash[p] = g.intern(w)
	}
	g.flagEdges(c, i)
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
func (g *Graph) root(startTrace schedule.Schedule) int32 {
	if len(startTrace) == 0 {
		g.rootOnce.Do(func() { g.rootNode = g.buildRoot(nil) })
		return g.rootNode
	}
	return g.buildRoot(startTrace)
}

func (g *Graph) buildRoot(startTrace schedule.Schedule) int32 {
	var wb [stackWords]uint64
	w := g.packBuf(&wb)
	g.replay(w, startTrace)
	return g.intern(w)
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
		c, i := g.arena.at(gn)
		g.ensure(c, i)
		md := &c.meta[i]

		// Step successors (decided processes take no-op steps, which
		// cannot reach new configurations — -1 in the expansion).
		// Step children share the parent's crash-usage id.
		lo := int32(len(r.edges))
		for p, cg := range c.stepOf(i) {
			if cg < 0 {
				continue
			}
			s := r.headOf(cg)
			child := r.twin(*s, u)
			if child < 0 {
				child = r.add(s, node{gn: cg, parent: head, p: int32(p), usage: u})
				if w.full(md.stepFlags, p) {
					w.checkSafety(child, c.outsOf(i))
				}
			}
			r.edges = append(r.edges, child)
		}
		r.nodes[head].lo, r.nodes[head].hi = lo, int32(len(r.edges))

		// Crash successors: quota is this walk's overlay on the shared
		// structure; the initial-state skip is baked into the expansion.
		crash := c.crashOf(i)
		for p := 0; p < len(quota); p++ {
			cg := crash[p]
			if cg < 0 || int(used[p]) >= quota[p] {
				continue
			}
			cu := r.crashUsage(u, p, true)
			s := r.headOf(cg)
			if r.twin(*s, cu) >= 0 {
				continue
			}
			child := r.add(s, node{gn: cg, parent: head, p: int32(p), crash: true, usage: cu})
			if w.full(md.crashFlags, p) {
				w.checkSafety(child, c.outsOf(i))
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
