package model

import "fmt"

// GraphSnapshot is a self-contained, deterministic copy of a Graph's
// interned node table, the unit of exchange between a live Graph and the
// on-disk graph store (internal/graphstore). A node is its packed words,
// the same identity the graph interns, and node references are positions
// in Nodes, so records are fixed-width given the protocol's process and
// object counts.
//
// The snapshot preserves the graph's intern order exactly, which makes
// the round trip Export -> ImportSnapshot -> Export byte-stable: the
// second export reproduces the first snapshot verbatim (plus any nodes
// interned in between, appended after the preserved prefix).
type GraphSnapshot struct {
	// Procs and Objects are the protocol dimensions every node record is
	// sized by.
	Procs   int
	Objects int
	// Inputs is the input vector the graph is built for.
	Inputs []int
	// Nodes is the interned node table in intern order.
	Nodes []SnapshotNode
}

// SnapshotNode is one canonical graph node in exchange form. Words has
// length NodeWords(Procs, Objects); StepSucc and CrashSucc have length
// Procs.
type SnapshotNode struct {
	// Words is the node's packed identity: one state id per process (an
	// index into the protocol's canonical closure), one value per object
	// and the output history.
	Words []uint64
	// Check is the 64-bit hash of Words, stored so a loader can verify a
	// record's integrity independently of the container's checksums
	// (ImportSnapshot recomputes and compares).
	Check uint64
	// Done reports whether the node's expansion is included. Unexpanded
	// nodes import with no successors and expand lazily on first walk.
	Done bool
	// StepSucc[p] is the step successor via process p as a position in
	// Nodes, or -1 (decided process, or node not Done). CrashSucc[p] is
	// the crash successor of process p, or -1 (initial state, or node
	// not Done).
	StepSucc  []int32
	CrashSucc []int32
}

// NumExpanded counts the snapshot's Done nodes.
func (s *GraphSnapshot) NumExpanded() int {
	n := 0
	for i := range s.Nodes {
		if s.Nodes[i].Done {
			n++
		}
	}
	return n
}

// Export snapshots the graph's interned node table, a copy of the arena
// in GraphSnapshot's layout. It is safe to call concurrently with walks:
// the node count is pinned under the graph lock, and a node whose
// expansion raced the snapshot (not done yet, or some successor interned
// after the pin) is exported unexpanded, so the snapshot is always
// internally consistent. Because interning only appends, a later Export
// reproduces an earlier one as its prefix — the contract the append-only
// graph store's delta spilling relies on. The snapshot shares no memory
// with the graph.
func (g *Graph) Export() *GraphSnapshot {
	g.mu.Lock()
	pinned := g.count
	g.mu.Unlock()

	n, nw := g.m.n, g.m.words
	total := int(pinned)
	snap := &GraphSnapshot{
		Procs:   n,
		Objects: g.m.m,
		Inputs:  g.Inputs(),
		Nodes:   make([]SnapshotNode, total),
	}
	words := make([]uint64, total*nw)
	succ := make([]int32, total*2*n)
	for id := range snap.Nodes {
		c, i := g.arena.at(int32(id))
		rec := &snap.Nodes[id]
		rec.Words = words[id*nw : (id+1)*nw : (id+1)*nw]
		copy(rec.Words, c.wordsOf(i))
		rec.Check = c.meta[i].hash
		rec.StepSucc = succ[2*n*id : 2*n*id+n : 2*n*id+n]
		rec.CrashSucc = succ[2*n*id+n : 2*n*(id+1) : 2*n*(id+1)]
		// The state load is an acquire on the expansion set. Successors
		// interned after the pin are not in the snapshot; exporting such a
		// node unexpanded keeps every reference internal.
		rec.Done = c.meta[i].state.Load() == nodeDone
		if rec.Done {
			copy(rec.StepSucc, c.stepOf(i))
			copy(rec.CrashSucc, c.crashOf(i))
			for p := 0; p < n && rec.Done; p++ {
				rec.Done = rec.StepSucc[p] < pinned && rec.CrashSucc[p] < pinned
			}
		}
		if !rec.Done {
			for p := 0; p < n; p++ {
				rec.StepSucc[p], rec.CrashSucc[p] = -1, -1
			}
		}
	}
	return snap
}

// ImportSnapshot populates an empty graph from a snapshot, copying it
// into one arena chunk sized to the snapshot exactly and rebuilding the
// node index (and each Done node's expansion) without a single table
// lookup. The graph must be freshly built by NewGraph for the same
// protocol shape and input vector; importing into a graph that already
// interned nodes is an error.
//
// Every structural property of the snapshot is validated — dimensions,
// each record's check value against its words, state ids inside the
// compiled closure, object values in range, zero padding lanes,
// duplicate nodes, successor references and the successor rules (no
// step successor for a decided process, no crash successor for a
// process in its initial state) — so a corrupted snapshot (even one that
// slipped past the container's checksums) is rejected as a whole rather
// than imported as a wrong graph. Callers degrade to a cold
// (re-expanding) graph on error; they never get a graph that walks
// differently from a fresh expansion.
func (g *Graph) ImportSnapshot(snap *GraphSnapshot) error {
	mc := g.m
	n, nw := mc.n, mc.words
	if snap.Procs != n || snap.Objects != mc.m {
		return fmt.Errorf("model: snapshot shape %d procs/%d objects, graph has %d/%d",
			snap.Procs, snap.Objects, n, mc.m)
	}
	if len(snap.Inputs) != len(g.inputs) {
		return fmt.Errorf("model: snapshot has %d inputs, graph %d", len(snap.Inputs), len(g.inputs))
	}
	for p, in := range snap.Inputs {
		if in != g.inputs[p] {
			return fmt.Errorf("model: snapshot built for inputs %v, graph for %v", snap.Inputs, g.inputs)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.count != 0 {
		return fmt.Errorf("model: import into a graph with %d interned nodes", g.count)
	}
	total := len(snap.Nodes)
	if total == 0 {
		return nil
	}

	// The records fill a LOCAL chunk and node index (presized so it never
	// grows), which the graph adopts only after every record validates —
	// a rejected snapshot leaves the graph empty and cold, it never
	// half-imports.
	capacity := 64
	for capacity*3 < (total+1)*4 {
		capacity <<= 1
	}
	table := make([]int32, capacity)
	mask := uint64(capacity - 1)
	c := newChunk(total, n, nw)
	for i := range snap.Nodes {
		rec := &snap.Nodes[i]
		if len(rec.Words) != nw || len(rec.StepSucc) != n || len(rec.CrashSucc) != n {
			return fmt.Errorf("model: snapshot node %d has wrong field lengths", i)
		}
		if hashWords(rec.Words) != rec.Check {
			return fmt.Errorf("model: snapshot node %d check value mismatch (corrupt record)", i)
		}
		if err := mc.checkWords(rec.Words); err != nil {
			return fmt.Errorf("model: snapshot node %d: %w", i, err)
		}
		slot := rec.Check & mask
		for ; table[slot] != 0; slot = (slot + 1) & mask {
			if j := int(table[slot] - 1); c.meta[j].hash == rec.Check && wordsEqual(c.wordsOf(j), rec.Words) {
				return fmt.Errorf("model: snapshot node %d duplicates an earlier node", i)
			}
		}
		g.fill(c, i, rec.Words, rec.Check)
		table[slot] = int32(i) + 1
	}

	// Second pass: copy the expansions, check them against the successor
	// rules and compute their edge flags. References may point anywhere
	// in the chunk (a node interned early can be expanded late), which is
	// why the pass waits until every record exists, and why the chunk is
	// in the arena while it runs: the flags read the successors' records.
	g.arena.first, g.arena.dir[0] = int32(total), c
	expanded, err := g.importExpansions(snap, c)
	if err != nil {
		g.arena.first, g.arena.dir[0] = 0, nil
		return err
	}
	g.table, g.count = table, int32(total)
	g.interned.Store(uint64(total))
	g.expanded.Store(uint64(expanded))
	return nil
}

// importExpansions copies the Done records' successors into c, whose
// records are the snapshot's nodes by position, and returns how many it
// marked done. Lock held.
func (g *Graph) importExpansions(snap *GraphSnapshot, c *chunk) (int, error) {
	mc := g.m
	total := len(snap.Nodes)
	expanded := 0
	for i := range snap.Nodes {
		rec := &snap.Nodes[i]
		if !rec.Done {
			continue
		}
		words, decided := c.wordsOf(i), c.decidedOf(i)
		step, crash := c.stepOf(i), c.crashOf(i)
		for p := range step {
			si, ci := rec.StepSucc[p], rec.CrashSucc[p]
			if int(si) >= total || int(ci) >= total {
				return 0, fmt.Errorf("model: snapshot node %d successor of process %d out of %d nodes", i, p, total)
			}
			step[p], crash[p] = -1, -1
			switch decided := decided[p] >= 0; {
			case decided && si >= 0:
				return 0, fmt.Errorf("model: snapshot node %d has a step successor for decided process %d", i, p)
			case !decided && si < 0:
				return 0, fmt.Errorf("model: snapshot node %d done but missing step successor for process %d", i, p)
			case si >= 0:
				step[p] = si
			}
			switch inInit := mc.stateID(words, p) == int(mc.procs[p].init[g.inputs[p]]); {
			case inInit && ci >= 0:
				return 0, fmt.Errorf("model: snapshot node %d has a crash successor for initial-state process %d", i, p)
			case !inInit && ci < 0:
				return 0, fmt.Errorf("model: snapshot node %d done but missing crash successor for process %d", i, p)
			case ci >= 0:
				crash[p] = ci
			}
		}
		g.flagEdges(c, i)
		c.meta[i].state.Store(nodeDone)
		expanded++
	}
	return expanded, nil
}
