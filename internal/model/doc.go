// Package model is the valency engine: an explicit-state model checker for
// consensus protocols in the crash-recovery shared memory model of
// Section 2 of the paper.
//
// Protocols are deterministic per-process state machines over shared
// objects with finite-type sequential specifications. The checker
// exhaustively explores reachable configurations under per-process crash
// budgets, verifies agreement / validity / (recoverable) wait-freedom,
// computes bivalence and univalence of configurations, searches for
// critical executions (Lemma 6), and classifies critical configurations as
// n-recording, v-hiding, or colliding (Observation 11).
//
// # The shared exploration graph
//
// All exploration runs on a Graph: a canonicalized store of
// (configuration, output-history) nodes whose successors are computed
// exactly once, with singleflight expansion. Compile turns the protocol
// into a Machine: per-process transition tables over its reachable
// state machine (the same canonical closure structural fingerprints
// hash, so Fingerprint and the graph can never disagree), per state id
// its decision, or its object and, for each value of that object, the
// (next value, next state id) pair, plus the fingerprint itself, hashed
// once. The tables are immutable and shared by every graph built from
// them: Machine.NewGraph builds one per input vector with no compile
// (the engine's graph cache compiles each protocol value once), and
// NewGraph compiles for a single graph. A node is nothing but its packed
// fixed-width []uint64 — one 16-bit state id per process, one 16-bit
// value per object and one 8-bit output per process — so a step or crash
// successor is a table lookup over words, fingerprinting is a word-mix
// loop, equality is == per word, and the graph's intern index is an
// open-addressed, linear-probed table over those words (no collision
// buckets, no strings anywhere on the hot path). A Config is decoded
// from the words only where one is returned or printed: violations,
// critical configurations, Result.NodeConfig and the liveness detail.
// Output merging follows one rule: a step merges every decided process
// into the outputs; a crash successor inherits its parent's outputs
// unmerged, so a crash into a decided initial state is merged at the
// next step. Crash usage is deliberately NOT part of node identity
// (transitions do not depend on it); each walk keeps its own (node,
// crash-usage) bookkeeping, reproducing the serial checker's
// (configuration, crash-usage, output-history) dedup exactly.
//
// A graph node is an int32 id, its intern order, and holds no pointer.
// Its record lives in the graph's arena: chunks of flat slices with a
// fixed stride per node — the packed words, a 16-byte meta (the hash,
// an atomic state word and the two edge-flag masks), the output and
// decision vectors, and the step and crash successors as int32 ids, -1
// for none — so a record is 16 + 8w + 10n bytes for w packed words and
// n processes, 80 bytes at 4 processes and 2 objects. The open-addressed
// intern index holds int32 ids, 5 to 11 bytes a node at its load
// factor. The first chunk is empty for a graph that grows by
// interning, or sized exactly to an imported snapshot; later chunks hold
// 64, 64, 128, 256, ... records, so a 90-node graph does not pay for
// thousands. The chunk directory is a fixed array and chunks never
// move, so a walk resolves an id to its record with a few arithmetic
// steps and no lock, and the garbage collector scans neither the arena
// nor a walk's node list.
//
// A walk runs over dense ids. Its nodes live in one slice in BFS
// discovery order (also the BFS queue), and parents, step-successor
// ranges of one edge list, and the liveness, valency and
// critical-search sweeps all address it by int32 index. The dedup index
// is head, a []int32 addressed by graph node id: head[id] heads the
// chain of walk nodes over that graph node, one per crash-usage vector.
// It is sized to the graph when the walk starts and grown when a cold
// walk meets a node interned since; at 4 bytes per graph node against
// the graph's arena record, even a walk a client truncates with
// MaxNodes is bounded by its graph. The node and edge lists start at
// the larger of the graph's node count and its last untruncated walk of
// the same crash-quota shape, so a warm crash-budgeted walk, which
// visits several walk nodes per graph node, allocates them once. Each
// walk interns its crash-usage vectors once, as rows of one []int32
// with a memo from (usage id, process) to the id after one more crash,
// so a walk node carries a usage id and a twin test is one int32
// compare. Safety facts are computed once per edge: an expansion
// (and ImportSnapshot) records in two 16-bit masks per node whether the
// default safety check of each step and crash successor reports
// anything — a re-decision against the parent's outputs, two outputs
// that disagree, or an output that is no process's input. The walk runs
// the full check only on flagged edges, under a custom Validity, or on
// edges of processes past the sixteenth, so the first witness, its
// trace and its detail text are the serial checker's.
//
// Check builds a one-shot Graph; batch callers (engine.CheckBatch) walk
// one Graph per input vector, long-lived callers (the engine's graph
// cache) keep Graphs warm across calls, and Graph.Theorem13 walks every
// chain stage over the Graph it is called on — all share every
// transition, output-merge and packing computation. Export and ImportSnapshot copy
// the arena out and in as words plus successor ids (GraphSnapshot), the
// unit internal/graphstore persists.
//
// # Concurrency and ownership
//
// A Graph is safe for concurrent use by any number of Check walks, and
// only ever grows: eviction by a caching layer merely drops a reference,
// in-flight walks finish unharmed. The intern index and the arena's
// growth are guarded by the graph mutex; the compiled tables are
// immutable and read lock-free, by every walk of every graph that
// shares them. Each node's expansion is claimed
// through its atomic state word (unexpanded, expanding, awaited, done):
// the first walk to reach it expands it and publishes the successors by
// storing done, and a walk that meets a node another walk is expanding
// marks it awaited and waits on the graph's condition variable, which
// the expander broadcasts — it never spins. A Result is owned by the
// caller that obtained it and is not safe for concurrent mutation; its
// lazily computed valency masks mean even read-style methods (Valence,
// FindCritical) must not race. A graph pools nothing: packing buffers
// live on the caller's stack. A walk's flat slices (nodes, edges, head,
// crash-usage rows) live in its Result and die with it; what the graph
// keeps of a walk is its length, one atomic per walk shape, which only
// sizes later walks and never changes a result.
//
// # Byte-stability guarantees
//
// Exploration is deterministic: BFS discovery order, violation traces
// and node counts depend only on the protocol and options, never on
// scheduling (the liveness sweep walks nodes in discovery order, not map
// order). Shared-graph walks are byte-identical to serial ones, and
// shared-graph Theorem 13 chains are byte-identical to the per-stage
// construction, which the package's tests keep as their reference (the
// same chain loop with every stage on a one-shot graph).
package model
