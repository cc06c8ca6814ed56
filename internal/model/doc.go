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
// exactly once, with singleflight expansion. NewGraph compiles the
// protocol once into per-process transition tables over its reachable
// state machine (the same canonical closure structural fingerprints
// hash, so Fingerprint and the graph can never disagree): per state id,
// its decision, or its object and, for each value of that object, the
// (next value, next state id) pair. A node is nothing but its packed
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
// A walk runs over dense ids. Its nodes live in one slice in BFS
// discovery order (also the BFS queue), and parents, step-successor
// ranges of one edge list, and the liveness, valency and
// critical-search sweeps all address it by int32 index. The dedup index
// is head, a []int32 addressed by the graph node's intern order
// (gnode.ord): head[ord] heads the chain of walk nodes over that graph
// node, one per crash-usage vector. It is sized to the graph when the
// walk starts and grown when a cold walk meets a node interned since;
// at 4 bytes per graph node against the graph's 152 or more (a gnode
// alone), even a walk a client truncates with MaxNodes is bounded by
// its graph. Each walk interns its crash-usage vectors once, as rows of
// one []int32 with a memo from (usage id, process) to the id after one
// more crash, so a walk node carries a usage id and a twin test is one
// int32 compare. Safety facts are computed once per edge: an expansion
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
// cache) keep Graphs warm across calls, and Theorem13ChainOpts walks
// every chain stage over one Graph — all share every transition,
// output-merge and packing computation. Export and ImportSnapshot move the node
// table in and out as words plus successor positions (GraphSnapshot),
// the unit internal/graphstore persists.
//
// # Concurrency and ownership
//
// A Graph is safe for concurrent use by any number of Check walks, and
// only ever grows: eviction by a caching layer merely drops a reference,
// in-flight walks finish unharmed. The intern table is guarded by the
// graph mutex; the compiled tables are immutable and read lock-free;
// per-node expansion runs under a per-node once. A Result is owned by
// the caller that obtained it and is not safe for concurrent mutation;
// its lazily computed valency masks mean even read-style methods
// (Valence, FindCritical) must not race.
// A graph pools only packing buffers, which never escape into Results;
// it holds no frontier or sweep pools. A walk's flat slices (nodes,
// edges, head, crash-usage rows) live in its Result and die with it.
//
// # Byte-stability guarantees
//
// Exploration is deterministic: BFS discovery order, violation traces
// and node counts depend only on the protocol and options, never on
// scheduling (the liveness sweep walks nodes in discovery order, not map
// order). Shared-graph walks are byte-identical to serial ones, and
// shared-graph Theorem 13 chains are byte-identical to the per-stage
// construction (ChainOpts.FreshGraphPerStage is kept as the tested
// ablation baseline).
package model
