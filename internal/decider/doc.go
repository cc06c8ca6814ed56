// Package decider is the level decider the engine runs: it decides the
// paper's two level properties (n-discerning, n-recording) for a finite
// type with a semi-symbolic bitset sweep.
//
// The sweep enumerates operation assignments exactly like the recursive
// reference deciders of internal/discern and internal/record (the same
// symmetry-reduced tuple order, on discern.SearchSharded's work-stealing
// shards), but decides each assignment with subset-indexed frontier
// arrays over packed words instead of a DFS over individual schedules:
//
//   - forward, once per initial value u: reach[set][v], the packed
//     first-mover set of all orderings of exactly set that drive the
//     object from u to v, built in ascending mask order;
//   - backward, once per assignment (it never reads u): desc[set][v],
//     the packed set of final values reachable from v by appending any
//     ordering of any subset of the processes outside set, built in
//     descending mask order.
//
// A discerning observation "process j saw response r and the object
// ended at v" decomposes as prefix-set + j + suffix, so every
// observation's first-mover mask accumulates in one pass over 2^n
// subsets; a recording observation is a row sum of reach. The masks feed
// the reference deciders' own colorings (union-find TwoColor for
// discerning, record.ColorFinal for recording). Each worker owns one
// sweeper, so deciding an assignment allocates nothing but a returned
// witness.
//
// # The contract
//
// Results are identical to the reference deciders', byte for byte: the
// same decision, and on a positive decision the same witness — the
// lexicographically first witnessing operation assignment (in the
// symmetry-reduced tuple order of discern.TupleSpace), completed by the
// smallest witnessing initial value u and the deterministic team
// coloring. Sharded runs equal serial runs exactly. The differential
// oracle in internal/decider/difftest enforces this over seeded random
// protocols (internal/protogen) and every registry family; it is what
// lets decisions computed here be served from, and persisted in, the
// engine's decision cache alongside anything the reference computes.
//
// The sweep's tables are indexed by process subset, so it accepts
// n <= BitsetMaxN (16); CheckN is the one error every entry point
// reports above that.
//
// # Concurrency
//
// IsNDiscerning and IsNRecording are safe for concurrent use. A level's
// flattened tables are shared read-only by its workers; sweep scratch
// is per worker and lives no longer than the level.
package decider
