// Package difftest is the differential oracle for the level decider: it
// runs the production bitset sweep (internal/decider) and the recursive
// reference deciders (internal/discern, internal/record) over the same
// type and cross-checks the results, and it verifies positive witnesses
// against the property definitions with its own brute-force enumerator —
// code deliberately independent of both the recursive search and the
// bitset sweep, so a shared bug cannot vouch for itself.
//
// Check is the harness entry point. For one (type, n) it asserts, at
// every requested shard count:
//
//   - the decider's decision agrees with the reference's;
//   - witnesses are byte-identical to the reference's, serial and
//     sharded (the contract documented in internal/decider);
//   - every positive witness independently verifies (VerifyDiscern,
//     VerifyRecord).
//
// The harness is driven four ways: a seeded sweep over protocols from
// internal/protogen (hundreds of seeds, n in 2..4, shard counts 1, 2
// and 7, race-enabled in CI), a sweep over every registry family at
// n = 2..5 (including a two-word value set), a golden corpus of
// committed descriptors under testdata/protogen replayed by name
// (regenerate with `go run ./internal/decider/difftest/gen`), and a
// native fuzz target (FuzzDifferential) that lets the fuzzer drive the
// seed space.
package difftest
