// Package xsearch hunts for readable deterministic types with the
// discerning/recording signature of DFFR's X_4: 4-discerning, 2-recording
// and not 3-recording.
//
// Such a type has consensus number exactly 4 and recoverable consensus
// number exactly 2 (gap 2), because:
//
//   - 4-discerning gives cons >= 4 (Ruppert, readable);
//   - NOT 3-recording gives cons <= 4: by DFFR's Theorem 5 any readable
//     deterministic type with consensus number n >= 4 is (n-2)-recording,
//     so cons >= 5 would force 3-recording;
//   - 2-recording and not 3-recording give rcons = 2 exactly by the
//     paper's Theorem 14.
//
// The definition of X_n itself appears in DFFR (PODC 2022), not in the
// paper reproduced here, so this package searches for an instance instead
// of transcribing one: it samples random transition tables over a small
// value set with two mutating operations and a Read, with maximally
// informative responses (every (value, op) pair returns a distinct
// response, which is the best case for discerning and irrelevant to
// recording).
//
// # Concurrency and reproducibility
//
// Sampling is seeded: a given seed deterministically produces the same
// candidate sequence, so a reported hit is reproducible by seed. There is
// one sweep, SearchDecider, and one signature check,
// HasXSignatureDecider, both over a LevelDecider: an engine may run a
// candidate's level checks cached and sharded across its worker pool
// without changing any verdict, and HasXSignature runs the production
// decider serially. SearchDecider honors context cancellation between
// candidates, and the decider's own context within one.
package xsearch
