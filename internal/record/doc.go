// Package record decides the n-recording property of Delporte-Gallet,
// Fatourou, Fauconnier and Ruppert (PODC 2022), as defined in Section 2 of
// "Determining Recoverable Consensus Numbers".
//
// A deterministic type T is n-recording if there exist a value u, a
// partition of the processes p_0..p_{n-1} into two nonempty teams T_0, T_1,
// and an operation o_i for each p_i such that:
//
//  1. U_0 and U_1 are disjoint, where U_x is the set of object values
//     resulting from schedules in S({p_0..p_{n-1}}) whose first process is
//     in T_x, applied to an object with initial value u; and
//  2. if u is in U_x, then the opposite team T_{1-x} has exactly one
//     member.
//
// The paper's Theorem 13 shows n-recording is necessary for solving
// recoverable wait-free consensus among n processes with deterministic
// types; DFFR's Theorem 8 shows it is sufficient for deterministic,
// readable types. Together (Theorem 14) the recoverable consensus number
// of a deterministic readable type is exactly the largest n for which it
// is n-recording.
//
// Implementation mirrors package discern: for fixed (u, operation
// assignment), a partition is valid for condition 1 iff no constraint set
// (the first-movers producing a given final value) is split across teams;
// union-find gives the valid partitions directly, and condition 2 reduces
// to the existence of a singleton component outside the component of u's
// producers.
//
// # Concurrency and byte-stability
//
// As in package discern: this is the recursive reference decider, one
// serial, symmetry-reduced, prefix-sharing search (the engine runs
// internal/decider's bitset sweep on discern's shard scheduler); it is
// pure and concurrency-safe, and witness JSON round-trips
// byte-identically for the persistent decision store. ColorFinal is
// shared with the bitset sweep, which is what keeps the two deciders'
// witnesses identical.
package record
