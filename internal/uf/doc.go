// Package uf provides a minimal union-find (disjoint-set) structure used by
// the discerning and recording deciders to compute which team partitions
// keep all constraint sets monochromatic. A UnionFind value is owned by
// one decider worker and is not safe for concurrent use; the reference
// deciders allocate one per (value, assignment) candidate, while the
// bitset sweep Resets one per worker, so coloring allocates only a
// successful team assignment.
package uf
