package uf

import "math/bits"

// UnionFind is a union-find over the elements 0..n-1. The zero value is
// empty; Reset sizes it.
type UnionFind struct {
	parent []int
	// size[r] is the component size of root r.
	size  []int
	comps int
}

// New returns a UnionFind with n singleton components.
func New(n int) *UnionFind {
	u := new(UnionFind)
	u.Reset(n)
	return u
}

// Reset re-initializes u to n singleton components, reusing its storage.
func (u *UnionFind) Reset(n int) {
	if cap(u.parent) < n {
		u.parent, u.size = make([]int, n), make([]int, n)
	}
	u.parent, u.size = u.parent[:n], u.size[:n]
	for i := range u.parent {
		u.parent[i], u.size[i] = i, 1
	}
	u.comps = n
}

// Len returns the number of elements.
func (u *UnionFind) Len() int { return len(u.parent) }

// Find returns the representative of x's component.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the components of a and b.
func (u *UnionFind) Union(a, b int) {
	ra, rb := u.Find(a), u.Find(b)
	if ra != rb {
		u.parent[ra] = rb
		u.size[rb] += u.size[ra]
		u.comps--
	}
}

// UniteMask merges all elements whose bit is set in mask into one
// component. Bits at or above Len are ignored.
func (u *UnionFind) UniteMask(mask uint32) {
	if n := len(u.parent); n < 32 {
		mask &= 1<<uint(n) - 1
	}
	if mask&(mask-1) == 0 {
		return // fewer than two elements: nothing to unite
	}
	first := bits.TrailingZeros32(mask)
	for rest := mask & (mask - 1); rest != 0; rest &= rest - 1 {
		u.Union(first, bits.TrailingZeros32(rest))
	}
}

// SameComponent reports whether a and b are in the same component.
func (u *UnionFind) SameComponent(a, b int) bool { return u.Find(a) == u.Find(b) }

// Components returns the number of distinct components.
func (u *UnionFind) Components() int { return u.comps }

// Size returns the size of x's component.
func (u *UnionFind) Size(x int) int { return u.size[u.Find(x)] }

// TwoColor returns a team assignment (0/1 per element) in which every
// component is monochromatic and both teams are nonempty, or nil if there
// is only one component. Element 0's component is always team 0. Only a
// successful coloring allocates.
func (u *UnionFind) TwoColor() []int {
	if u.comps < 2 {
		return nil
	}
	n := len(u.parent)
	r0 := u.Find(0)
	teams := make([]int, n)
	for i := 1; i < n; i++ {
		if u.Find(i) != r0 {
			teams[i] = 1
		}
	}
	return teams
}
