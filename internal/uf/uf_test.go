package uf

import (
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	u := New(5)
	if u.Len() != 5 {
		t.Fatalf("Len = %d", u.Len())
	}
	if u.SameComponent(0, 1) {
		t.Error("fresh elements should be separate")
	}
	u.Union(0, 1)
	u.Union(3, 4)
	if !u.SameComponent(0, 1) || !u.SameComponent(3, 4) {
		t.Error("unions not applied")
	}
	if u.SameComponent(1, 3) {
		t.Error("distinct components merged")
	}
	if num := u.Components(); num != 3 {
		t.Errorf("components = %d, want 3", num)
	}
	if u.Size(0) != 2 || u.Size(2) != 1 || u.Size(3) != 2 {
		t.Errorf("sizes = %d %d %d", u.Size(0), u.Size(2), u.Size(3))
	}
	// Reset restores n singletons on the same storage, at any size up to
	// and beyond the old one.
	for _, n := range []int{3, 8} {
		u.Reset(n)
		if u.Len() != n || u.Components() != n || u.SameComponent(0, 1) || u.Size(1) != 1 {
			t.Errorf("Reset(%d): len %d, %d components", n, u.Len(), u.Components())
		}
	}
}

func TestUniteMask(t *testing.T) {
	u := New(6)
	u.UniteMask(0b101001) // {0, 3, 5}
	if !u.SameComponent(0, 3) || !u.SameComponent(3, 5) {
		t.Error("mask union failed")
	}
	if u.SameComponent(0, 1) {
		t.Error("unrelated element merged")
	}
	u.UniteMask(0b000010) // singleton: no-op
	if u.SameComponent(1, 0) {
		t.Error("singleton mask merged something")
	}
	u.UniteMask(0) // empty: no-op
}

func TestTwoColor(t *testing.T) {
	u := New(4)
	u.Union(0, 1)
	teams := u.TwoColor()
	if teams == nil {
		t.Fatal("expected a coloring")
	}
	if teams[0] != teams[1] {
		t.Error("component split across teams")
	}
	has0, has1 := false, false
	for _, c := range teams {
		if c == 0 {
			has0 = true
		} else {
			has1 = true
		}
	}
	if !has0 || !has1 {
		t.Error("both teams must be nonempty")
	}

	// One big component: no valid coloring.
	v := New(3)
	v.Union(0, 1)
	v.Union(1, 2)
	if v.TwoColor() != nil {
		t.Error("single component should not be colorable")
	}
}

// TestTwoColorProperty: whenever TwoColor succeeds, the coloring never
// splits a component and both teams are nonempty.
func TestTwoColorProperty(t *testing.T) {
	f := func(pairs []uint8, nRaw uint8) bool {
		n := int(nRaw%8) + 2
		u := New(n)
		for i := 0; i+1 < len(pairs); i += 2 {
			u.Union(int(pairs[i])%n, int(pairs[i+1])%n)
		}
		teams := u.TwoColor()
		if teams == nil {
			// Valid only if a single component remains.
			return u.Components() == 1
		}
		has := [2]bool{}
		for i := 0; i < n; i++ {
			has[teams[i]] = true
			for j := 0; j < n; j++ {
				if u.SameComponent(i, j) && teams[i] != teams[j] {
					return false
				}
			}
		}
		return has[0] && has[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
