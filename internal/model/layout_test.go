package model

import (
	"testing"
	"unsafe"
)

// TestGnodeSize pins a graph node's size on 64-bit platforms. Every
// cached or imported graph holds one gnode per canonical node, so a
// field that grows it grows every graph's memory; the edge flags fit in
// the padding after ord.
func TestGnodeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for 64-bit platforms")
	}
	var nd gnode
	if got := unsafe.Sizeof(nd); got != 152 {
		t.Fatalf("gnode is %d bytes, want 152", got)
	}
}
