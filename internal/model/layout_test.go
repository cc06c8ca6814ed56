package model

import (
	"reflect"
	"testing"
)

// TestGnodeSize pins a graph node's arena record for one fixed shape, 4
// processes and 2 objects, and requires that the arena and the walk hold
// no pointers. Every cached or imported graph holds one record per
// canonical node, so a field that grows the record grows every graph's
// memory; and a pointer in a record, or in a walk node, makes the
// garbage collector scan every node of every cached graph, or of every
// walk, on each cycle.
func TestGnodeSize(t *testing.T) {
	const procs, objects = 4, 2
	c := newChunk(1, procs, NodeWords(procs, objects))
	cv := reflect.ValueOf(c).Elem()
	bytes := 0
	for i := 0; i < cv.NumField(); i++ {
		f, ft := cv.Field(i), cv.Type().Field(i)
		if ft.Type.Kind() != reflect.Slice {
			if hasPointers(ft.Type) {
				t.Errorf("chunk field %s (%s) holds a pointer", ft.Name, ft.Type)
			}
			continue
		}
		if hasPointers(ft.Type.Elem()) {
			t.Errorf("arena element type %s of chunk.%s holds a pointer", ft.Type.Elem(), ft.Name)
		}
		bytes += f.Len() * int(ft.Type.Elem().Size())
	}
	// 3 packed words, 16 bytes of hash, state and edge flags, 8 bytes of
	// output and decision vectors, 8 int32 successors.
	if bytes != 80 {
		t.Errorf("a node of %d processes and %d objects takes %d arena bytes, want 80", procs, objects, bytes)
	}
	if hasPointers(reflect.TypeOf(node{})) {
		t.Error("the walk node holds a pointer")
	}
}

// hasPointers reports whether a value of type t holds a pointer the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
