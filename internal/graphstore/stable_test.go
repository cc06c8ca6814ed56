package graphstore_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graphstore"
)

var update = flag.Bool("update", false, "rewrite testdata/"+v4Fixture+" from a cold check")

const (
	// v4Fixture is an RPRGRAPH v4 log holding cas-rec:3 at inputs 0,1,0
	// after one crash-quota-1 walk on a cold graph.
	v4Fixture = "rprgraph-v4-cas-rec-3-in0_1_0.rprgraph"
	// v3Fixture is the same graph's per-key RPRGRAPH v3 file.
	v3Fixture = "rprgraph-v3-cas-rec-3-in0_1_0.graph"
	// logHeaderLen is a log's magic, version and empty meta frame.
	logHeaderLen = 8 + 4 + 8
)

// TestStoreV4FileIsStable pins the on-disk bytes across builds: a cold
// quota-1 check of cas-rec:3 spilled into an empty directory must
// reproduce the committed v4 log byte for byte, so a change to the
// graph's node layout, intern order or export cannot change what a
// spill writes. The log's one page must hold the committed v3 file's
// key and page bytes unchanged, so version 4 moved the key into the
// page and changed no record. Loading the committed log must then walk
// like the cold graph. Regenerate the log only on a deliberate format
// break (-update).
func TestStoreV4FileIsStable(t *testing.T) {
	pr, fp, inputs, walks := testProtocol(t, "cas-rec:3")
	quota1 := walks[1:]
	g, want := expand(t, pr, inputs, quota1)

	dir := t.TempDir()
	s, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Export()
	if n, err := s.Spill(fp, inputs, snap); err != nil || n != len(snap.Nodes) {
		t.Fatalf("cold spill wrote %d of %d records (err %v)", n, len(snap.Nodes), err)
	}
	got, err := os.ReadFile(storeFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join("testdata", v4Fixture)
	if *update {
		if err := os.WriteFile(fixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, committed) {
		t.Fatalf("a cold spill wrote %d bytes that differ from the committed %d-byte v4 log", len(got), len(committed))
	}

	// v3: header, a meta frame holding the key, a frame holding the page.
	// v4: header, an empty meta frame, a frame holding the key and the
	// page.
	v3, err := os.ReadFile(filepath.Join("testdata", v3Fixture))
	if err != nil {
		t.Fatal(err)
	}
	keyLen := int(binary.LittleEndian.Uint32(v3[12:]))
	v3Key, v3Page := v3[logHeaderLen:logHeaderLen+keyLen], v3[logHeaderLen+keyLen+8:]
	if len(committed) != len(v3) {
		t.Fatalf("the v4 log is %d bytes, the v3 file %d", len(committed), len(v3))
	}
	if v4Key := committed[logHeaderLen+8 : logHeaderLen+8+keyLen]; !bytes.Equal(v4Key, v3Key) {
		t.Fatal("the v4 page's key differs from the v3 file's")
	}
	if v4Page := committed[logHeaderLen+8+keyLen:]; !bytes.Equal(v4Page, v3Page) {
		t.Fatal("the v4 page's records differ from the v3 file's")
	}

	warmDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(warmDir, graphstore.LogName), committed, 0o644); err != nil {
		t.Fatal(err)
	}
	warm, err := graphstore.Open(warmDir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded := verifyWarm(t, warm, pr, fp, inputs, quota1, want); loaded != len(snap.Nodes) {
		t.Fatalf("the committed log warm-loaded %d nodes, want %d", loaded, len(snap.Nodes))
	}
	// A warm graph must also walk the crash-free check like a cold one,
	// though the log holds only what the quota-1 walk expanded.
	_, crashFree := expand(t, pr, inputs, walks[:1])
	if loaded := verifyWarm(t, warm, pr, fp, inputs, walks[:1], crashFree); loaded != len(snap.Nodes) {
		t.Fatalf("the committed log warm-loaded %d nodes, want %d", loaded, len(snap.Nodes))
	}
	if st := warm.Stats(); st.Errors != 0 {
		t.Fatalf("loading the committed log counted errors: %+v", st)
	}
}
