package graphstore_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graphstore"
)

var update = flag.Bool("update", false, "rewrite testdata/"+v3Fixture+" from a cold check")

// v3Fixture is an RPRGRAPH v3 file of cas-rec:3 at inputs 0,1,0 after
// one crash-quota-1 walk on a cold graph.
const v3Fixture = "rprgraph-v3-cas-rec-3-in0_1_0.graph"

// TestStoreV3FileIsStable pins the on-disk bytes across builds: a cold
// quota-1 check of cas-rec:3 spilled into an empty directory must
// reproduce the committed v3 file byte for byte, so a change to the
// graph's node layout, intern order or export cannot change what a
// spill writes. Loading the committed file must then walk like the cold
// graph. Regenerate the file only on a deliberate format break
// (-update).
func TestStoreV3FileIsStable(t *testing.T) {
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
	fixture := filepath.Join("testdata", v3Fixture)
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
		t.Fatalf("a cold spill wrote %d bytes that differ from the committed %d-byte v3 file", len(got), len(committed))
	}

	warmDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(warmDir, fp+"-in0_1_0.graph"), committed, 0o644); err != nil {
		t.Fatal(err)
	}
	warm, err := graphstore.Open(warmDir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded := verifyWarm(t, warm, pr, fp, inputs, quota1, want); loaded != len(snap.Nodes) {
		t.Fatalf("the committed file warm-loaded %d nodes, want %d", loaded, len(snap.Nodes))
	}
	// A warm graph must also walk the crash-free check like a cold one,
	// though the file holds only what the quota-1 walk expanded.
	_, crashFree := expand(t, pr, inputs, walks[:1])
	if loaded := verifyWarm(t, warm, pr, fp, inputs, walks[:1], crashFree); loaded != len(snap.Nodes) {
		t.Fatalf("the committed file warm-loaded %d nodes, want %d", loaded, len(snap.Nodes))
	}
	if st := warm.Stats(); st.Errors != 0 {
		t.Fatalf("loading the committed file counted errors: %+v", st)
	}
}
