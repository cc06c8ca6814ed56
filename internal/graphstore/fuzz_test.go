package graphstore_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graphstore"
	"repro/internal/model"
	"repro/internal/registry"
)

// FuzzGraphstoreLoad hands the loader arbitrary file bytes for a fixed
// store key. The contract under test is the one the crash-recovery
// design leans on: Load returns the good prefix of whatever is on disk,
// or an error — it never panics, whatever a torn write, a bit flip, or
// an adversarial file put there. Seeds include genuine v3 Spill outputs
// (one page, and an incremental file whose second page completes
// earlier records in place), systematically damaged variants of them,
// and v1 and v2 files, so the fuzzer starts at the format's interesting
// boundaries instead of random noise.
func FuzzGraphstoreLoad(f *testing.F) {
	pr, err := registry.ParseProtocol("tas-reg")
	if err != nil {
		f.Fatal(err)
	}
	fp, err := model.Fingerprint(pr)
	if err != nil {
		f.Fatal(err)
	}
	inputs := []int{0, 1}
	dir := f.TempDir()
	s, err := graphstore.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	g, err := model.NewGraph(pr, inputs)
	if err != nil {
		f.Fatal(err)
	}
	spill := func(opts model.CheckOpts) []byte {
		if _, err := g.Check(opts); err != nil {
			f.Fatal(err)
		}
		if _, err := s.Spill(fp, inputs, g.Export()); err != nil {
			f.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 1 {
			f.Fatalf("expected 1 spilled file, got %d (err %v)", len(ents), err)
		}
		data, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	partial := spill(model.CheckOpts{Inputs: inputs, MaxNodes: 2})
	valid := spill(model.CheckOpts{Inputs: inputs, CrashQuota: []int{1, 1}})
	name := fp + "-in0_1.graph"
	f.Add(partial)
	for _, old := range []string{"rprgraph-v1-cas-wf-2-in0_1.graph", "rprgraph-v2-cas-wf-2-in0_1.graph"} {
		data, err := os.ReadFile(filepath.Join("testdata", old))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte(graphstore.Magic))
	f.Add([]byte(strings.Repeat("A", 256)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := graphstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := s.Load(fp, inputs)
		if err != nil {
			if snap != nil {
				t.Fatal("Load returned both a snapshot and an error")
			}
			return
		}
		if snap == nil {
			return // treated as a miss (e.g. empty / alien-but-benign file)
		}
		// Whatever prefix loaded must be importable-or-rejected, never a
		// crash, and an accepted import must support a full walk.
		warm, err := model.NewGraph(pr, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := warm.ImportSnapshot(snap); err != nil {
			return
		}
		if _, err := warm.Check(model.CheckOpts{Inputs: inputs}); err != nil {
			t.Fatalf("walk over imported good-prefix failed: %v", err)
		}
	})
}
