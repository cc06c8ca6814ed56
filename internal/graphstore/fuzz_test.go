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

// FuzzGraphstoreLoad hands the store arbitrary log bytes and loads two
// fixed keys. The contract under test is the one the crash-recovery
// design leans on: Open refuses the log or indexes its good prefix, and
// Load returns the key's pages in that prefix, or an error — it never
// panics, whatever a torn write, a bit flip, or an adversarial file put
// there. Seeds include genuine Spill outputs (one page, and a log whose
// second page completes earlier records in place), systematically
// damaged variants of them, v1 and v2 files, and a two-key log whose
// pages interleave, with an update page, cut and flipped, so the fuzzer
// starts at the format's interesting boundaries instead of random noise.
func FuzzGraphstoreLoad(f *testing.F) {
	pr, err := registry.ParseProtocol("tas-reg")
	if err != nil {
		f.Fatal(err)
	}
	fp, err := model.Fingerprint(pr)
	if err != nil {
		f.Fatal(err)
	}
	keys := [][]int{{0, 1}, {1, 0}}
	// spiller spills growing graphs of the keys into a store of its own
	// and returns the log after each spill.
	spiller := func() func(inputs []int, opts model.CheckOpts) []byte {
		dir := f.TempDir()
		s, err := graphstore.Open(dir)
		if err != nil {
			f.Fatal(err)
		}
		graphs := map[int]*model.Graph{}
		return func(inputs []int, opts model.CheckOpts) []byte {
			g := graphs[inputs[0]]
			if g == nil {
				if g, err = model.NewGraph(pr, inputs); err != nil {
					f.Fatal(err)
				}
				graphs[inputs[0]] = g
			}
			opts.Inputs = inputs
			if _, err := g.Check(opts); err != nil {
				f.Fatal(err)
			}
			if _, err := s.Spill(fp, inputs, g.Export()); err != nil {
				f.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, graphstore.LogName))
			if err != nil {
				f.Fatal(err)
			}
			return data
		}
	}
	spill := spiller()
	partial := spill(keys[0], model.CheckOpts{MaxNodes: 2})
	valid := spill(keys[0], model.CheckOpts{CrashQuota: []int{1, 1}})
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

	spill = spiller()
	spill(keys[0], model.CheckOpts{MaxNodes: 3})
	spill(keys[1], model.CheckOpts{})
	interleaved := spill(keys[0], model.CheckOpts{CrashQuota: []int{1, 1}})
	f.Add(interleaved)
	for _, cut := range []int{len(interleaved) / 3, 2 * len(interleaved) / 3, len(interleaved) - 1} {
		f.Add(interleaved[:cut])
	}
	for _, pos := range []int{30, len(interleaved) / 2, len(interleaved) - 5} {
		mut := append([]byte(nil), interleaved...)
		mut[pos] ^= 0x08
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, graphstore.LogName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := graphstore.Open(dir)
		if err != nil {
			return // a foreign or newer log, refused
		}
		for _, inputs := range keys {
			snap, err := s.Load(fp, inputs)
			if err != nil {
				if snap != nil {
					t.Fatal("Load returned both a snapshot and an error")
				}
				continue
			}
			if snap == nil {
				continue // a miss: no page of the key in the good prefix
			}
			// Whatever prefix loaded must be importable-or-rejected, never
			// a crash, and an accepted import must support a full walk.
			warm, err := model.NewGraph(pr, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := warm.ImportSnapshot(snap); err != nil {
				continue
			}
			if _, err := warm.Check(model.CheckOpts{Inputs: inputs}); err != nil {
				t.Fatalf("walk over imported good-prefix failed: %v", err)
			}
		}
	})
}
