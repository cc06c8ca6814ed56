package graphstore_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graphstore"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/schedule"
)

// walkObs projects a walk result onto its caller-observable fields; two
// graphs are interchangeable iff every walk agrees on these.
type walkObs struct {
	Nodes      int
	Truncated  bool
	Violations []string
}

func observe(r *model.Result) walkObs {
	out := walkObs{Nodes: r.Nodes, Truncated: r.Truncated}
	for _, v := range r.Violations {
		out.Violations = append(out.Violations,
			fmt.Sprintf("%s|%s|%s|%s", v.Kind, v.Trace, v.Config, v.Detail))
	}
	return out
}

// testProtocol returns a protocol, its fingerprint key, inputs, and the
// walk options the tests exercise (crash-free plus crash-budgeted).
func testProtocol(t *testing.T, desc string) (model.Protocol, string, []int, []model.CheckOpts) {
	t.Helper()
	pr, err := registry.ParseProtocol(desc)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := model.Fingerprint(pr)
	if err != nil {
		t.Fatal(err)
	}
	n := pr.Procs()
	inputs := make([]int, n)
	quota := make([]int, n)
	for p := range inputs {
		inputs[p] = p % 2
		quota[p] = 1
	}
	return pr, fp, inputs, []model.CheckOpts{
		{Inputs: inputs},
		{Inputs: inputs, CrashQuota: quota},
	}
}

// expand builds a graph and runs every walk, returning the graph and
// the expected observations.
func expand(t *testing.T, pr model.Protocol, inputs []int, walks []model.CheckOpts) (*model.Graph, []walkObs) {
	t.Helper()
	g, err := model.NewGraph(pr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	var want []walkObs
	for _, opts := range walks {
		r, err := g.Check(opts)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, observe(r))
	}
	return g, want
}

// verifyWarm loads the key from the store, imports whatever loaded (or
// expands cold on miss/corruption), runs every walk, and requires the
// observations to match the fresh expansion — the "never a wrong
// answer" property every corruption test reduces to. It returns the
// number of nodes warm-loaded (0 = cold).
func verifyWarm(t *testing.T, s *graphstore.Store, pr model.Protocol, fp string, inputs []int, walks []model.CheckOpts, want []walkObs) int {
	t.Helper()
	g, err := model.NewGraph(pr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	loaded := 0
	snap, err := s.Load(fp, inputs)
	if err == nil && snap != nil {
		if impErr := g.ImportSnapshot(snap); impErr == nil {
			loaded = len(snap.Nodes)
		} else {
			// A snapshot that passed the container CRCs but fails import
			// validation degrades to cold expansion.
			g, err = model.NewGraph(pr, inputs)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, opts := range walks {
		r, err := g.Check(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := observe(r); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("warm walk %d diverged from fresh expansion:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	return loaded
}

func storeFile(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("expected 1 store file, found %d", len(ents))
	}
	return filepath.Join(dir, ents[0].Name())
}

// TestStoreRoundTrip spills a fully expanded graph and requires the
// loaded snapshot to be byte-identical to the export, warm walks to
// match fresh ones with zero re-expansion, and a re-spill to be a
// no-op.
func TestStoreRoundTrip(t *testing.T) {
	for _, desc := range []string{"tnn-wf:3,2", "tnn-rec:3,2,2", "cas-wf:2", "cas-rec:2", "tas-reg"} {
		t.Run(desc, func(t *testing.T) {
			pr, fp, inputs, walks := testProtocol(t, desc)
			s, err := graphstore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			g, want := expand(t, pr, inputs, walks)
			snap := g.Export()
			written, err := s.Spill(fp, inputs, snap)
			if err != nil {
				t.Fatal(err)
			}
			if written != len(snap.Nodes) {
				t.Fatalf("spilled %d of %d nodes", written, len(snap.Nodes))
			}
			got, err := s.Load(fp, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, snap) {
				t.Fatal("loaded snapshot is not byte-identical to the export")
			}
			warm, err := model.NewGraph(pr, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := warm.ImportSnapshot(got); err != nil {
				t.Fatal(err)
			}
			before := warm.Stats()
			for i, opts := range walks {
				r, err := warm.Check(opts)
				if err != nil {
					t.Fatal(err)
				}
				if o := observe(r); !reflect.DeepEqual(o, want[i]) {
					t.Fatalf("warm walk %d diverged", i)
				}
			}
			if after := warm.Stats(); after.Expanded != before.Expanded {
				t.Fatalf("warm walks expanded %d new nodes", after.Expanded-before.Expanded)
			}
			if again, err := s.Spill(fp, inputs, warm.Export()); err != nil || again != 0 {
				t.Fatalf("re-spill of a current file wrote %d records (err %v)", again, err)
			}
			st := s.Stats()
			if st.Spills != 1 || st.Loads != 1 || st.Errors != 0 {
				t.Fatalf("unexpected counters %+v", st)
			}
		})
	}
}

// TestStoreIncrementalSpill grows a file across three spills — a
// truncated walk first (leaving unexpanded frontier nodes on disk),
// then the full expansion — and requires the final load to equal the
// final export: appends and in-place completion records compose.
func TestStoreIncrementalSpill(t *testing.T) {
	pr, fp, inputs, walks := testProtocol(t, "cas-rec:2")
	s, err := graphstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, err := model.NewGraph(pr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny node budget leaves interned-but-unexpanded frontier nodes.
	if _, err := g.Check(model.CheckOpts{Inputs: inputs, MaxNodes: 10}); err != nil {
		t.Fatal(err)
	}
	partial := g.Export()
	if partial.NumExpanded() == len(partial.Nodes) {
		t.Fatal("truncated walk left no unexpanded nodes; test needs a smaller budget")
	}
	if _, err := s.Spill(fp, inputs, partial); err != nil {
		t.Fatal(err)
	}

	var want []walkObs
	for _, opts := range walks {
		r, err := g.Check(opts)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, observe(r))
	}
	full := g.Export()
	written, err := s.Spill(fp, inputs, full)
	if err != nil {
		t.Fatal(err)
	}
	if written == 0 {
		t.Fatal("second spill wrote nothing")
	}
	got, err := s.Load(fp, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatal("incrementally spilled file does not load back to the full export")
	}
	if loaded := verifyWarm(t, s, pr, fp, inputs, walks, want); loaded != len(full.Nodes) {
		t.Fatalf("warm-loaded %d nodes, want %d", loaded, len(full.Nodes))
	}
}

// TestStoreTornFinalPage truncates the file at every byte length in a
// corpus of cuts and requires each truncation to degrade to a partial
// warm load or a cold expansion with correct answers — and the next
// spill to repair the file completely.
func TestStoreTornFinalPage(t *testing.T) {
	pr, fp, inputs, walks := testProtocol(t, "cas-wf:2")
	dir := t.TempDir()
	s, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, want := expand(t, pr, inputs, walks)
	full := g.Export()
	if _, err := s.Spill(fp, inputs, full); err != nil {
		t.Fatal(err)
	}
	path := storeFile(t, dir)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cuts := []int{0, 1, 7, 8, 23, len(pristine) / 4, len(pristine) / 2, len(pristine) - 1}
	for step := 1; step < len(pristine); step += 97 {
		cuts = append(cuts, step)
	}
	for _, cut := range cuts {
		if cut < 0 || cut >= len(pristine) {
			continue
		}
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			// A fresh store sees the torn file with no memory of it.
			s2, err := graphstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			loaded := verifyWarm(t, s2, pr, fp, inputs, walks, want)
			if loaded > len(full.Nodes) {
				t.Fatalf("torn file loaded %d nodes, more than were ever written", loaded)
			}
			// Repair: spill the full snapshot and require a byte-identical
			// reload.
			if _, err := s2.Spill(fp, inputs, full); err != nil {
				t.Fatalf("repair spill: %v", err)
			}
			got, err := s2.Load(fp, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, full) {
				t.Fatal("repaired file does not load back to the full export")
			}
		})
	}
}

// TestStoreBitFlip flips single bits across the file and requires every
// corruption to be contained: the load either refuses, shortens to a
// good prefix, or the import rejects the record — and every walk still
// answers exactly like a fresh expansion.
func TestStoreBitFlip(t *testing.T) {
	pr, fp, inputs, walks := testProtocol(t, "cas-wf:2")
	dir := t.TempDir()
	s, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, want := expand(t, pr, inputs, walks)
	if _, err := s.Spill(fp, inputs, g.Export()); err != nil {
		t.Fatal(err)
	}
	path := storeFile(t, dir)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	positions := []int{0, 3, 8, 12, 30, 60}
	for p := 0; p < len(pristine); p += 53 {
		positions = append(positions, p)
	}
	for _, pos := range positions {
		if pos >= len(pristine) {
			continue
		}
		for _, bit := range []uint{0, 6} {
			t.Run(fmt.Sprintf("pos=%d_bit=%d", pos, bit), func(t *testing.T) {
				mut := append([]byte(nil), pristine...)
				mut[pos] ^= 1 << bit
				if err := os.WriteFile(path, mut, 0o644); err != nil {
					t.Fatal(err)
				}
				s2, err := graphstore.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				verifyWarm(t, s2, pr, fp, inputs, walks, want)
			})
		}
	}
	// Restore so TempDir cleanup isn't the only thing touching the file.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRefusals: a missing file is a miss, an alien file and a
// newer-version file are errors and are never truncated or overwritten
// by subsequent spills.
func TestStoreRefusals(t *testing.T) {
	pr, fp, inputs, _ := testProtocol(t, "cas-wf:2")
	dir := t.TempDir()
	s, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := s.Load(fp, inputs); err != nil || snap != nil {
		t.Fatalf("missing file: snap=%v err=%v, want nil/nil", snap, err)
	}

	g, err := model.NewGraph(pr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Check(model.CheckOpts{Inputs: inputs}); err != nil {
		t.Fatal(err)
	}

	// Alien file at the key's path.
	s2, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fp+"-in0_1.graph")
	alien := []byte("this is not a graph-store file, hands off\n")
	if err := os.WriteFile(path, alien, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Load(fp, inputs); err == nil {
		t.Fatal("alien file loaded without error")
	}
	if n, _ := s2.Spill(fp, inputs, g.Export()); n != 0 {
		t.Fatalf("spill over an alien file wrote %d records", n)
	}
	if got, _ := os.ReadFile(path); !reflect.DeepEqual(got, alien) {
		t.Fatal("alien file was modified")
	}

	// Newer-version file: valid header bytes with a bumped version.
	s3, err := graphstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Spill(fp, inputs, g.Export()); err != nil {
		t.Fatal(err)
	}
	newerPath := storeFile(t, s3.Dir())
	data, err := os.ReadFile(newerPath)
	if err != nil {
		t.Fatal(err)
	}
	data[8] = byte(graphstore.Version + 1) // little-endian version low byte
	if err := os.WriteFile(newerPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s4, err := graphstore.Open(s3.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s4.Load(fp, inputs); err == nil {
		t.Fatal("newer-version file loaded without error")
	}
	if n, _ := s4.Spill(fp, inputs, g.Export()); n != 0 {
		t.Fatal("spill over a newer-version file wrote records")
	}
	if got, _ := os.ReadFile(newerPath); !reflect.DeepEqual(got, data) {
		t.Fatal("newer-version file was modified")
	}
}

// TestStoreV1FileIsRewritten loads an RPRGRAPH v1 file written by the
// v1 build (testdata: cas-wf:2 at inputs 0,1 after a crash-free and a
// crash-quota [1,1] walk). A v1 file is a cache miss; the next spill
// rewrites it as the current version from offset 0, and a restart then
// loads it warm.
func TestStoreV1FileIsRewritten(t *testing.T) {
	testOldFileIsRewritten(t, "rprgraph-v1-cas-wf-2-in0_1.graph", 1)
}

// TestStoreV2FileIsRewritten does the same for an RPRGRAPH v2 file (the
// same graph, written by the v2 build: packed words behind a
// hand-checksummed header).
func TestStoreV2FileIsRewritten(t *testing.T) {
	testOldFileIsRewritten(t, "rprgraph-v2-cas-wf-2-in0_1.graph", 2)
}

// testOldFileIsRewritten runs the upgrade check on one testdata file of
// an older version.
func testOldFileIsRewritten(t *testing.T, fixture string, version byte) {
	t.Helper()
	pr, fp, inputs, walks := testProtocol(t, "cas-wf:2")
	old, err := os.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	if string(old[:8]) != graphstore.Magic || old[8] != version {
		t.Fatalf("testdata is not an RPRGRAPH v%d file: % x", version, old[:12])
	}
	dir := t.TempDir()
	path := filepath.Join(dir, fp+"-in0_1.graph")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := s.Load(fp, inputs); err != nil || snap != nil {
		t.Fatalf("v%d file: snap=%v err=%v, want a miss", version, snap, err)
	}
	if st := s.Stats(); st.Misses != 1 || st.Errors != 0 {
		t.Fatalf("v%d load counters %+v, want one miss and no error", version, st)
	}

	g, want := expand(t, pr, inputs, walks)
	snap := g.Export()
	written, err := s.Spill(fp, inputs, snap)
	if err != nil {
		t.Fatal(err)
	}
	if written != len(snap.Nodes) {
		t.Fatalf("rewrite spilled %d of %d nodes", written, len(snap.Nodes))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:8]) != graphstore.Magic || data[8] != graphstore.Version {
		t.Fatalf("rewritten file header % x, want version %d", data[:12], graphstore.Version)
	}

	restarted, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restarted.Load(fp, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("rewritten file does not load back to the export")
	}
	if loaded := verifyWarm(t, restarted, pr, fp, inputs, walks, want); loaded != len(snap.Nodes) {
		t.Fatalf("restart warm-loaded %d nodes, want %d", loaded, len(snap.Nodes))
	}
	if st := restarted.Stats(); st.Loads != 2 || st.Errors != 0 {
		t.Fatalf("restart counters %+v, want two loads and no error", st)
	}
}

// TestStoreSpillRefusesDivergentPrefix spills a graph that grew in a
// different intern order than the file's: the persisted words no longer
// match node for node, so the spill is skipped and the file untouched.
func TestStoreSpillRefusesDivergentPrefix(t *testing.T) {
	pr, fp, inputs, walks := testProtocol(t, "cas-rec:2")
	dir := t.TempDir()
	s, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := expand(t, pr, inputs, []model.CheckOpts{{Inputs: inputs, MaxNodes: 3}})
	if _, err := s.Spill(fp, inputs, g.Export()); err != nil {
		t.Fatal(err)
	}
	path := storeFile(t, dir)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh process whose graph starts from a replayed root interns a
	// different node first, and grows past the file.
	other, err := model.NewGraph(pr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range walks {
		opts.StartTrace = schedule.Steps(0)
		if _, err := other.Check(opts); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s2.Spill(fp, inputs, other.Export()); n != 0 || err != nil {
		t.Fatalf("divergent spill wrote %d records (err %v)", n, err)
	}
	if st := s2.Stats(); st.Errors != 1 {
		t.Fatalf("divergent spill counters %+v, want one error", st)
	}
	if after, _ := os.ReadFile(path); !reflect.DeepEqual(after, before) {
		t.Fatal("divergent spill modified the file")
	}
}
