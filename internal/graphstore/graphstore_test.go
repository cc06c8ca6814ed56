package graphstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graphstore"
	"repro/internal/logfile"
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

// TestStoreBitFlip flips single bits across the log and requires every
// corruption to be contained: Open refuses a flip that makes the magic
// foreign or the version newer, and leaves the log as it is; otherwise
// the load shortens to a good prefix or the import rejects the record —
// and every walk still answers exactly like a fresh expansion.
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
					if pos >= len(graphstore.Magic)+4 {
						t.Fatalf("a flip past the version: %v", err)
					}
					if got, _ := os.ReadFile(path); !bytes.Equal(got, mut) {
						t.Fatal("Open changed the log it refused")
					}
					return
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

// TestStoreRefusals: a missing log is a miss and a load does not
// create it; a foreign file and a newer-version log at the log's path
// each make Open fail, and stay byte-identical.
func TestStoreRefusals(t *testing.T) {
	pr, fp, inputs, walks := testProtocol(t, "cas-wf:2")
	dir := t.TempDir()
	s, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := s.Load(fp, inputs); err != nil || snap != nil {
		t.Fatalf("missing log: snap=%v err=%v, want nil/nil", snap, err)
	}
	if _, err := os.Stat(filepath.Join(dir, graphstore.LogName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a load of a missing log left %v", err)
	}

	// A foreign file at the log's path.
	alienDir := t.TempDir()
	alienPath := filepath.Join(alienDir, graphstore.LogName)
	alien := []byte("this is not a graph-store file, hands off\n")
	if err := os.WriteFile(alienPath, alien, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := graphstore.Open(alienDir); err == nil {
		t.Fatal("Open accepted a foreign file at the log's path")
	}
	if got, _ := os.ReadFile(alienPath); !bytes.Equal(got, alien) {
		t.Fatal("the foreign file was modified")
	}

	// A newer-version log: valid header bytes with a bumped version.
	g, _ := expand(t, pr, inputs, walks)
	if _, err := s.Spill(fp, inputs, g.Export()); err != nil {
		t.Fatal(err)
	}
	newerPath := storeFile(t, dir)
	data, err := os.ReadFile(newerPath)
	if err != nil {
		t.Fatal(err)
	}
	data[8] = byte(graphstore.Version + 1) // little-endian version low byte
	if err := os.WriteFile(newerPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := graphstore.Open(dir); err == nil {
		t.Fatal("Open accepted a newer-version log")
	}
	if got, _ := os.ReadFile(newerPath); !bytes.Equal(got, data) {
		t.Fatal("the newer-version log was modified")
	}
}

// TestStoreOldFilesIgnored puts a per-key file of each older version
// where the build that wrote it kept it — RPRGRAPH v1 and v2 files of
// cas-wf:2 at inputs 0,1 (written after a crash-free and a crash-quota
// [1,1] walk) and the v3 file of cas-rec:3 at inputs 0,1,0 — and
// requires the store to ignore it: the key is a miss with no error, a
// spill writes the key to the log and leaves the old file
// byte-identical, and a restart loads the key warm from the log.
func TestStoreOldFilesIgnored(t *testing.T) {
	for _, tc := range []struct {
		fixture, desc string
		version       byte
	}{
		{"rprgraph-v1-cas-wf-2-in0_1.graph", "cas-wf:2", 1},
		{"rprgraph-v2-cas-wf-2-in0_1.graph", "cas-wf:2", 2},
		{v3Fixture, "cas-rec:3", 3},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			pr, fp, inputs, walks := testProtocol(t, tc.desc)
			old, err := os.ReadFile(filepath.Join("testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			if string(old[:8]) != graphstore.Magic || old[8] != tc.version {
				t.Fatalf("testdata is not an RPRGRAPH v%d file: % x", tc.version, old[:12])
			}
			dir := t.TempDir()
			name := fp + "-in"
			for i, in := range inputs {
				if i > 0 {
					name += "_"
				}
				name += fmt.Sprint(in)
			}
			path := filepath.Join(dir, name+".graph")
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}

			s, err := graphstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if snap, err := s.Load(fp, inputs); err != nil || snap != nil {
				t.Fatalf("v%d file: snap=%v err=%v, want a miss", tc.version, snap, err)
			}
			if st := s.Stats(); st.Misses != 1 || st.Errors != 0 {
				t.Fatalf("v%d load counters %+v, want one miss and no error", tc.version, st)
			}
			g, want := expand(t, pr, inputs, walks)
			snap := g.Export()
			if written, err := s.Spill(fp, inputs, snap); err != nil || written != len(snap.Nodes) {
				t.Fatalf("spill wrote %d of %d nodes (err %v)", written, len(snap.Nodes), err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
				t.Fatalf("the spill changed the v%d file", tc.version)
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
				t.Fatal("the log does not load back to the export")
			}
			if loaded := verifyWarm(t, restarted, pr, fp, inputs, walks, want); loaded != len(snap.Nodes) {
				t.Fatalf("restart warm-loaded %d nodes, want %d", loaded, len(snap.Nodes))
			}
			if st := restarted.Stats(); st.Loads != 2 || st.Errors != 0 {
				t.Fatalf("restart counters %+v, want two loads and no error", st)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
				t.Fatalf("the restart changed the v%d file", tc.version)
			}
		})
	}
}

// TestStoreInterleavedKeys spills three keys into one log, interleaved:
// A capped at a few nodes, then B, then A's completion (update records
// beside appended ones), then C. It cuts the log at every frame boundary
// and at every 97th byte: after each cut a fresh Open must load each
// key's pages before the cut and none after it, every loaded graph must
// walk like a cold one, and a repair spill of each key must reload equal
// to its full export, also after a restart.
func TestStoreInterleavedKeys(t *testing.T) {
	type key struct {
		pr     model.Protocol
		fp     string
		inputs []int
		walks  []model.CheckOpts
		want   []walkObs
		// exports holds what each of the key's spills wrote, ends the
		// log's length after it.
		exports []*model.GraphSnapshot
		ends    []int
	}
	var keys []*key
	for _, desc := range []string{"cas-rec:2", "cas-wf:2", "tas-reg"} {
		k := &key{}
		k.pr, k.fp, k.inputs, k.walks = testProtocol(t, desc)
		_, k.want = expand(t, k.pr, k.inputs, k.walks)
		keys = append(keys, k)
	}
	a, b, c := keys[0], keys[1], keys[2]

	dir := t.TempDir()
	s, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, graphstore.LogName)
	spill := func(k *key, snap *model.GraphSnapshot) {
		t.Helper()
		if n, err := s.Spill(k.fp, k.inputs, snap); err != nil || n == 0 {
			t.Fatalf("spill wrote %d records (err %v)", n, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		k.exports = append(k.exports, snap)
		k.ends = append(k.ends, int(fi.Size()))
	}
	gA, err := model.NewGraph(a.pr, a.inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gA.Check(model.CheckOpts{Inputs: a.inputs, MaxNodes: 10}); err != nil {
		t.Fatal(err)
	}
	partial := gA.Export()
	if partial.NumExpanded() == len(partial.Nodes) {
		t.Fatal("the capped walk left no unexpanded node; A's completion would hold no update record")
	}
	spill(a, partial)
	gB, _ := expand(t, b.pr, b.inputs, b.walks)
	spill(b, gB.Export())
	for _, opts := range a.walks {
		if _, err := gA.Check(opts); err != nil {
			t.Fatal(err)
		}
	}
	spill(a, gA.Export())
	gC, _ := expand(t, c.pr, c.inputs, c.walks)
	spill(c, gC.Export())

	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, logHeaderLen}
	for _, k := range keys {
		cuts = append(cuts, k.ends...)
	}
	for cut := 0; cut < len(pristine); cut += 97 {
		cuts = append(cuts, cut)
	}
	for _, cut := range cuts {
		if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := graphstore.Open(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for i, k := range keys {
			var want *model.GraphSnapshot
			for j, end := range k.ends {
				if end <= cut {
					want = k.exports[j]
				}
			}
			got, err := s2.Load(k.fp, k.inputs)
			if err != nil {
				t.Fatalf("cut %d, key %d: %v", cut, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cut %d, key %d: loaded %s, want the pages before the cut", cut, i, describe(got))
			}
			verifyWarm(t, s2, k.pr, k.fp, k.inputs, k.walks, k.want)
		}
		for i, k := range keys {
			full := k.exports[len(k.exports)-1]
			if _, err := s2.Spill(k.fp, k.inputs, full); err != nil {
				t.Fatalf("cut %d, key %d: repair spill: %v", cut, i, err)
			}
			if got, err := s2.Load(k.fp, k.inputs); err != nil || !reflect.DeepEqual(got, full) {
				t.Fatalf("cut %d, key %d: repaired key loads %s (err %v), want its full export", cut, i, describe(got), err)
			}
		}
		restarted, err := graphstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if got, err := restarted.Load(k.fp, k.inputs); err != nil || !reflect.DeepEqual(got, k.exports[len(k.exports)-1]) {
				t.Fatalf("cut %d, key %d: after the repair a restart loads %s (err %v)", cut, i, describe(got), err)
			}
		}
		if st := s2.Stats(); st.Errors != 0 {
			t.Fatalf("cut %d: counters %+v, want no error", cut, st)
		}
	}
}

// describe names a loaded snapshot by its node count.
func describe(snap *model.GraphSnapshot) string {
	if snap == nil {
		return "nothing"
	}
	return fmt.Sprintf("%d nodes", len(snap.Nodes))
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

// TestStoreSkipsKeylessFrame puts a frame that checks out but is too
// short to name a key before a key's page: Open skips it instead of
// ending the log there, the key loads whole, and a spill appends after
// the page rather than cutting it off.
func TestStoreSkipsKeylessFrame(t *testing.T) {
	prA, fpA, inA, walksA := testProtocol(t, "cas-wf:2")
	prB, fpB, inB, walksB := testProtocol(t, "tas-reg")
	dir := t.TempDir()
	s, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gA, _ := expand(t, prA, inA, walksA)
	if _, err := s.Spill(fpA, inA, gA.Export()); err != nil {
		t.Fatal(err)
	}
	path := storeFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	keyless, off := logfile.StartFrame(append([]byte(nil), data[:logHeaderLen]...))
	keyless = append(keyless, "no key"...)
	logfile.EndFrame(keyless, off)
	if err := os.WriteFile(path, append(keyless, data[logHeaderLen:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Load(fpA, inA); err != nil || !reflect.DeepEqual(got, gA.Export()) {
		t.Fatalf("the page after the keyless frame loads %s (err %v)", describe(got), err)
	}
	gB, _ := expand(t, prB, inB, walksB)
	if _, err := s2.Spill(fpB, inB, gB.Export()); err != nil {
		t.Fatal(err)
	}
	s3, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []struct {
		fp     string
		inputs []int
		g      *model.Graph
	}{{fpA, inA, gA}, {fpB, inB, gB}} {
		if got, err := s3.Load(k.fp, k.inputs); err != nil || !reflect.DeepEqual(got, k.g.Export()) {
			t.Fatalf("after a spill the log loads %s of %s (err %v)", describe(got), k.fp[:8], err)
		}
	}
}
