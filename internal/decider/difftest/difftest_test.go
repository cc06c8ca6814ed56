package difftest

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/protodef"
	"repro/internal/protogen"
	"repro/internal/registry"
)

// diffShards covers degenerate (serial re-entry), even, and uneven
// shard splits in every differential run.
var diffShards = []int{1, 2, 7}

// TestDifferentialRandomProtocols is the main oracle sweep: 200 seeded
// protocols, every object type, n = 2..4, all shard counts — any
// divergence from the reference, any invalid witness, and any
// serial-vs-sharded mismatch fails with the seed in the message.
// Run with -race in CI: the sharded variants run one decider sweeper
// per worker goroutine.
func TestDifferentialRandomProtocols(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(0); seed < 200; seed++ {
		a := protogen.Generate(seed)
		for ti, ft := range a.Types() {
			for n := 2; n <= 4; n++ {
				if err := Check(ctx, ft, n, diffShards); err != nil {
					t.Fatalf("seed %d type %d (%s) n=%d: %v", seed, ti, ft.Name(), n, err)
				}
			}
		}
	}
}

// TestDifferentialRegistryTypes runs the oracle over every registry
// family at the sizes the service analyzes, n = 2..5 — the shapes the
// paper actually talks about, which random tables only approximate.
// counter:70 has 70 values, so its final-value bitsets span two words;
// product:faa:6,counter:6 (36 values) is the heaviest type the
// benchmark's analyze pool holds.
func TestDifferentialRegistryTypes(t *testing.T) {
	ctx := context.Background()
	for _, desc := range []string{
		"cas:2", "cas:3", "counter:3", "counter:70", "faa:3", "faa:8",
		"maxreg:3", "peekqueue:2", "queue:2", "register:2", "register:3",
		"stack:2", "sticky", "swap:2", "swap:3", "tas", "tnn:3,2", "tnn:5,2",
		"trivial", "x4", "x5", "y:3", "y:4",
		"product:tas,register:2", "product:faa:6,counter:6",
	} {
		ft, err := registry.Parse(desc)
		if err != nil {
			t.Fatal(err)
		}
		for n := 2; n <= 5; n++ {
			if err := Check(ctx, ft, n, diffShards); err != nil {
				t.Fatalf("%s n=%d: %v", desc, n, err)
			}
		}
	}
}

// TestDifferentialEngineCheck drives generated protocols through the
// full engine — analyses over the generated types and model checks
// under the artifact's inputs and crash quota — and compares them with
// the references: core.Analyze's recursive deciders and a one-shot
// model.Check. This guards the engine path (pooled levels, caches,
// cached graphs) on top of the decision math Check covers.
func TestDifferentialEngineCheck(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		a := protogen.Generate(seed)
		eng := engine.New(engine.WithCache(engine.NewCache()))
		for _, ft := range a.Types() {
			got, err := eng.AnalyzeTo(ft, 3)
			if err != nil {
				t.Fatalf("seed %d: engine analyze: %v", seed, err)
			}
			want, err := core.Analyze(ft, 3)
			if err != nil {
				t.Fatalf("seed %d: reference analyze: %v", seed, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d type %s: analyses diverged:\nengine:    %+v\nreference: %+v",
					seed, ft.Name(), got, want)
			}
		}
		checkAgainstReference(t, eng, a.Compiled, a.Inputs, a.CrashQuota)
	}
}

// checkAgainstReference model-checks p on the engine and as a one-shot
// model.Check and fails on any difference in outcome.
func checkAgainstReference(t *testing.T, eng *engine.Engine, p model.Protocol, inputs, quota []int) {
	t.Helper()
	const maxNodes = 200_000
	got, err := eng.Check(p, engine.CheckRequest{Inputs: inputs, CrashQuota: quota, MaxNodes: maxNodes})
	if err != nil {
		t.Fatalf("engine check: %v", err)
	}
	want, err := model.Check(p, model.CheckOpts{Inputs: inputs, CrashQuota: quota, MaxNodes: maxNodes})
	if err != nil {
		t.Fatalf("reference check: %v", err)
	}
	if got.OK() != want.OK() || got.Nodes != want.Nodes || len(got.Violations) != len(want.Violations) {
		t.Fatalf("check diverged: engine ok=%v nodes=%d viol=%d, reference ok=%v nodes=%d viol=%d",
			got.OK(), got.Nodes, len(got.Violations), want.OK(), want.Nodes, len(want.Violations))
	}
}

// TestGoldenCorpus replays the committed corpus under testdata/protogen
// by name: each descriptor is compiled as stored (never regenerated
// from its seed) and pushed through the oracle and an engine-vs-one-shot
// model check. Regenerate with `go run ./internal/decider/difftest/gen`
// after a deliberate generator change.
func TestGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "protogen", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 20 {
		t.Fatalf("golden corpus has %d entries, want >= 20 (run go run ./internal/decider/difftest/gen)", len(files))
	}
	ctx := context.Background()
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var e CorpusEntry
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatal(err)
			}
			c, err := protodef.Compile(e.Descriptor)
			if err != nil {
				t.Fatalf("committed descriptor no longer compiles: %v", err)
			}
			seen := make(map[string]bool)
			for _, o := range c.Objects() {
				if seen[o.Type.Name()] {
					continue
				}
				seen[o.Type.Name()] = true
				for n := 2; n <= 3; n++ {
					if err := Check(ctx, o.Type, n, diffShards); err != nil {
						t.Fatalf("type %s n=%d: %v", o.Type.Name(), n, err)
					}
				}
			}
			checkAgainstReference(t, engine.New(engine.WithCache(engine.NewCache())), c, e.Inputs, e.CrashQuota)
		})
	}
}

// FuzzDifferential hands the generator seed (and n) to the fuzzer: any
// input that makes the decider disagree with the reference, or produces
// an invalid witness, is a crash the fuzzer minimizes to a seed.
func FuzzDifferential(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed uint64, rawN uint8) {
		n := 2 + int(rawN%3)
		a := protogen.Generate(seed)
		for _, ft := range a.Types() {
			if err := Check(context.Background(), ft, n, []int{1, 3}); err != nil {
				t.Fatalf("seed %d n=%d: %v", seed, n, err)
			}
		}
	})
}
