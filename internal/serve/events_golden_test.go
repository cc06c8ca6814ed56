package serve

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/report"
)

// eventsGolden holds every engine event kind rendered as its job SSE
// payload and as its -progress line.
const eventsGolden = "testdata/events.golden"

var update = flag.Bool("update", false, "rewrite "+eventsGolden+" from real engines")

// shardDetail is what shard.done reports: which shard scanned how many
// assignments follows the scheduling of the shards, so it is matched by
// pattern and written to the golden file as shardPlaceholder.
var shardDetail = regexp.MustCompile(`shard \d+/\d+, \d+ assignments`)

const shardPlaceholder = "shard #/#, # assignments"

// TestEventRenderingGolden pins how engine progress events render on
// the sinks that show them: the job SSE payload (progressJSON, then
// JSON) and the CLI line (report.ProgressLine). Real engines emit every
// kind: an analysis at parallelism 1, run twice so the second answers
// from the cache; a level large enough to shard, decided alone on two
// workers (the engine shards only across idle workers, so a one-worker
// engine never does); Check; a two-request CheckBatch whose second item
// fails; and Theorem13. Elapsed is fixed before rendering. Regenerate
// only on a deliberate change of the rendering, with -update.
func TestEventRenderingGolden(t *testing.T) {
	var events []engine.Event
	record := func(ev engine.Event) { events = append(events, ev) }
	newEngine := func(parallelism int) *engine.Engine {
		return engine.New(engine.WithParallelism(parallelism), engine.WithProgress(record))
	}

	tas, err := registry.Parse("tas")
	if err != nil {
		t.Fatal(err)
	}
	an := newEngine(1)
	for range 2 {
		if _, err := an.AnalyzeTo(tas, 3); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := registry.Parse("register:2")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, err := newEngine(2).Discerning(reg, 5); err != nil || ok {
		t.Fatalf("register:2 at n=5: discerning %v, %v; the golden needs a negative sharded level", ok, err)
	}

	tnn, err := registry.ParseProtocol("tnn-wf:3,2")
	if err != nil {
		t.Fatal(err)
	}
	casRec, err := registry.ParseProtocol("cas-rec:2")
	if err != nil {
		t.Fatal(err)
	}
	quota := engine.CheckRequest{Inputs: []int{0, 1}, CrashQuota: []int{1, 1}}
	if _, err := newEngine(1).Check(casRec, quota); err != nil {
		t.Fatal(err)
	}
	batch := []engine.CheckRequest{{Inputs: []int{0, 1, 1}}, {Inputs: []int{0, 1, 1}, CrashQuota: []int{1, 1, 1}}}
	if items, _, err := newEngine(1).CheckBatch(tnn, batch); err != nil || !items[0].OK() || items[1].OK() {
		t.Fatalf("tnn-wf:3,2 batch: %+v, %v; the golden needs a passing and a failing item", items, err)
	}
	if _, err := newEngine(1).Theorem13(casRec, quota); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	kinds := make(map[string]bool)
	for _, ev := range events {
		kinds[ev.Kind] = true
		ev.Elapsed = 1234567 * time.Nanosecond
		payload, err := json.Marshal(progressJSON(ev))
		if err != nil {
			t.Fatal(err)
		}
		sse, cli := string(payload), report.ProgressLine(ev)
		if ev.Kind == "shard.done" {
			for _, s := range []*string{&sse, &cli} {
				if len(shardDetail.FindAllString(*s, -1)) != 1 {
					t.Fatalf("shard.done rendered without one %q: %s", shardDetail, *s)
				}
				*s = shardDetail.ReplaceAllLiteralString(*s, shardPlaceholder)
			}
		}
		b.WriteString(sse + "\n" + cli + "\n")
	}
	for _, k := range []string{"analyze.start", "level.done", "shard.done", "analyze.done",
		"check.start", "check.done", "checkbatch.start", "checkbatch.done", "chain.start", "chain.stage"} {
		if !kinds[k] {
			t.Errorf("no %s event was emitted", k)
		}
	}

	got := b.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(eventsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(eventsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(eventsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got  %s\n want %s", eventsGolden, i+1, g, w)
			}
		}
	}
}
