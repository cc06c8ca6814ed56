package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test holds the program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmokeEveryWorkload runs every workload at 1/50 scale, untraced and
// traced: no op may fail, every metric BENCHMARK.json names must be
// emitted with its unit, and nothing may be left in the work root but the
// span file.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				root := t.TempDir()
				opts := options{seed: 1, seconds: 200 * time.Millisecond, traced: traced, root: root, scale: 50}
				rep, err := runWorkload(context.Background(), w, opts, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Ops == 0 || rep.OpsFailed != 0 {
					t.Errorf("ops %d, failed %d", rep.Ops, rep.OpsFailed)
				}
				checkMetrics(t, "end_to_end", rep.Metrics, spec.EndToEnd)
				if traced {
					checkMetrics(t, "per_layer", rep.Layers, spec.PerLayer)
				} else if len(rep.Layers) != 0 {
					t.Errorf("untraced run reports %d layer metrics", len(rep.Layers))
				}
				entries, err := os.ReadDir(root)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if !traced || !strings.HasSuffix(e.Name(), ".spans.jsonl") {
						t.Errorf("left behind in the work root: %s", e.Name())
						continue
					}
					checkSpans(t, filepath.Join(root, e.Name()))
				}
			})
		}
	}
}

func checkMetrics(t *testing.T, kind string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s not emitted", kind, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s metric %s has unit %q, BENCHMARK.json %q", kind, m.Name, g.Unit, m.Unit)
		case g.Value == nil:
			t.Errorf("%s metric %s is null", kind, m.Name)
		}
	}
	for name, m := range got {
		if !nameRE.MatchString(name) || m.Unit == "" {
			t.Errorf("%s metric %q (unit %q): bad name or no unit", kind, name, m.Unit)
		}
	}
}

// checkSpans reads a span file: one run root, generations under it, ops
// under their generation.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int64]spanJSON{}
	var all []spanJSON
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanJSON
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
		all = append(all, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range all {
		counts[s.Name]++
		parent := byID[s.Parent].Name
		want := map[string]string{"run": "", "replay": "", "generation": "run", "serve.handle": "generation",
			"store.open": "generation", "store.close": "generation", "graphstore.load": "generation",
			"graphstore.spill": "generation", "decider.level": "replay"}[s.Name]
		if parent != want {
			t.Errorf("span %d %s has parent %q, want %q", s.ID, s.Name, parent, want)
		}
	}
	if counts["run"] != 1 || counts["generation"] == 0 || counts["serve.handle"] == 0 {
		t.Errorf("span counts %v: want one run, and generations and ops under it", counts)
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "check-warm", "-trace", "2"},
		{"-workload", "check-warm", "-seconds", "0"},
		{"-workload", "check-warm", "extra"},
	} {
		var out, errs strings.Builder
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want 2 and nothing", args, code, out.String())
		}
	}
}
