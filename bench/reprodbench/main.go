// Command reprodbench is the end-to-end benchmark of the reprod service.
// It drives serve.Server.ServeHTTP in-process with an in-memory response
// recorder, from one closed-loop client, configured like cmd/reprod with
// its default flags, and checks every reply against testdata/golden.json.
//
// Usage:
//
//	reprodbench -workload {check-warm|check-cold|analyze-cold|restart-warm|all}
//	            [-seed N] [-seconds S] [-trace 0|1]
//
// Each workload prints one JSON line of end-to-end metrics (and, with
// -trace 1, per-layer metrics). The last line of standard output is a
// summary object with the keys correct, attempted, failed and metrics.
// See bench/README.md for the metrics, the workloads and the span file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A run sets its workload up until setupBudget is spent, at least
// minSetups and at most maxSetups times; setup_s is the median. Cheap
// set-ups of tens of milliseconds vary by a third from one to the next,
// so they are repeated more.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// workRoot holds the runs' work directories and span files, relative to
// the working directory.
const workRoot = ".bench_build"

// e2eUnits names every end-to-end metric with its unit, in report order.
var e2eUnits = []struct{ name, unit string }{
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// root holds the work directory and the span file.
	root string
	// scale divides the workloads' pools and op counts; the smoke test
	// runs at 1/50.
	scale int
}

// metric is one reported value; a nil value prints as null.
type metric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// report is one workload's output line.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	CPU       string            `json:"cpu"`
	Go        string            `json:"go"`
	Ops       int64             `json:"ops"`
	OpsFailed int64             `json:"ops_failed"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers"`
}

// summary is the last line of output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reprodbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = split the timed phase into an untraced and a traced half, report per-layer metrics and write the traced half's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var list []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			list = append(list, w)
		}
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "reprodbench: unexpected arguments %v\n", fs.Args())
		return 2
	case len(list) == 0:
		fmt.Fprintf(stderr, "reprodbench: -workload must be one of %s or all\n", strings.Join(names, ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "reprodbench: -seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "reprodbench: -trace must be 0 or 1")
		return 2
	}
	root, err := filepath.Abs(workRoot)
	if err != nil {
		fmt.Fprintln(stderr, "reprodbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, root: root}

	sum := summary{Metrics: map[string]metric{}}
	enc := json.NewEncoder(stdout)
	for _, w := range list {
		rep, err := runWorkload(ctx, w, opts, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "reprodbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "reprodbench:", err)
			return 1
		}
		sum.Attempted += rep.Ops
		sum.Failed += rep.OpsFailed
		reported := rep.Metrics
		if opts.traced {
			reported = rep.Layers
		}
		for k, m := range reported {
			if len(list) > 1 {
				k = w.name + "." + k
			}
			sum.Metrics[k] = m
		}
	}
	sum.Correct = sum.Failed == 0
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintln(stderr, "reprodbench:", err)
		return 1
	}
	if !sum.Correct {
		return 1
	}
	return 0
}

// runWorkload sets w up several times, measures the last set-up for
// opts.seconds and tears everything down. Every file it writes lives
// under one work directory, removed on return.
func runWorkload(ctx context.Context, w workload, opts options, stderr io.Writer) (rep *report, err error) {
	g, err := parseGolden(goldenJSON)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.root, "work-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	b := &bench{ctx: ctx, seed: opts.seed, golden: g, dir: dir, scale: opts.scale}
	heapBase := liveHeap()
	in, err := newInputs(b)
	if err != nil {
		return nil, err
	}

	var r runner
	defer func() {
		if r != nil {
			err = errors.Join(err, r.close())
		}
	}()
	var setups []float64
	var spent time.Duration
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
			r = nil
		}
		runtime.GC() // each set-up starts without the last one's garbage
		start := time.Now()
		if r, err = w.setup(b, in, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	sort.Float64s(setups)

	d := opts.seconds
	if opts.traced {
		d /= 2
	}
	plain, err := b.measure(r, d, false)
	if err != nil {
		return nil, err
	}
	if st := plain.steady; st.kept < st.blocks {
		fmt.Fprintf(stderr, "reprodbench: %s: the host stole CPU time; time metrics cover the %d of %d blocks with the least steal\n",
			w.name, st.kept, st.blocks)
	}
	rep = &report{Workload: w.name, Seed: opts.seed, CPU: cpuModel(), Go: runtime.Version(),
		Metrics: units(e2e(plain, setups[len(setups)/2]), e2eUnits), Layers: map[string]metric{}}
	if opts.traced {
		ph, err := b.measure(r, d, true)
		if err != nil {
			return nil, err
		}
		dec, err := b.replayDecider(ph.cold)
		if err != nil {
			return nil, err
		}
		rep.Layers = units(layers(ph, layerInputs{
			plainThroughput: float64(plain.ops) / plain.wall.Seconds(),
			decider:         dec,
			heapBase:        heapBase,
			graphDirBytes:   b.graphDirBytes,
			graphDirRecords: b.graphDirRecords,
		}, stderr), layerUnits)
		path := filepath.Join(opts.root, fmt.Sprintf("reprodbench-%s-seed%d.spans.jsonl", w.name, opts.seed))
		if err := b.tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stderr, "reprodbench: %s: spans in %s\n", w.name, path)
	}
	rep.Ops, rep.OpsFailed = b.attempted, b.failed
	for _, e := range b.errs {
		fmt.Fprintf(stderr, "reprodbench: %s: failed op: %s\n", w.name, e)
	}
	return rep, nil
}

// units attaches each metric's unit.
func units(vals map[string]*float64, list []struct{ name, unit string }) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, u := range list {
		out[u.name] = metric{Value: vals[u.name], Unit: u.unit}
	}
	return out
}

// liveHeap is the bytes of live heap objects: HeapAlloc right after a
// collection, which unlike HeapInuse leaves out span fragmentation. The
// second collection empties what sync.Pools kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuModel names the processor, for comparing reports across machines.
func cpuModel() string {
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}
