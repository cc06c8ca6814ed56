package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/graphstore"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// parallelism is each request engine's worker-pool width. It is the one
// server setting that differs from cmd/reprod's defaults, fixed so the
// configuration does not depend on the machine.
const parallelism = 2

// newServer configures a server like cmd/reprod with its default flags:
// default maxN, decider and graph-cache budget, an info-level JSON access
// log (discarded) and a 1s slow-request threshold.
func newServer(cache *engine.Cache, st *store.Store, gs engine.GraphStore) *serve.Server {
	return serve.New(serve.Config{
		Cache:       cache,
		Store:       st,
		Parallelism: parallelism,
		GraphStore:  gs,
		Logger:      obs.NewLogger(io.Discard, slog.LevelInfo),
		SlowRequest: time.Second,
	})
}

// op is one HTTP request of a workload with the answers its reply must
// carry.
type op struct {
	path string
	body []byte
	// analyze is set for /v1/analyze ops, check for /v1/check ops (one item
	// each).
	analyze *typeAnswer
	check   *checkAnswer
	// cold marks an analyze op whose levels miss the decision cache; the
	// traced run re-times their decisions.
	cold bool
}

func analyzeOp(g *golden, desc string) (op, error) {
	want, err := g.typeAnswer(desc)
	if err != nil {
		return op{}, err
	}
	body, err := json.Marshal(serve.AnalyzeRequest{Type: desc})
	return op{path: "/v1/analyze", body: body, analyze: want}, err
}

func checkOp(g *golden, p pair) (op, error) {
	want, err := g.checkAnswer(p)
	if err != nil {
		return op{}, err
	}
	item := serve.CheckItemRequest{Inputs: p.inputs, CrashQuota: make([]int, len(p.inputs))}
	for i := range item.CrashQuota {
		item.CrashQuota[i] = crashQuota
	}
	body, err := json.Marshal(serve.CheckRequestBody{Protocol: p.protocol, Requests: []serve.CheckItemRequest{item}})
	return op{path: "/v1/check", body: body, check: want}, err
}

// recorder is an in-memory http.ResponseWriter reused across one
// client's requests.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.header)
	r.code = 0
	r.body.Reset()
}

// bench is one run of one workload: its inputs, its work directory and
// the accumulators of the phase being measured. Only the goroutine that
// runs the workload touches it.
type bench struct {
	ctx    context.Context
	seed   int64
	golden *golden
	// scale divides the workload's pools and op counts (1: full size).
	scale int
	// dir is the run's work directory; every file the run writes lives
	// under it.
	dir string
	// tr records spans during the traced phase (nil otherwise); ph
	// accumulates the phase being measured (nil during set-up).
	tr      *tracer
	runSpan int64
	ph      *phase

	attempted, failed int64
	errs              []string

	// Graph directories filled from empty, for graphstore.bytes_per_node.
	graphDirBytes, graphDirRecords int64
}

// scaled is n at the run's scale, and at least 2.
func (b *bench) scaled(n int) int {
	if b.scale > 1 {
		return max(2, n/b.scale)
	}
	return n
}

// note counts a failed op and keeps the first few messages for stderr.
func (b *bench) note(err error) {
	b.failed++
	if len(b.errs) < 5 {
		b.errs = append(b.errs, err.Error())
	}
}

// phase accumulates one timed phase.
type phase struct {
	start time.Time
	// times holds every op's end and latency; it is released before the
	// heap is measured.
	times     []opTime
	handle    time.Duration
	respBytes int64
	cold      map[string]int // cold-analyzed type -> ops

	// ops and wall cover the whole phase; steady summarizes its blocks
	// with the least steal.
	ops      int
	wall     time.Duration
	steady   steady
	mallocs  uint64
	heapLive uint64

	scrapes scrapeSum
	// Stores, summed over the phase's instances.
	opens                   int
	openTime, closeTime     time.Duration
	journalBytes            int64
	loaded, appended        int64
	gsLoadTime, gsSpillTime time.Duration
	gs                      graphstore.Stats
}

// count is the number of ops measured so far.
func (ph *phase) count() int { return len(ph.times) }

// drive sends ops 0..n-1 (n < 0: unbounded) to h from one closed-loop
// client, which sends each request only after the reply to the last. It
// stops early once deadline passes (zero: never) or the run is canceled.
func (b *bench) drive(h http.Handler, n int, at func(i int) *op, deadline time.Time, span int64) {
	rec := newRecorder()
	for i := 0; (n < 0 || i < n) && b.ctx.Err() == nil && (deadline.IsZero() || time.Now().Before(deadline)); i++ {
		b.do(h, at(i), rec, span)
	}
}

// do sends one op and checks its reply against the golden answers.
func (b *bench) do(h http.Handler, o *op, rec *recorder, span int64) {
	b.attempted++
	req, err := http.NewRequestWithContext(b.ctx, http.MethodPost, o.path, bytes.NewReader(o.body))
	if err != nil {
		b.note(err)
		return
	}
	rec.reset()
	start := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(start)
	if err := o.verify(rec.code, rec.body.Bytes()); err != nil {
		b.note(err)
	}
	ph := b.ph
	if ph == nil {
		return
	}
	ph.times = append(ph.times, opTime{end: start.Add(d).Sub(ph.start), latency: d})
	ph.handle += d
	ph.respBytes += int64(rec.body.Len())
	if o.cold {
		ph.cold[o.analyze.Type]++
	}
	b.tr.add(b.tr.newID(), span, "serve.handle", start, d, attr{"status", int64(rec.code)},
		attr{"bytes", int64(rec.body.Len())})
}

// runner is a workload's state after set-up.
type runner interface {
	// phase sends ops until deadline. It leaves the server it ended on
	// running, so the end-of-phase heap includes that server's state.
	phase(deadline time.Time) error
	// endPhase stops what phase left running.
	endPhase() error
	// close releases the set-up state.
	close() error
}

// measure runs one timed phase of d and returns its accumulators.
func (b *bench) measure(r runner, d time.Duration, traced bool) (*phase, error) {
	ph := &phase{cold: make(map[string]int), scrapes: newScrapeSum()}
	if traced {
		b.tr = newTracer()
		b.runSpan = b.tr.newID()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	ph.start = time.Now()
	b.ph = ph
	defer func() { b.ph = nil }()
	s := startSampler(ph.start)
	err := r.phase(ph.start.Add(d))
	samples := s.stop()
	ph.wall = time.Since(ph.start)
	runtime.ReadMemStats(&ms)
	ph.mallocs = ms.Mallocs - mallocs0
	ph.ops = len(ph.times)
	ph.steady = summarize(samples, ph.times)
	ph.times = nil
	ph.heapLive = liveHeap()
	err = errors.Join(err, r.endPhase(), b.ctx.Err())
	b.tr.add(b.runSpan, 0, "run", ph.start, ph.wall, attr{"ops", int64(ph.ops)})
	return ph, err
}

// instance is one server with the stores it was opened on, as one
// cmd/reprod process would hold them.
type instance struct {
	b   *bench
	dir string
	srv *serve.Server
	st  *store.Store
	gs  *timedGraphStore
	// tr is the tracer of the phase the instance was opened in, kept so
	// that no goroutine of the instance reads b.tr.
	tr    *tracer
	start time.Time
	span  int64
	// fresh marks a graph directory this instance fills from empty;
	// scratch marks a directory removed when the instance stops; warm
	// marks an instance whose stores must answer everything, so that it
	// neither journals a decision nor spills a graph.
	fresh, scratch, warm bool
	// before is the /metrics scrape the phase's deltas start from (nil:
	// the server is new, so every counter starts at zero).
	before exposition
}

// open starts a server on dir: with a decision journal (like
// -cache-file) and a graph directory (like -graph-dir) when asked.
func (b *bench) open(dir string, journal, graphs, scratch bool) (*instance, error) {
	in := &instance{b: b, dir: dir, scratch: scratch, tr: b.tr, start: time.Now(), span: b.tr.newID()}
	if journal || graphs {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	var cache *engine.Cache
	if journal {
		start := time.Now()
		st, err := store.Open(filepath.Join(dir, "decisions.repro"))
		if err != nil {
			return nil, fmt.Errorf("opening decision store: %w", err)
		}
		d := time.Since(start)
		in.tr.add(in.tr.newID(), in.span, "store.open", start, d, attr{"loaded", int64(st.Stats().Loaded)})
		if ph := b.ph; ph != nil {
			ph.opens++
			ph.openTime += d
		}
		in.st, cache = st, st.Cache()
	}
	if graphs {
		gdir := filepath.Join(dir, "graphs")
		entries, _ := os.ReadDir(gdir)
		in.fresh = len(entries) == 0
		s, err := graphstore.Open(gdir)
		if err != nil {
			if in.st != nil {
				in.st.Close()
			}
			return nil, fmt.Errorf("opening graph store: %w", err)
		}
		in.gs = &timedGraphStore{inner: s, tr: in.tr, span: in.span}
		in.srv = newServer(cache, in.st, in.gs)
		return in, nil
	}
	in.srv = newServer(cache, in.st, nil)
	return in, nil
}

// flush spills every dirty graph synchronously. A spill the graph cache
// started on its own may still be running when it returns, but its graph
// was dirty, so flush spilled it too, and the late spill finds nothing
// new to write.
func (in *instance) flush() error {
	if err := in.srv.FlushGraphs(); err != nil {
		return fmt.Errorf("flushing graphs: %w", err)
	}
	return nil
}

// stop shuts the instance down in cmd/reprod's order: flush graphs, drain
// jobs, close the decision store. A graph-store error, a sticky journal
// error or a warm instance that had to decide or expand fails the run.
func (in *instance) stop() error {
	b, ph := in.b, in.b.ph
	var errs []error
	if err := in.flush(); err != nil {
		errs = append(errs, err)
	}
	if ph != nil && in.tr != nil {
		after, err := scrape(in.srv)
		if err != nil {
			errs = append(errs, err)
		} else {
			ph.scrapes.add(in.before, after)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := in.srv.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("draining jobs: %w", err))
	}
	cancel()
	if in.gs != nil {
		st := in.gs.inner.Stats()
		if st.Errors > 0 {
			errs = append(errs, fmt.Errorf("graph store: %d errors", st.Errors))
		}
		if in.warm && st.SpilledNodes > 0 {
			errs = append(errs, fmt.Errorf("warm restart spilled %d graph nodes: the graph store did not answer", st.SpilledNodes))
		}
		if in.fresh && st.SpilledNodes > 0 {
			b.graphDirBytes += dirBytes(in.gs.inner.Dir())
			b.graphDirRecords += int64(st.SpilledNodes)
		}
		if ph != nil {
			in.gs.mu.Lock()
			ph.gsLoadTime += in.gs.loadTime
			ph.gsSpillTime += in.gs.spillTime
			in.gs.mu.Unlock()
			ph.gs.Loads += st.Loads
			ph.gs.LoadedNodes += st.LoadedNodes
			ph.gs.Spills += st.Spills
			ph.gs.SpilledNodes += st.SpilledNodes
			ph.gs.Errors += st.Errors
		}
	}
	if in.st != nil {
		start := time.Now()
		err := in.st.Close()
		d := time.Since(start)
		if err != nil {
			errs = append(errs, fmt.Errorf("closing decision store: %w", err))
		}
		st := in.st.Stats()
		if in.warm && st.Appended > 0 {
			errs = append(errs, fmt.Errorf("warm restart journaled %d decisions: the journal did not answer", st.Appended))
		}
		in.tr.add(in.tr.newID(), in.span, "store.close", start, d, attr{"appended", int64(st.Appended)})
		if ph != nil {
			ph.closeTime += d
			ph.loaded += int64(st.Loaded)
			ph.appended += int64(st.Appended)
			ph.journalBytes += st.JournalBytes + st.SnapshotBytes
		}
	}
	in.tr.add(in.span, b.runSpan, "generation", in.start, time.Since(in.start))
	if in.scratch {
		if err := os.RemoveAll(in.dir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// scrape reads the server's /metrics exposition.
func scrape(h http.Handler) (exposition, error) {
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	h.ServeHTTP(rec, req)
	if rec.code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", rec.code)
	}
	return parseExposition(rec.body.String())
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	entries, _ := os.ReadDir(dir)
	var n int64
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}

// timedGraphStore is the engine.GraphStore the benchmark installs over
// a *graphstore.Store: it times every load and spill from outside the
// program. Counts come from the store's own Stats.
type timedGraphStore struct {
	inner *graphstore.Store
	tr    *tracer
	span  int64

	mu                  sync.Mutex
	loadTime, spillTime time.Duration
}

func (s *timedGraphStore) Load(fp string, inputs []int) (*model.GraphSnapshot, error) {
	start := time.Now()
	snap, err := s.inner.Load(fp, inputs)
	d := time.Since(start)
	s.mu.Lock()
	s.loadTime += d
	s.mu.Unlock()
	s.tr.add(s.tr.newID(), s.span, "graphstore.load", start, d, attr{"hit", boolInt(snap != nil)})
	return snap, err
}

func (s *timedGraphStore) Spill(fp string, inputs []int, snap *model.GraphSnapshot) (int, error) {
	start := time.Now()
	n, err := s.inner.Spill(fp, inputs, snap)
	d := time.Since(start)
	s.mu.Lock()
	s.spillTime += d
	s.mu.Unlock()
	s.tr.add(s.tr.newID(), s.span, "graphstore.spill", start, d, attr{"records", int64(n)})
	return n, err
}

func boolInt(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// quantile returns the nearest-rank pct-th percentile of sorted: the
// smallest sample with at least pct percent of the sample at or below it.
func quantile(sorted []float64, pct int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (pct*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// e2e computes the end-to-end metrics of an untraced phase: times over
// its steady blocks, counts over all of it.
func e2e(ph *phase, setupS float64) map[string]*float64 {
	st := ph.steady
	ops := float64(st.ops)
	return map[string]*float64{
		"throughput_ops_s": num(ratio(ops, st.wall.Seconds())),
		"latency_p50_ms":   num(st.p50),
		"latency_p99_ms":   num(st.p99),
		"cpu_ms_per_op":    num(ratio(float64(st.cpu)/float64(time.Millisecond), ops)),
		"allocs_per_op":    num(ratio(float64(ph.mallocs), float64(ph.ops))),
		"heap_live_mb":     num(float64(ph.heapLive) / (1 << 20)),
		"setup_s":          num(setupS),
	}
}

func num(v float64) *float64 { return &v }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
