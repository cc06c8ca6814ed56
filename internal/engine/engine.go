package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/decider"
	"repro/internal/discern"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/record"
	"repro/internal/registry"
	"repro/internal/spec"
)

// Property names one of the paper's two level properties.
type Property string

// The two properties the engine decides per level.
const (
	Discerning Property = "discerning"
	Recording  Property = "recording"
)

// Event is one structured progress report. Events are emitted from worker
// goroutines; the consumer installed with WithProgress must be safe for
// concurrent use (the engine serializes emissions with a mutex, so a
// consumer that only writes to a terminal needs no extra locking).
type Event struct {
	// Kind is "analyze.start", "level.done", "shard.done",
	// "analyze.done", "check.start", "check.done", "checkbatch.start",
	// "checkbatch.done", "chain.start", or "chain.stage". The ".start"
	// kinds are span-begin markers paired with the matching ".done"
	// event, letting a consumer (job SSE streams, the slow-request
	// trace) see where a request's time went.
	Kind string
	// Type is the analyzed type's name (analyze/level events) or the
	// protocol's name (check/chain/checkbatch events).
	Type string
	// Property and N identify the level check for "level.done". For
	// "check.done" emitted inside a batch, N is the request's index; for
	// "checkbatch.done" it is the batch size.
	Property Property
	N        int
	// OK is the level check's outcome (or overall success for
	// "analyze.done"/"check.done").
	OK bool
	// Cached reports that the result came from the memo cache.
	Cached bool
	// Elapsed is the wall-clock cost of the unit of work.
	Elapsed time.Duration
	// Detail carries kind-specific extras (critical class for
	// "chain.stage", node counts for "check.done", shard index and
	// scanned-assignment counts for "shard.done", shared-graph
	// expanded/reused counters for "checkbatch.done").
	Detail string
}

// Engine is the analysis engine. Construct with New; the zero value is
// not usable.
type Engine struct {
	ctx            context.Context
	parallelism    int
	progress       func(Event)
	progressMu     sync.Mutex
	cache          *Cache
	graphs         *GraphCache
	graphBudget    int
	maxN           int
	budget         int
	shardThreshold int
	metrics        *Metrics
	// active counts the level checks currently executing, the basis of
	// the idle-worker estimate that sizes auto-sharding.
	active atomic.Int32
}

// DefaultShardThreshold is the assignment count above which a level
// check is sharded across idle workers when WithShardThreshold is left
// at 0 (see that option). Below it the per-shard setup cost is not
// worth splitting: small levels finish in microseconds. The constant is
// calibrated to the symmetry-reduced space C(numOps+n-1, n), which
// stays small even when per-assignment cost explodes with n — the
// realistic huge levels (3-op types at n=5..7) have 21–36 assignments
// and multi-millisecond sweeps, so the cutoff sits just below them.
const DefaultShardThreshold = 16

// Option configures an Engine.
type Option func(*Engine)

// WithContext installs the context that cancels every search the engine
// runs: level checks, model-checker explorations and Theorem 13 chains.
// The default is context.Background().
func WithContext(ctx context.Context) Option {
	return func(e *Engine) { e.ctx = ctx }
}

// WithParallelism sets the worker-pool width for level checks. Values
// below 1 are clamped to 1. The default is runtime.NumCPU().
func WithParallelism(k int) Option {
	return func(e *Engine) { e.parallelism = k }
}

// WithProgress installs a progress consumer. Emissions are serialized by
// the engine. A nil fn disables progress (the default).
func WithProgress(fn func(Event)) Option {
	return func(e *Engine) { e.progress = fn }
}

// WithCache installs a shared decision cache, letting several engines
// (or sequential rebuilds of one engine) reuse sub-decisions. A nil cache
// is replaced by a fresh one. The default is a fresh private cache.
func WithCache(c *Cache) Option {
	return func(e *Engine) { e.cache = c }
}

// WithMaxN sets the largest process count Analyze checks (the default
// is 5). AnalyzeTo overrides it per call. Limits above
// decider.BitsetMaxN (16) are rejected by the analysis calls.
func WithMaxN(n int) Option {
	return func(e *Engine) { e.maxN = n }
}

// WithGraphCache installs a shared exploration-graph cache, letting
// several engines (the reprod service's per-request engines, say) reuse
// expanded state spaces. A nil cache is replaced by a fresh private one.
// The default is a fresh private cache with the engine's
// WithGraphCacheBudget.
func WithGraphCache(c *GraphCache) Option {
	return func(e *Engine) { e.graphs = c }
}

// WithGraphCacheBudget bounds the engine's private graph cache: the total
// number of interned exploration-graph nodes retained across cached
// graphs before least-recently-used graphs are evicted. A budget <= 0
// (the default is 0) selects DefaultGraphCacheBudget. Ignored when
// WithGraphCache installs a shared cache, which carries its own budget.
func WithGraphCacheBudget(nodes int) Option {
	return func(e *Engine) { e.graphBudget = nodes }
}

// WithBudget bounds the model checker's explored state space, in nodes,
// for Check and Theorem13 (0 means the checker's default). Explorations
// that exceed the budget come back Truncated, exactly as with
// model.CheckOpts.MaxNodes.
func WithBudget(states int) Option {
	return func(e *Engine) { e.budget = states }
}

// WithShardThreshold controls auto-sharding of single level checks: a
// level whose symmetry-reduced operation-assignment count exceeds the
// threshold is split across the engine's idle workers (one shard per
// idle worker plus the level's own), so a single huge-n check uses the
// whole pool instead of pinning one core. Sharded and serial checks
// return identical results. 0 (the default) selects
// DefaultShardThreshold; a negative threshold disables sharding
// entirely.
func WithShardThreshold(assignments int) Option {
	return func(e *Engine) { e.shardThreshold = assignments }
}

// New constructs an Engine from the given options.
func New(opts ...Option) *Engine {
	e := &Engine{
		ctx:         context.Background(),
		parallelism: runtime.NumCPU(),
		maxN:        5,
	}
	for _, o := range opts {
		o(e)
	}
	if e.parallelism < 1 {
		e.parallelism = 1
	}
	if e.cache == nil {
		e.cache = NewCache()
	}
	if e.graphs == nil {
		e.graphs = NewGraphCache(e.graphBudget)
	}
	// An out-of-range maxN is reported by Analyze/AnalyzeAll, not here:
	// option application has no error channel.
	return e
}

// MaxN returns the engine's configured analysis limit.
func (e *Engine) MaxN() int { return e.maxN }

// Cache returns the engine's decision cache (for stats and sharing).
func (e *Engine) Cache() *Cache { return e.cache }

// GraphCache returns the engine's exploration-graph cache.
func (e *Engine) GraphCache() *GraphCache { return e.graphs }

// GraphCacheStats snapshots the graph cache's counters.
func (e *Engine) GraphCacheStats() GraphCacheStats { return e.graphs.Stats() }

// graphFor resolves the exploration graph a check of (p, inputs) walks:
// the cached live graph.
func (e *Engine) graphFor(p model.Protocol, inputs []int) (*model.Graph, error) {
	start := time.Now()
	g, err := e.graphs.Get(p, inputs)
	if err == nil {
		e.metrics.observeResolve(time.Since(start))
	}
	return g, err
}

// emit serializes progress emissions.
func (e *Engine) emit(ev Event) {
	if e.progress == nil {
		return
	}
	e.progressMu.Lock()
	e.progress(ev)
	e.progressMu.Unlock()
}

// levelJob is one unit of pool work: decide one property of one type at
// one process count and write the outcome into the job's analysis.
type levelJob struct {
	t    *spec.FiniteType
	fp   uint64
	prop Property
	n    int
	a    *core.Analysis
	mu   *sync.Mutex // guards a's maps
}

// shardsFor sizes the auto-sharding of one level check: 1 (serial) when
// sharding is disabled, the level's assignment space is below the
// threshold, or no workers are idle; otherwise one shard per idle worker
// plus the level's own. The estimate is taken once at job start — two
// concurrent jobs may both count the same worker as idle and briefly
// oversubscribe the pool with goroutines, which Go's scheduler absorbs.
func (e *Engine) shardsFor(t *spec.FiniteType, n int) int {
	thr := e.shardThreshold
	if thr < 0 || e.parallelism <= 1 {
		return 1
	}
	if thr == 0 {
		thr = DefaultShardThreshold
	}
	if discern.NewTupleSpace(t.NumOps(), n, false).Count() <= int64(thr) {
		return 1
	}
	idle := e.parallelism - int(e.active.Load())
	if idle < 1 {
		return 1
	}
	return idle + 1
}

// shardProgress adapts one level job's shard reports onto the engine's
// event stream.
func (e *Engine) shardProgress(j levelJob) func(discern.ShardReport) {
	if e.progress == nil {
		return nil
	}
	return func(rep discern.ShardReport) {
		e.emit(Event{Kind: "shard.done", Type: j.t.Name(), Property: j.prop, N: j.n,
			OK: rep.Found, Elapsed: rep.Elapsed,
			Detail: fmt.Sprintf("shard %d/%d, %d assignments", rep.Shard+1, rep.Shards, rep.Scanned)})
	}
}

// key is the job's decision-cache key.
func (j levelJob) key() propKey { return propKey{fp: j.fp, prop: j.prop, n: j.n} }

// run decides the job with the bitset decider, consulting and feeding
// the cache. Level checks whose assignment space is large enough — and
// for which workers are idle — are sharded across the pool (see
// WithShardThreshold).
func (e *Engine) run(j levelJob) error {
	start := time.Now()
	e.active.Add(1)
	defer e.active.Add(-1)
	res, cached, err := e.cache.do(e.ctx, j.key(), func() (propResult, error) {
		var r propResult
		var err error
		shards := e.shardsFor(j.t, j.n)
		var onShard func(discern.ShardReport)
		if shards > 1 {
			onShard = e.shardProgress(j)
		}
		switch j.prop {
		case Discerning:
			r.ok, r.dw, err = decider.IsNDiscerning(e.ctx, j.t, j.n, shards, onShard)
		case Recording:
			r.ok, r.rw, err = decider.IsNRecording(e.ctx, j.t, j.n, shards, onShard)
		}
		return r, err
	})
	if err != nil {
		return err
	}
	e.deliver(j, res, cached, start)
	return nil
}

// deliver writes a decided level into the job's analysis and emits its
// "level.done" event. Witnesses are served as deep copies: their
// Teams/Ops slices are exported, and the cached originals outlive any
// one call (the Default engine's cache is process-wide), so a caller
// mutating an Analysis must not corrupt later analyses.
func (e *Engine) deliver(j levelJob, res propResult, cached bool, start time.Time) {
	j.mu.Lock()
	switch j.prop {
	case Discerning:
		j.a.Discerning[j.n] = res.ok
		if res.ok {
			j.a.DiscerningWitness[j.n] = res.dw.Clone()
		}
	case Recording:
		j.a.Recording[j.n] = res.ok
		if res.ok {
			j.a.RecordingWitness[j.n] = res.rw.Clone()
		}
	}
	j.mu.Unlock()
	e.emit(Event{Kind: "level.done", Type: j.t.Name(), Property: j.prop, N: j.n,
		OK: res.ok, Cached: cached, Elapsed: time.Since(start)})
}

// runPool answers the jobs whose levels are memoized on the calling
// goroutine and drains the rest through the shared worker pool, stopping
// early on the first error or on engine-context cancellation (later jobs
// are skipped, in-flight ones finish). A level another call is computing
// right now is not memoized yet: it goes to the pool and waits there, in
// the cache's singleflight. jobs is reordered in place.
func (e *Engine) runPool(jobs []levelJob) error {
	misses := jobs[:0]
	for _, j := range jobs {
		start := time.Now()
		if res, ok := e.cache.lookup(j.key()); ok {
			e.deliver(j, res, true, start)
			continue
		}
		misses = append(misses, j)
	}
	if len(misses) == 0 {
		return nil
	}
	// Heaviest levels first: the pool's makespan is bounded by its
	// largest job, so schedule high n (exponentially dominant) early.
	sort.SliceStable(misses, func(i, k int) bool { return misses[i].n > misses[k].n })

	fed, err := pool.Run(e.ctx, len(misses), e.parallelism,
		func(i int) error { return e.run(misses[i]) })
	if err != nil {
		return err
	}
	if fed < len(misses) {
		// Feeding stopped early, which only the context can cause when
		// no job errored; the analysis maps are incomplete.
		if cerr := e.ctx.Err(); cerr != nil {
			return cerr
		}
		return fmt.Errorf("engine: job feed stopped early")
	}
	return nil
}

// newAnalysis prepares an empty Analysis shell for t.
func newAnalysis(t *spec.FiniteType, maxN int) *core.Analysis {
	return &core.Analysis{
		Type:              t,
		MaxN:              maxN,
		Readable:          t.Readable(),
		Discerning:        make(map[int]bool, maxN-1),
		Recording:         make(map[int]bool, maxN-1),
		DiscerningWitness: make(map[int]*discern.Witness),
		RecordingWitness:  make(map[int]*record.Witness),
	}
}

// jobsFor expands one type into its 2*(maxN-1) level jobs.
func jobsFor(t *spec.FiniteType, maxN int, a *core.Analysis, mu *sync.Mutex) []levelJob {
	fp := t.Fingerprint()
	jobs := make([]levelJob, 0, 2*(maxN-1))
	for n := 2; n <= maxN; n++ {
		for _, prop := range []Property{Discerning, Recording} {
			jobs = append(jobs, levelJob{t: t, fp: fp, prop: prop, n: n, a: a, mu: mu})
		}
	}
	return jobs
}

// finish derives the hierarchy positions once every level is decided.
func finish(a *core.Analysis) {
	a.ConsensusNumber = core.LevelOf(a.Discerning, a.MaxN)
	a.RecoverableConsensusNumber = core.LevelOf(a.Recording, a.MaxN)
}

// Analyze computes the discerning/recording spectrum of t for all
// n in [2, MaxN] and derives hierarchy positions, running the level
// checks concurrently on the engine's pool. The result is identical to
// core.Analyze(t, e.MaxN()).
func (e *Engine) Analyze(t *spec.FiniteType) (*core.Analysis, error) {
	return e.AnalyzeTo(t, e.maxN)
}

// checkMaxN rejects an analysis limit outside [2, decider.BitsetMaxN].
func checkMaxN(maxN int) error {
	if maxN < 2 {
		return fmt.Errorf("engine: need maxN >= 2, got %d", maxN)
	}
	if err := decider.CheckN(maxN); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// AnalyzeTo is Analyze with an explicit process-count limit overriding
// the engine's MaxN.
func (e *Engine) AnalyzeTo(t *spec.FiniteType, maxN int) (*core.Analysis, error) {
	if err := checkMaxN(maxN); err != nil {
		return nil, err
	}
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	e.emit(Event{Kind: "analyze.start", Type: t.Name(), N: maxN})
	a := newAnalysis(t, maxN)
	var mu sync.Mutex
	if err := e.runPool(jobsFor(t, maxN, a, &mu)); err != nil {
		return nil, err
	}
	finish(a)
	e.emit(Event{Kind: "analyze.done", Type: t.Name(), N: maxN, OK: true,
		Elapsed: time.Since(start)})
	return a, nil
}

// AnalyzeAll analyzes every type in ts up to the engine's MaxN, flattening
// all level checks of all types into one pool run so small types do not
// serialize behind large ones. Results are returned in input order.
func (e *Engine) AnalyzeAll(ts []*spec.FiniteType) ([]*core.Analysis, error) {
	if err := checkMaxN(e.maxN); err != nil {
		return nil, err
	}
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]*core.Analysis, len(ts))
	var jobs []levelJob
	var mu sync.Mutex
	for i, t := range ts {
		out[i] = newAnalysis(t, e.maxN)
		jobs = append(jobs, jobsFor(t, e.maxN, out[i], &mu)...)
	}
	if err := e.runPool(jobs); err != nil {
		return nil, err
	}
	for _, a := range out {
		finish(a)
	}
	return out, nil
}

// Discerning decides one discerning level of t (n >= 2), serving and
// feeding the engine's cache. When the level's assignment space is large
// and workers are idle — in particular for a dedicated call like this
// one, where the whole pool minus one worker is idle — the enumeration
// is sharded across the pool, turning a single huge-n check from
// one-core to all-core while returning exactly the serial result.
func (e *Engine) Discerning(t *spec.FiniteType, n int) (bool, *discern.Witness, error) {
	a, err := e.level(t, Discerning, n)
	if err != nil {
		return false, nil, err
	}
	return a.Discerning[n], a.DiscerningWitness[n], nil
}

// Recording is Discerning for the recording property.
func (e *Engine) Recording(t *spec.FiniteType, n int) (bool, *record.Witness, error) {
	a, err := e.level(t, Recording, n)
	if err != nil {
		return false, nil, err
	}
	return a.Recording[n], a.RecordingWitness[n], nil
}

// level runs one level job outside any Analyze sweep.
func (e *Engine) level(t *spec.FiniteType, prop Property, n int) (*core.Analysis, error) {
	if n < 2 {
		return nil, fmt.Errorf("engine: need n >= 2, got %d", n)
	}
	if err := decider.CheckN(n); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	a := newAnalysis(t, n)
	var mu sync.Mutex
	if err := e.run(levelJob{t: t, fp: t.Fingerprint(), prop: prop, n: n, a: a, mu: &mu}); err != nil {
		return nil, err
	}
	return a, nil
}

// CheckRequest parameterizes one model-checking run.
type CheckRequest struct {
	// Inputs is the binary input of each process.
	Inputs []int
	// CrashQuota[p] bounds process p's crashes (nil: crash-free).
	CrashQuota []int
	// MaxNodes overrides the engine's budget for this run (0: use the
	// engine budget, which itself defaults to the checker's default).
	MaxNodes int
	// SkipLiveness disables the recoverable wait-freedom (cycle) check.
	SkipLiveness bool
	// Ctx, when non-nil, cancels this request independently of the
	// engine context; the run stops as soon as either is done. Inside
	// CheckBatch this is the per-request cancellation handle — one
	// canceled request fails only its own item.
	Ctx context.Context
}

// maxNodes resolves a request's node bound against the engine budget.
func (e *Engine) maxNodes(req CheckRequest) int {
	if req.MaxNodes > 0 {
		return req.MaxNodes
	}
	return e.budget
}

// Check model-checks a consensus protocol under the engine's context and
// state budget (plus the request's own context, when set). The walk runs
// on the engine's cached exploration graph for (p, inputs): a repeat
// check on one engine walks a warm graph and expands nothing. For many
// requests against one protocol, CheckBatch amortizes the state-space
// expansion across them within a single call as well.
func (e *Engine) Check(p model.Protocol, req CheckRequest) (*model.Result, error) {
	start := time.Now()
	// Event payloads (Name, Sprintf details) are built only when a
	// progress sink exists — a warm headless Check emits nothing and
	// must allocate nothing for it.
	if e.progress != nil {
		e.emit(Event{Kind: "check.start", Type: p.Name()})
	}
	ctx, stop := e.requestCtx(req.Ctx)
	defer stop()
	g, err := e.graphFor(p, req.Inputs)
	if err != nil {
		return nil, err
	}
	before := g.Stats()
	walkStart := time.Now()
	res, err := g.Check(model.CheckOpts{
		Ctx:          ctx,
		Inputs:       req.Inputs,
		CrashQuota:   req.CrashQuota,
		MaxNodes:     e.maxNodes(req),
		SkipLiveness: req.SkipLiveness,
	})
	if err != nil {
		return nil, err
	}
	e.metrics.observeWalk(g.Stats().Sub(before).Expanded > 0, time.Since(walkStart))
	e.graphs.Sync(g)
	if e.progress != nil {
		e.emit(Event{Kind: "check.done", Type: p.Name(), OK: res.OK(),
			Elapsed: time.Since(start), Detail: fmt.Sprintf("%d nodes", res.Nodes)})
	}
	return res, nil
}

// Theorem13 runs the mechanized Theorem 13 chain construction under the
// engine's context and state budget, reporting each stage as a progress
// event. All chain stages walk the engine's cached exploration graph for
// (p, inputs), so the chain expands the overlapping per-stage state
// spaces once — and a repeated chain (or a Check of the same protocol
// and inputs) reuses them again.
func (e *Engine) Theorem13(p model.Protocol, req CheckRequest) (*model.Chain, error) {
	start := time.Now()
	if e.progress != nil {
		e.emit(Event{Kind: "chain.start", Type: p.Name()})
	}
	ctx, stop := e.requestCtx(req.Ctx)
	defer stop()
	g, err := e.graphFor(p, req.Inputs)
	if err != nil {
		return nil, err
	}
	before := g.Stats()
	walkStart := time.Now()
	chain, err := model.Theorem13ChainOpts(p, req.Inputs, req.CrashQuota, model.ChainOpts{
		Ctx:      ctx,
		MaxNodes: e.maxNodes(req),
		Graph:    g,
		OnStage: func(stage int, info *model.CriticalInfo) {
			e.emit(Event{Kind: "chain.stage", Type: p.Name(), N: stage,
				Detail: info.Class})
		},
	})
	if err != nil {
		return chain, err
	}
	e.metrics.observeWalk(g.Stats().Sub(before).Expanded > 0, time.Since(walkStart))
	e.graphs.Sync(g)
	if e.progress != nil {
		e.emit(Event{Kind: "check.done", Type: p.Name(), OK: chain.Recording,
			Elapsed: time.Since(start), Detail: fmt.Sprintf("%d stages", len(chain.Stages))})
	}
	return chain, nil
}

// Resolve parses a registry descriptor such as "tnn:5,2" or
// "product:tas,register:2" into a type. Unknown names error with the
// list of valid descriptors.
func (e *Engine) Resolve(desc string) (*spec.FiniteType, error) {
	return registry.Parse(desc)
}
