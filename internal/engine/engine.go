package engine

import (
	"context"
	"fmt"
	"runtime"
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
// consumer that only writes to a terminal needs no extra locking). An
// event carries numbers, not text: Detail renders them for the sinks that
// show them. Without a consumer the engine formats nothing, not even the
// protocol's name.
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
	// Property and N identify the level check for "level.done" and
	// "shard.done". For "check.done" emitted inside a batch, N is the
	// request's index; for "checkbatch.start"/"checkbatch.done" it is the
	// batch size; for "chain.stage" the stage's index; for
	// "analyze.start"/"analyze.done" the analysis limit.
	Property Property
	N        int
	// OK is the level check's outcome (or overall success for
	// "analyze.done"/"check.done").
	OK bool
	// Cached reports that the result came from the memo cache.
	Cached bool
	// Elapsed is the wall-clock cost of the unit of work.
	Elapsed time.Duration
	// Nodes is a "check.done" walk's node count; Stages is the stage
	// count (at least one) of the chain Theorem13's "check.done" reports.
	Nodes, Stages int
	// Class is a "chain.stage" critical configuration's Observation 11
	// class.
	Class string
	// Shard (counted from 0), Shards and Scanned describe a "shard.done":
	// the finished worker, the level's worker count and the assignments
	// the worker checked.
	Shard, Shards int
	Scanned       int64
	// Graphs and Graph describe a "checkbatch.done": the distinct graphs
	// the batch walked and their reuse counters over the call.
	Graphs int
	Graph  model.GraphStats
}

// Detail renders the event's kind-specific fields as the text every sink
// shows (job SSE payloads, -progress lines, the slow-request log): the
// shard and its scanned assignments, a walk's nodes or a chain's stages,
// the stage's class, the batch's graph reuse. Kinds without such fields
// render "".
func (ev Event) Detail() string {
	switch ev.Kind {
	case "shard.done":
		return fmt.Sprintf("shard %d/%d, %d assignments", ev.Shard+1, ev.Shards, ev.Scanned)
	case "check.done":
		if ev.Stages > 0 {
			return fmt.Sprintf("%d stages", ev.Stages)
		}
		return fmt.Sprintf("%d nodes", ev.Nodes)
	case "chain.stage":
		return ev.Class
	case "checkbatch.done":
		return fmt.Sprintf("%d requests over %d graphs: %d expanded, %d reused (%.0f%% shared)",
			ev.N, ev.Graphs, ev.Graph.Expanded, ev.Graph.Reused, 100*ev.Graph.HitRate())
	}
	return ""
}

// Engine is the analysis engine. Construct with New; the zero value is
// not usable.
type Engine struct {
	ctx         context.Context
	parallelism int
	progress    func(Event)
	progressMu  sync.Mutex
	cache       *Cache
	graphs      *GraphCache
	maxN        int
	// shardThreshold is defaultShardThreshold; in-package tests lower it
	// to force sharding.
	shardThreshold int
	// active counts the chains currently executing (a single-level call
	// is a chain of one), the basis of the idle-worker estimate that
	// sizes auto-sharding.
	active atomic.Int32
}

// defaultShardThreshold is the assignment count above which a level
// check is sharded across idle workers. Below it the per-shard setup cost
// is not worth splitting: small levels finish in microseconds. The
// constant is calibrated to the symmetry-reduced space C(numOps+n-1, n),
// which stays small even when per-assignment cost explodes with n — the
// realistic huge levels (3-op types at n=5..7) have 21–36 assignments
// and multi-millisecond sweeps, so the cutoff sits just below them.
const defaultShardThreshold = 16

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

// WithGraphCache installs an exploration-graph cache, letting several
// engines (the reprod service's per-request engines, say) reuse expanded
// state spaces; NewGraphCache sets its node budget. A nil cache is
// replaced by a fresh private one. The default is a fresh private cache
// with DefaultGraphCacheBudget.
func WithGraphCache(c *GraphCache) Option {
	return func(e *Engine) { e.graphs = c }
}

// New constructs an Engine from the given options.
func New(opts ...Option) *Engine {
	e := &Engine{
		ctx:            context.Background(),
		parallelism:    runtime.NumCPU(),
		maxN:           5,
		shardThreshold: defaultShardThreshold,
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
		e.graphs = NewGraphCache(0)
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

// protoName is p's name for the events of one call: computed once, and
// only when a consumer is installed (a protocol's Name may allocate).
func (e *Engine) protoName(p model.Protocol) string {
	if e.progress == nil {
		return ""
	}
	return p.Name()
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

// levelJob is one unit of pool work, a chain: decide one property of one
// type at process counts n..top in ascending order and write each outcome
// into the job's analysis. An analysis runs two chains per type, n = 2..maxN;
// a single-level call is a chain of one level (top == n).
type levelJob struct {
	t    *spec.FiniteType
	fp   uint64
	prop Property
	n    int // the next level to decide
	top  int // the chain's last level
	// belowNegative reports that level n-1 was decided negative, so level
	// n is derived negative without a search (see run).
	belowNegative bool
	a             *core.Analysis
	mu            *sync.Mutex // guards a's maps
}

// shardsFor sizes the auto-sharding of one level check: 1 (serial) when
// the pool is one worker wide, the level's assignment space is within the
// threshold, or no workers are idle; otherwise one shard per idle worker
// plus the level's own. The estimate is taken once per level search — two
// concurrent chains may both count the same worker as idle and briefly
// oversubscribe the pool with goroutines, which Go's scheduler absorbs.
func (e *Engine) shardsFor(t *spec.FiniteType, n int) int {
	if e.parallelism <= 1 || discern.NewTupleSpace(t.NumOps(), n).Count() <= int64(e.shardThreshold) {
		return 1
	}
	idle := e.parallelism - int(e.active.Load())
	if idle < 1 {
		return 1
	}
	return idle + 1
}

// shardProgress adapts the shard reports of the level chain j is at onto
// the engine's event stream.
func (e *Engine) shardProgress(j levelJob) func(discern.ShardReport) {
	if e.progress == nil {
		return nil
	}
	return func(rep discern.ShardReport) {
		e.emit(Event{Kind: "shard.done", Type: j.t.Name(), Property: j.prop, N: j.n,
			OK: rep.Found, Elapsed: rep.Elapsed, Shard: rep.Shard, Shards: rep.Shards, Scanned: rep.Scanned})
	}
}

// key is the job's decision-cache key.
func (j levelJob) key() propKey { return propKey{fp: j.fp, prop: j.prop, n: j.n} }

// run decides the job's chain level by level, consulting and feeding the
// cache. A level is searched with the bitset decider unless the level
// below it is negative: both properties are downward closed (dropping one
// member of a team of two or more turns a witness for n >= 3 into one for
// n-1), so such a level is derived negative, through the same cache.do
// with a compute that runs no search — memoized, passed to the cache's
// sink and reported like a searched level. Searches whose assignment space is large enough —
// and for which workers are idle — are sharded across the pool (see
// shardsFor).
func (e *Engine) run(j levelJob) error {
	e.active.Add(1)
	defer e.active.Add(-1)
	for ; j.n <= j.top; j.n++ {
		start := time.Now()
		res, cached, err := e.cache.do(e.ctx, j.key(), func() (propResult, error) {
			var r propResult
			if j.belowNegative {
				return r, nil
			}
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
		j.belowNegative = !res.ok
	}
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

// runPool walks each chain on the calling goroutine while its levels are
// memoized, and drains each chain from its first miss through the shared
// worker pool, carrying whether the level below that miss was negative.
// It stops early on the first error or on engine-context cancellation
// (later chains are skipped, in-flight ones finish). A level another call
// is computing right now is not memoized yet: its chain goes to the pool
// and waits there, in the cache's singleflight. chains is overwritten.
func (e *Engine) runPool(chains []levelJob) error {
	misses := chains[:0]
	for _, j := range chains {
		for ; j.n <= j.top; j.n++ {
			start := time.Now()
			res, ok := e.cache.lookup(j.key())
			if !ok {
				misses = append(misses, j)
				break
			}
			e.deliver(j, res, true, start)
			j.belowNegative = !res.ok
		}
	}
	if len(misses) == 0 {
		return nil
	}
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

// jobsFor expands one type into its two chains, one per property, each
// over n = 2..maxN.
func jobsFor(t *spec.FiniteType, maxN int, a *core.Analysis, mu *sync.Mutex) []levelJob {
	fp := t.Fingerprint()
	return []levelJob{
		{t: t, fp: fp, prop: Discerning, n: 2, top: maxN, a: a, mu: mu},
		{t: t, fp: fp, prop: Recording, n: 2, top: maxN, a: a, mu: mu},
	}
}

// finish derives the hierarchy positions once every level is decided.
func finish(a *core.Analysis) {
	a.ConsensusNumber = core.LevelOf(a.Discerning, a.MaxN)
	a.RecoverableConsensusNumber = core.LevelOf(a.Recording, a.MaxN)
}

// Analyze computes the discerning/recording spectrum of t for all
// n in [2, MaxN] and derives hierarchy positions, running the two
// properties' level chains concurrently on the engine's pool. Each chain
// searches its levels upward and derives every level above its first
// negative one (see run). The result is identical to
// core.Analyze(t, e.MaxN()), which searches every level.
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
// the level chains of all types into one pool run so small types do not
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

// level decides exactly one level, a chain of one, outside any Analyze:
// nothing below it is consulted, so it is always searched on a miss.
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
	if err := e.run(levelJob{t: t, fp: t.Fingerprint(), prop: prop, n: n, top: n, a: a, mu: &mu}); err != nil {
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
	// MaxNodes bounds the run's explored state space, in nodes (0:
	// model.DefaultMaxNodes); a Theorem13 chain applies it to each stage.
	// An exploration that exceeds it comes back Truncated.
	MaxNodes int
	// SkipLiveness disables the recoverable wait-freedom (cycle) check.
	SkipLiveness bool
	// Ctx, when non-nil, cancels this request independently of the
	// engine context; the run stops as soon as either is done. Inside
	// CheckBatch this is the per-request cancellation handle — one
	// canceled request fails only its own item.
	Ctx context.Context
}

// Check model-checks a consensus protocol under the engine's context
// (plus the request's own context, when set). The walk runs
// on the engine's cached exploration graph for (p, inputs): a repeat
// check on one engine walks a warm graph and expands nothing. For many
// requests against one protocol, CheckBatch amortizes the state-space
// expansion across them within a single call as well.
func (e *Engine) Check(p model.Protocol, req CheckRequest) (*model.Result, error) {
	start := time.Now()
	name := e.protoName(p)
	e.emit(Event{Kind: "check.start", Type: name})
	ctx, stop := e.requestCtx(req.Ctx)
	defer stop()
	g, err := e.graphs.Get(p, req.Inputs)
	if err != nil {
		return nil, err
	}
	before := g.Stats()
	walkStart := time.Now()
	res, err := g.Check(model.CheckOpts{
		Ctx:          ctx,
		Inputs:       req.Inputs,
		CrashQuota:   req.CrashQuota,
		MaxNodes:     req.MaxNodes,
		SkipLiveness: req.SkipLiveness,
	})
	if err != nil {
		return nil, err
	}
	e.graphs.observeWalk(g, before, walkStart)
	e.graphs.Sync(g)
	e.emit(Event{Kind: "check.done", Type: name, OK: res.OK(), Elapsed: time.Since(start), Nodes: res.Nodes})
	return res, nil
}

// Theorem13 runs the mechanized Theorem 13 chain construction under the
// engine's context, reporting each stage as a progress event. The chain
// is Graph.Theorem13 on the engine's cached exploration graph for
// (p, inputs), so it expands the overlapping per-stage state spaces once
// — and a repeated chain (or a Check of the same protocol and inputs)
// reuses them again.
func (e *Engine) Theorem13(p model.Protocol, req CheckRequest) (*model.Chain, error) {
	start := time.Now()
	name := e.protoName(p)
	e.emit(Event{Kind: "chain.start", Type: name})
	ctx, stop := e.requestCtx(req.Ctx)
	defer stop()
	g, err := e.graphs.Get(p, req.Inputs)
	if err != nil {
		return nil, err
	}
	before := g.Stats()
	walkStart := time.Now()
	chain, err := g.Theorem13(req.CrashQuota, model.ChainOpts{
		Ctx:      ctx,
		MaxNodes: req.MaxNodes,
		OnStage: func(stage int, info *model.CriticalInfo) {
			e.emit(Event{Kind: "chain.stage", Type: name, N: stage, Class: info.Class})
		},
	})
	if err != nil {
		return chain, err
	}
	e.graphs.observeWalk(g, before, walkStart)
	e.graphs.Sync(g)
	e.emit(Event{Kind: "check.done", Type: name, OK: chain.Recording, Elapsed: time.Since(start),
		Stages: len(chain.Stages)})
	return chain, nil
}

// Resolve parses a registry descriptor such as "tnn:5,2" or
// "product:tas,register:2" into a type. Unknown names error with the
// list of valid descriptors.
func (e *Engine) Resolve(desc string) (*spec.FiniteType, error) {
	return registry.Parse(desc)
}
