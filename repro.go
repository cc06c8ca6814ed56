// Package repro is a library reproduction of "Determining Recoverable
// Consensus Numbers" (Sean Ovens, PODC 2024, arXiv:2405.04775).
//
// It makes the paper's theory executable for finite deterministic types:
//
//   - deciders for Ruppert's n-discerning property and DFFR's n-recording
//     property (the bitset sweep of internal/decider, checked against the
//     recursive reference in internal/discern and internal/record), which
//     pin the consensus number and — by the paper's Theorem 14 — the
//     recoverable consensus number of readable types exactly;
//   - the non-readable family T_{n,n'} of Section 4 with its wait-free and
//     recoverable consensus algorithms, plus readable separation families
//     (Y_n with gap 1; X4/X5 with the paper's gap 2);
//   - a crash-recovery shared-memory model checker (the "valency engine"),
//     with critical-execution search and Observation 11 classification;
//   - a concurrent simulation runtime with crash-injecting adversaries.
//
// # The Engine API
//
// The primary entry point is the Engine: a long-lived analysis object
// built once with functional options and reused across workloads. It runs
// the per-level property checks concurrently on a worker pool, memoizes
// sub-decisions in a cache shared across calls (and, via WithCache,
// across engines), honors context cancellation and deadlines in every
// search hot path, and reports structured progress events:
//
//	eng := repro.New(
//		repro.WithContext(ctx),
//		repro.WithParallelism(runtime.NumCPU()),
//		repro.WithMaxN(5),
//	)
//	t, err := eng.Resolve("tnn:5,2")
//	a, err := eng.Analyze(t)       // cons / rcons spectrum of one type
//	as, err := eng.AnalyzeAll(ts)  // many types, one flat pool run
//	res, err := eng.Check(p, repro.CheckRequest{Inputs: in, CrashQuota: q})
//	items, gs, err := eng.CheckBatch(p, reqs) // many checks, one shared graph
//	ch, err := eng.Theorem13(p, repro.CheckRequest{Inputs: in, CrashQuota: q})
//
// # Deprecated free functions
//
// The original flat facade (Analyze, CheckProtocol, Theorem13Chain, ...)
// is retained as thin wrappers over a lazily constructed default engine,
// so existing call sites keep compiling and now share that engine's
// decision cache. New code should construct its own Engine; the wrappers
// are documented as deprecated and will not grow new features.
//
// The sub-packages under internal/ carry the full API surface and
// documentation.
package repro

import (
	"context"
	"sync"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/discern"
	"repro/internal/engine"
	"repro/internal/graphstore"
	"repro/internal/model"
	"repro/internal/record"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/types"
)

// Re-exported core data types.
type (
	// Type is a deterministic sequential specification over finite sets of
	// values and operations.
	Type = spec.FiniteType
	// Value, Op and Response are the primitive identifiers of a Type.
	Value = spec.Value
	// Op identifies an operation of a Type.
	Op = spec.Op
	// Response is an operation response.
	Response = spec.Response
	// TypeBuilder constructs Types.
	TypeBuilder = spec.Builder
	// Analysis is a hierarchy analysis of one type.
	Analysis = core.Analysis
	// DiscernWitness certifies n-discerning.
	DiscernWitness = discern.Witness
	// RecordWitness certifies n-recording.
	RecordWitness = record.Witness
	// Protocol is a consensus protocol in model-checkable form.
	Protocol = model.Protocol
	// CheckResult is the outcome of model checking a protocol.
	CheckResult = model.Result
	// CheckItem is one Engine.CheckBatch outcome: a result or a
	// per-request error.
	CheckItem = engine.CheckItem
	// GraphStats counts shared-exploration-graph reuse in CheckBatch.
	GraphStats = model.GraphStats
)

// Engine API types, re-exported from internal/engine.
type (
	// Engine is the concurrent, option-configured analysis engine.
	Engine = engine.Engine
	// Option configures an Engine (see the With* constructors).
	Option = engine.Option
	// CheckRequest parameterizes Engine.Check and Engine.Theorem13.
	CheckRequest = engine.CheckRequest
	// Event is a structured progress report (see WithProgress).
	Event = engine.Event
	// Cache memoizes level decisions across calls and engines. Its
	// Stats method reports cumulative hits, misses and entry count —
	// the cmd tools print it under -progress, and cmd/reprod serves it
	// on /v1/stats.
	Cache = engine.Cache
	// Property names a level property in progress events.
	Property = engine.Property
	// GraphCache is a bounded LRU of live exploration graphs keyed by
	// protocol identity + inputs, shared by Check, CheckBatch and
	// Theorem13 — and, via WithGraphCache, across engines.
	GraphCache = engine.GraphCache
	// GraphCacheStats snapshots a GraphCache's hit/miss/eviction counters
	// and footprint (Engine.GraphCacheStats; cmd/reprod serves it on
	// /v1/stats and /metrics).
	GraphCacheStats = engine.GraphCacheStats
)

// HTTP client API types, re-exported from internal/client.
type (
	// Client is the typed client of the reprod HTTP service (cmd/reprod
	// -serve): typed methods for /v1/analyze, /v1/check, /v1/protocols
	// and /v1/jobs (including resumable job event streams), decoding the
	// service's coded error envelopes into *APIError values.
	Client = client.Client
	// ClientOption configures NewClient (see client.WithHTTPClient).
	ClientOption = client.Option
	// APIError is a decoded non-2xx server reply: HTTP status, stable
	// machine-readable code, human-readable message.
	APIError = client.APIError
	// JobEvent is one event of a job's resumable event stream.
	JobEvent = client.JobEvent
)

// NewClient builds a typed client for the reprod server at baseURL.
func NewClient(baseURL string, opts ...ClientOption) *Client { return client.New(baseURL, opts...) }

// IsAPICode reports whether err is an *APIError carrying the given
// stable error code (one of the serve.Code* constants, e.g.
// "queue_full").
func IsAPICode(err error, code string) bool { return client.IsCode(err, code) }

// The two level properties appearing in progress events.
const (
	Discerning = engine.Discerning
	Recording  = engine.Recording
)

// Unbounded marks a hierarchy level that still holds at the search limit.
const Unbounded = core.Unbounded

// New constructs an analysis Engine. With no options it uses
// context.Background(), a worker per CPU, a fresh private cache, maxN=5
// and the model checker's default state budget.
func New(opts ...Option) *Engine { return engine.New(opts...) }

// NewCache returns an empty decision cache for WithCache.
func NewCache() *Cache { return engine.NewCache() }

// PersistentCache is a disk-backed decision cache: a crash-safe
// append-only journal plus a compacted snapshot (see internal/store for
// the format). Its Cache method yields the warm-loaded *Cache to install
// with WithCache; Close flushes the journal.
type PersistentCache = store.Store

// OpenCache opens (creating if absent) the persistent decision cache at
// path and warm-loads every previously persisted decision:
//
//	pc, err := repro.OpenCache("decisions.repro")
//	defer pc.Close()
//	eng := repro.New(repro.WithCache(pc.Cache()))
//
// Every decision the engine computes from then on is journaled
// asynchronously; the next OpenCache on the same path serves it without
// recomputation. Corrupted file tails (torn writes) are detected by
// per-record checksums and truncated away. One process at a time may
// hold a given path open.
func OpenCache(path string) (*PersistentCache, error) { return store.Open(path) }

// WithContext installs the context that cancels every search the engine
// runs: level checks, model-checker explorations and Theorem 13 chains.
func WithContext(ctx context.Context) Option { return engine.WithContext(ctx) }

// WithParallelism sets the worker-pool width for level checks (values
// below 1 are clamped to 1; the default is runtime.NumCPU()).
func WithParallelism(k int) Option { return engine.WithParallelism(k) }

// WithProgress installs a progress-event consumer.
func WithProgress(fn func(Event)) Option { return engine.WithProgress(fn) }

// WithCache installs a shared decision cache.
func WithCache(c *Cache) Option { return engine.WithCache(c) }

// WithMaxN sets the largest process count Engine.Analyze checks, at
// most 16 (the level decider's cap).
func WithMaxN(n int) Option { return engine.WithMaxN(n) }

// WithBudget bounds the model checker's explored state space in nodes.
func WithBudget(states int) Option { return engine.WithBudget(states) }

// WithGraphCache installs a shared exploration-graph cache, letting
// several engines reuse expanded state spaces across Check, CheckBatch
// and Theorem13 calls.
func WithGraphCache(c *GraphCache) Option { return engine.WithGraphCache(c) }

// WithGraphCacheBudget bounds the engine's private exploration-graph
// cache in total interned nodes (0 = DefaultGraphCacheBudget; negative
// disables graph caching, restoring fresh-graph-per-call behavior).
func WithGraphCacheBudget(nodes int) Option { return engine.WithGraphCacheBudget(nodes) }

// NewGraphCache returns an empty exploration-graph cache for
// WithGraphCache (budget <= 0 selects DefaultGraphCacheBudget).
func NewGraphCache(budget int) *GraphCache { return engine.NewGraphCache(budget) }

// GraphStore is a crash-safe on-disk store of expanded exploration
// graphs (see internal/graphstore for the format). Install it on a
// GraphCache with SetStore: cache misses then warm-load previously
// expanded graphs instead of re-expanding, and expanded graphs spill
// back asynchronously. Call GraphCache.Flush before exit to persist
// still-dirty graphs.
type GraphStore = graphstore.Store

// OpenGraphStore opens (creating if absent) the exploration-graph store
// rooted at dir:
//
//	gs, err := repro.OpenGraphStore("graphs")
//	gc := repro.NewGraphCache(0)
//	gc.SetStore(gs)
//	eng := repro.New(repro.WithGraphCache(gc))
//	defer gc.Flush()
//
// One file per protocol-fingerprint + inputs key; corrupted file tails
// (torn writes, bit flips) are detected by per-page checksums and the
// intact prefix is served. One process at a time may own a directory.
func OpenGraphStore(dir string) (*GraphStore, error) { return graphstore.Open(dir) }

// DefaultGraphCacheBudget is the node budget WithGraphCacheBudget(0)
// resolves to.
const DefaultGraphCacheBudget = engine.DefaultGraphCacheBudget

// WithShardThreshold controls auto-sharding of single level checks: a
// level whose operation-assignment count exceeds the threshold is split
// across the engine's idle workers, with results identical to the serial
// scan (0 = DefaultShardThreshold, negative = never shard).
func WithShardThreshold(assignments int) Option { return engine.WithShardThreshold(assignments) }

// DefaultShardThreshold is the assignment count WithShardThreshold(0)
// resolves to.
const DefaultShardThreshold = engine.DefaultShardThreshold

// Resolve parses a registry descriptor ("tas", "tnn:5,2", "x4",
// "product:tas,register:2", ...) into a type; unknown names error with
// the list of valid descriptors. It is the default engine's Resolve.
func Resolve(desc string) (*Type, error) { return Default().Resolve(desc) }

// ResolveProtocol parses a protocol registry descriptor ("tnn-wf:3,2",
// "tnn-rec:3,2", "cas-wf:2", "cas-rec:3", "tas-reg") into a
// model-checkable consensus protocol for Engine.Check, Engine.CheckBatch
// and Engine.Theorem13. It is the default engine's ResolveProtocol.
func ResolveProtocol(desc string) (Protocol, error) { return Default().ResolveProtocol(desc) }

// defaultEngine backs the deprecated free functions, so legacy call
// sites transparently share one decision cache.
var (
	defaultEngine     *Engine
	defaultEngineOnce sync.Once
)

// Default returns the process-wide engine behind the deprecated free
// functions: background context, per-CPU parallelism, one shared cache.
func Default() *Engine {
	defaultEngineOnce.Do(func() { defaultEngine = engine.New() })
	return defaultEngine
}

// NewType returns a builder for a custom type.
func NewType(name string) *TypeBuilder { return spec.NewBuilder(name) }

// Analyze computes the discerning/recording spectrum of t for process
// counts 2..maxN and derives its consensus and recoverable consensus
// numbers (exact for readable types).
//
// Deprecated: use New and Engine.Analyze (or Engine.AnalyzeTo for an
// explicit limit); this wrapper runs on the shared Default engine.
func Analyze(t *Type, maxN int) (*Analysis, error) { return Default().AnalyzeTo(t, maxN) }

// IsNDiscerning decides Ruppert's n-discerning property (n >= 2).
//
// Deprecated: use Engine.Analyze, whose per-level results are memoized;
// this wrapper calls the decider directly and caches nothing.
func IsNDiscerning(t *Type, n int) (bool, *DiscernWitness) { return discern.IsNDiscerning(t, n) }

// IsNRecording decides DFFR's n-recording property (n >= 2).
//
// Deprecated: use Engine.Analyze, whose per-level results are memoized;
// this wrapper calls the decider directly and caches nothing.
func IsNRecording(t *Type, n int) (bool, *RecordWitness) { return record.IsNRecording(t, n) }

// CheckProtocol model-checks a consensus protocol under per-process crash
// quotas (see model.CheckOpts for details).
//
// Deprecated: use New and Engine.Check, which add cancellation, state
// budgets and progress reporting; this wrapper runs on the Default engine.
func CheckProtocol(p Protocol, inputs []int, crashQuota []int) (*CheckResult, error) {
	return Default().Check(p, CheckRequest{Inputs: inputs, CrashQuota: crashQuota})
}

// FindCritical searches a checked protocol's state space for a critical
// execution (Lemma 6) and classifies the critical configuration per
// Observation 11.
func FindCritical(r *CheckResult) (*model.CriticalInfo, error) { return model.FindCritical(r) }

// Theorem13Chain mechanizes the paper's main proof (Figures 1-2): it
// iterates critical-execution search with the v-hiding and colliding
// moves until an n-recording configuration is reached.
//
// Deprecated: use New and Engine.Theorem13; this wrapper runs on the
// Default engine.
func Theorem13Chain(p Protocol, inputs, crashQuota []int) (*model.Chain, error) {
	return Default().Theorem13(p, CheckRequest{Inputs: inputs, CrashQuota: crashQuota})
}

// The type zoo.
var (
	// Tnn is the paper's T_{n,n'} (consensus number n, recoverable
	// consensus number n').
	Tnn = types.Tnn
	// TnnReadable is the readable chain family Y_n (cons n, rcons n-1).
	TnnReadable = types.TnnReadable
	// XFour is a readable type with cons 4 and rcons 2 (the paper's
	// corollary gap for n = 4).
	XFour = types.XFour
	// XFive is a readable type with cons 5 and rcons 3.
	XFive = types.XFive
	// Register, TestAndSet, Swap, FetchAdd, CompareAndSwap, StickyBit,
	// Queue, Counter, MaxRegister and Product build the classical zoo.
	Register       = types.Register
	TestAndSet     = types.TestAndSet
	Swap           = types.Swap
	FetchAdd       = types.FetchAdd
	CompareAndSwap = types.CompareAndSwap
	StickyBit      = types.StickyBit
	Queue          = types.Queue
	PeekQueue      = types.PeekQueue
	Stack          = types.Stack
	Counter        = types.Counter
	MaxRegister    = types.MaxRegister
	Product        = types.Product
	// Trivial is the one-value no-op type (cons 1).
	Trivial = types.Trivial
)
