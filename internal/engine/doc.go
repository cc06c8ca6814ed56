// Package engine is the concurrent analysis engine behind the repro
// facade: a long-lived, option-configured object that runs the paper's
// discerning/recording level checks across a worker pool, memoizes
// sub-decisions in a shared cache, threads context cancellation through
// the hot search loops (internal/decider, internal/model), and reports
// structured progress events.
//
// Every level check runs the bitset decider of internal/decider; there
// is no other to choose. Process counts above decider.BitsetMaxN are
// rejected by Analyze, AnalyzeTo, AnalyzeAll, Discerning and Recording
// before any work.
//
// The design follows the long-lived-engine idiom of production consensus
// stacks: construct once with functional options, submit many workloads,
// share caches between them.
//
// # Concurrency and ownership
//
// One Engine is safe for concurrent use by multiple goroutines;
// independent level checks of one Analyze call — and of concurrent
// Analyze calls — interleave freely on the pool. A Cache may back any
// number of engines at once (WithCache); its singleflight layer
// guarantees concurrent identical level checks run the underlying
// decider exactly once. Levels already memoized in the cache are
// answered on the calling goroutine, each with its "level.done" event
// (Cached set); only the misses reach the pool, so an analysis whose
// every level hits starts no worker. Progress consumers are invoked
// under an engine-held mutex, so one emission at a time; the consumer
// must not call back into the engine.
//
// # The exploration-graph cache
//
// Check, CheckBatch and Theorem13 resolve their model.Graphs through a
// GraphCache: a bounded LRU keyed by protocol identity + input vector,
// engine-private by default (WithGraphCacheBudget) or shared across
// engines (WithGraphCache — the reprod service installs one server-wide
// cache into its per-request engines). The cache owns only references:
// graphs are built under the cache lock (cheap validation; expansion is
// lazy and singleflight inside the graph), the node budget is enforced
// against live node counts on every resolution, and evicting a graph
// never invalidates walks already running on it — they hold their own
// reference and finish unharmed. Every engine has a graph cache, its
// own or a shared one.
//
// # Observability
//
// Check, CheckBatch and Theorem13 bracket their work with
// ".start"/".done" progress events, so a consumer sees spans, not just
// outcomes — the reprod service forwards them onto job SSE streams and
// into per-request slow-request traces. WithMetrics installs a shared
// Metrics collector of lock-free latency histograms (internal/obs)
// split by phase: graph resolution, cold walks that expanded state
// space, and warm walks that reused it. Observation costs two atomic
// adds per walk and allocates nothing, so instrumented and bare engines
// have the same hot path.
//
// # Byte-stability guarantees
//
// Sharded and serial level checks return identical results, including
// the witness chosen (the lowest-ranked one in the deterministic tuple
// enumeration). Check, CheckBatch and Theorem13 results are
// byte-identical whether their graphs are cold, warm, shared with
// concurrent calls, or rebuilt after eviction — all run the one
// exploration code path, model.(*Graph).Check, whose walks are
// deterministic overlays. Witnesses served from the decision cache are
// deep copies, so callers may mutate what they receive without
// corrupting later analyses.
package engine
