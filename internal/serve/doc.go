// Package serve implements the reprod analysis service: an HTTP JSON
// facade over the analysis engine, built for one long-lived process
// serving many clients against one shared decision cache (optionally
// disk-backed via internal/store).
//
// Endpoints:
//
//	POST /v1/analyze  {"type":"tnn:5,2","maxN":5}       one type
//	POST /v1/batch    {"types":["tas","x4"],"maxN":4}   many types
//	POST /v1/check    {"protocol":"cas-rec:2","requests":[...]}  batched model checking
//	GET  /healthz                                       liveness
//	GET  /v1/stats                                      cache/graph/store/traffic counters
//	GET  /metrics                                       the same, Prometheus text format
//
// /v1/check model-checks a batch of requests against one registry-named
// protocol over shared exploration graphs (model.Graph via
// engine.CheckBatch): requests with the same input vector expand common
// state-space prefixes once. Errors are per-item — one malformed or
// timed-out item never fails the batch — and each item may carry its own
// timeoutMs. CheckRequestBody.Validate and RunCheckBatch are the one
// check path of /v1/check, check jobs and cmd/statemachine -check.
//
// # Concurrency and ownership
//
// Each request runs on its own short-lived engine bound to the request
// context (so per-request timeouts and client disconnects cancel the
// search), while every engine shares the server's one decision cache —
// concurrent identical analyze requests therefore collapse into one
// computation via the cache's singleflight, and previously decided
// levels are served without recomputation — and the server's one
// exploration-graph cache (engine.GraphCache, Config.GraphCacheBudget),
// so repeated check/chain traffic for the same protocol and inputs
// walks warm graphs across requests. A semaphore bounds the number of
// requests analyzing at once; the engines' worker pools interleave on
// the scheduler below that bound. The server never closes its Store —
// the owning process (cmd/reprod) flushes it at shutdown, preserving the
// one-process-per-cache-path ownership contract.
//
// # Byte-stability guarantees
//
// Responses are deterministic functions of the request and the engine's
// deterministic results: identical analyze requests yield byte-identical
// bodies whether computed or served warm from the cache, and check items
// are byte-identical to serial Engine.Check runs.
//
// The Server is an http.Handler, so tests drive it without sockets.
package serve
