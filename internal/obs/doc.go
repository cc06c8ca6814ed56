// Package obs is the dependency-free observability core every layer of
// the reproduction instruments itself with: request identity, structured
// logging and latency histograms. It imports only the standard library,
// so any package — engine, serve, client, cmd — can depend on it without
// cycles or third-party baggage.
//
// The three pieces:
//
//   - Request identity: NewRequestID generates a compact random ID,
//     WithRequestID/RequestIDFrom carry it on a context, and
//     HeaderRequestID names the X-Request-Id header it rides on between
//     client, server and log.
//   - Logging: NewLogger builds a log/slog JSON logger whose handler
//     pulls the request ID out of the context of every Log call, so one
//     grep over request_id= reconstructs a request's full story.
//     NopLogger is the disabled default (Enabled reports false, records
//     are never formatted).
//   - Histogram: a lock-free latency histogram over fixed log-spaced
//     (powers-of-two microseconds) buckets. Observe is a two-atomic-add
//     operation with no allocation and no float math, cheap enough for
//     the engine's per-walk hot path; Snapshot renders the cumulative
//     bucket view a Prometheus histogram series needs, plus estimated
//     quantiles for human-readable summaries.
//
// # Concurrency and ownership
//
// Histogram is safe for fully concurrent Observe/Snapshot with no locks
// (counters are independent atomics; a snapshot is internally consistent
// for the bucket/count invariant Prometheus requires, while Sum may lag
// by in-flight observations). Loggers returned by NewLogger are slog
// loggers and inherit slog's concurrency contract.
//
// # Byte-stability guarantees
//
// Bucket bounds are fixed at compile time and identical across every
// histogram, so exposition label sets (le="...") are stable across
// processes and versions; request IDs are random by construction and
// carry no ordering or host information.
package obs
