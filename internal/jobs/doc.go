// Package jobs is the service's asynchronous job subsystem: a bounded
// priority queue in front of a fixed worker pool, with per-job contexts,
// timeouts and an ordered, subscribable progress-event stream.
//
// The design goals mirror what the HTTP surface needs. Admission control
// is explicit — Submit refuses work beyond the queue bound with
// ErrQueueFull, which the server turns into HTTP 429 backpressure
// instead of unbounded buffering. Progress is observable — Run functions
// stream engine events through Job.Publish, each job keeps a bounded
// replay ring so late subscribers catch up, and every stream ends with a
// terminal lifecycle event ("job.done", "job.failed", "job.canceled")
// followed by channel close, which is exactly the shape an SSE handler
// wants. Shutdown is orderly — Manager.Close stops intake, cancels
// queued and running jobs, and waits (bounded by a context) for workers
// to drain, so the server can flush its decision journal after all job
// work has stopped.
//
// Finished jobs stay resolvable by ID up to a history limit, so clients
// can poll GET /v1/jobs/{id} for terminal states they missed.
package jobs
