package serve

import (
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// endpointStats is one endpoint's middleware-collected instrumentation:
// a latency histogram plus request totals by status class. Built once at
// route registration; all fields are concurrency-safe.
type endpointStats struct {
	latency obs.Histogram
	// byClass[c] counts responses with status in [100c, 100c+100);
	// index 0 collects nothing (no 0xx statuses exist).
	byClass [6]atomic.Uint64
}

// statusClasses are the reprod_requests_total `code` label values, by
// byClass index.
var statusClasses = [6]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx"}

func classIndex(status int) int {
	c := status / 100
	if c < 0 || c >= len(statusClasses) {
		return 0
	}
	return c
}

// statusWriter wraps a ResponseWriter to capture the response status for
// the access log and per-endpoint counters. It forwards Flush so
// streaming handlers (the job SSE endpoint type-asserts http.Flusher)
// keep working behind the middleware.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.wrote {
		return w.code
	}
	return http.StatusOK
}

// instrument wraps one route with the server's observability middleware:
//
//   - request identity: a client-supplied X-Request-Id (validated) or a
//     generated one is installed on the request context — every
//     InfoContext log line carries it — and echoed on the response
//     header before the handler runs, so even error envelopes written
//     mid-handler can reference it.
//   - with Config.SlowRequest above 0, a per-request trace on the
//     context; the request engine streams its progress events into it
//     (see requestEngine), and the slow-request log renders it when the
//     request exceeds the threshold.
//   - panic recovery: a panicking handler answers a coded 500 envelope
//     (when nothing was written yet) and logs the stack instead of
//     tearing down the connection silently.
//   - instrumentation: one access-log line, a latency observation in the
//     endpoint's histogram, and a status-class increment in
//     reprod_requests_total — for every endpoint and every outcome,
//     success or failure.
func (s *Server) instrument(endpoint string, es *endpointStats, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(obs.HeaderRequestID)
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set(obs.HeaderRequestID, id)
		ctx := obs.WithRequestID(r.Context(), id)
		var tr *trace
		if s.cfg.SlowRequest > 0 {
			tr = newTrace()
			ctx = withTrace(ctx, tr)
		}
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				s.logger.ErrorContext(ctx, "http.panic",
					slog.String("endpoint", endpoint),
					slog.Any("panic", rec),
					slog.String("stack", string(debug.Stack())))
				if !sw.wrote {
					s.failCode(sw, http.StatusInternalServerError, CodeInternal, "internal server error")
				}
			}
			elapsed := time.Since(start)
			status := sw.status()
			es.latency.Observe(elapsed)
			es.byClass[classIndex(status)].Add(1)
			s.logger.InfoContext(ctx, "http.access",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("endpoint", endpoint),
				slog.Int("status", status),
				slog.Duration("elapsed", elapsed))
			if tr != nil && elapsed >= s.cfg.SlowRequest {
				s.logger.WarnContext(ctx, "http.slow",
					slog.String("endpoint", endpoint),
					slog.Int("status", status),
					slog.Duration("elapsed", elapsed),
					slog.String("trace", tr.String()))
			}
		}()
		h(sw, r)
	}
}
