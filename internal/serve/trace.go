package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
)

// maxTraceEvents bounds the events one trace retains; later events are
// counted, not stored, so a pathological emitter cannot grow a request's
// memory without bound.
const maxTraceEvents = 64

// tracedEvent is one engine event with its offset from the trace's
// start.
type tracedEvent struct {
	engine.Event
	at time.Duration
}

// trace is the slow-request log's record of one request: the events its
// engine emitted, in arrival order, rendered only when the log line
// fires. The middleware creates one per request when Config.SlowRequest
// is above 0 and carries it on the request context; requestEngine
// installs add as the engine's progress consumer. Safe for concurrent
// use: pool workers emit level.done and check.done.
type trace struct {
	start time.Time

	mu      sync.Mutex
	events  []tracedEvent
	dropped int
	// first backs events until they outgrow it: a one-item /v1/check
	// emits three.
	first [4]tracedEvent
}

// newTrace starts an empty trace; offsets are measured from now.
func newTrace() *trace {
	t := &trace{start: time.Now()}
	t.events = t.first[:0]
	return t
}

// add records one event.
func (t *trace) add(ev engine.Event) {
	at := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= maxTraceEvents {
		t.dropped++
		return
	}
	t.events = append(t.events, tracedEvent{ev, at})
}

// String renders the trace as one compact where-time-went line:
// "kind(type, detail)=elapsed@offset; ...", with a "+N dropped" suffix
// when the cap was hit. Begin markers (zero elapsed) render without the
// duration.
func (t *trace) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for i, te := range t.events {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(te.Kind)
		detail := te.Type
		if d := te.Detail(); d != "" {
			detail += ", " + d
		}
		if detail != "" {
			fmt.Fprintf(&b, "(%s)", detail)
		}
		if te.Elapsed > 0 {
			fmt.Fprintf(&b, "=%s", te.Elapsed.Round(10*time.Microsecond))
		}
		fmt.Fprintf(&b, "@%s", te.at.Round(10*time.Microsecond))
	}
	if t.dropped > 0 {
		fmt.Fprintf(&b, " (+%d dropped)", t.dropped)
	}
	return b.String()
}

// traceKey is the context key of a request's trace.
type traceKey struct{}

// withTrace returns a context carrying the trace.
func withTrace(ctx context.Context, t *trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// traceFrom returns the context's trace, or nil when none is installed.
func traceFrom(ctx context.Context) *trace {
	t, _ := ctx.Value(traceKey{}).(*trace)
	return t
}
