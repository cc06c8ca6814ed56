package serve

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestTrace pins the slow-request trace: events render in the log line's
// format, the cap degrades to a dropped count, concurrent emitters and a
// reader share one trace safely, and the trace rides on the context.
func TestTrace(t *testing.T) {
	tr := newTrace()
	tr.add(engine.Event{Kind: "check.start", Type: "tnn-wf"})
	tr.add(engine.Event{Kind: "check.done", Type: "tnn-wf", OK: true, Elapsed: 3 * time.Millisecond, Nodes: 17})
	tr.add(engine.Event{Kind: "level.done"})
	s := tr.String()
	for _, want := range []string{"check.start(tnn-wf)@", "; check.done(tnn-wf, 17 nodes)=3ms@", "; level.done@"} {
		if !strings.Contains(s, want) {
			t.Errorf("trace %q missing %q", s, want)
		}
	}

	// Pool workers emit concurrently while nothing reads; the reader may
	// still race a late emitter.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tr.add(engine.Event{Kind: "level.done", Elapsed: time.Microsecond})
			}
		}()
	}
	_ = tr.String()
	wg.Wait()

	// The cap degrades to counting, never unbounded growth: 3 + 80 events
	// keep 64 and drop 19.
	tr.mu.Lock()
	kept, dropped := len(tr.events), tr.dropped
	tr.mu.Unlock()
	if kept != maxTraceEvents || dropped != 3+80-maxTraceEvents {
		t.Fatalf("after overflow: %d events, %d dropped", kept, dropped)
	}
	if !strings.HasSuffix(tr.String(), " (+19 dropped)") {
		t.Errorf("dropped count not rendered: %q", tr.String())
	}

	ctx := withTrace(context.Background(), tr)
	if traceFrom(ctx) != tr {
		t.Fatal("trace lost on context")
	}
	if traceFrom(context.Background()) != nil {
		t.Fatal("phantom trace")
	}
}
