package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps the traced phase's spans in memory until the run writes
// them out. A nil tracer records nothing, so untraced phases pay one
// branch per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call.
type span struct {
	id, parent int64
	name       string
	start, end time.Duration // since the tracer started
	attrs      []attr
}

// attr is one integer span attribute.
type attr struct {
	key string
	val int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, for spans whose children end before they do.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span; parent 0 makes it a root.
func (t *tracer) add(id, parent int64, name string, start time.Time, d time.Duration, attrs ...attr) {
	if t == nil {
		return
	}
	from := start.Sub(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: from, end: from + d, attrs: attrs})
	t.mu.Unlock()
}

// spanJSON is one line of the span file.
type spanJSON struct {
	ID      int64            `json:"id"`
	Parent  int64            `json:"parent"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// write stores the spans as JSON lines, in the order they ended.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		line := spanJSON{ID: s.id, Parent: s.parent, Name: s.name, StartNs: int64(s.start), EndNs: int64(s.end)}
		if len(s.attrs) > 0 {
			line.Attrs = make(map[string]int64, len(s.attrs))
			for _, a := range s.attrs {
				line.Attrs[a.key] = a.val
			}
		}
		if err = enc.Encode(line); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
