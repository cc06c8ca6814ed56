package engine

import (
	"time"

	"repro/internal/obs"
)

// Metrics collects the engine-side latency histograms the observability
// layer exposes: where graph time goes, split by phase. All fields are
// optional — a nil *Metrics (the default) and nil fields disable
// collection with a single branch on the hot path, no allocation.
//
// Walk classification is by counter delta over the walk: a walk whose
// graph grew (Expanded > 0) is a cold expansion, one that grew nothing
// is a warm walk. Concurrent walks sharing one cached graph can blur
// the attribution (one walk's expansion lands in a neighbor's delta),
// which skews the split between the two histograms, never the
// durations themselves.
type Metrics struct {
	// GraphResolve observes how long resolving the exploration graph
	// took: a cache hit, a store-backed warm load, or building the
	// graph shell.
	GraphResolve *obs.Histogram
	// GraphExpand observes walks that expanded new state-space nodes.
	GraphExpand *obs.Histogram
	// GraphWalk observes walks over fully warm graphs (no expansion).
	GraphWalk *obs.Histogram
}

// NewMetrics returns a Metrics with every histogram allocated.
func NewMetrics() *Metrics {
	return &Metrics{
		GraphResolve: &obs.Histogram{},
		GraphExpand:  &obs.Histogram{},
		GraphWalk:    &obs.Histogram{},
	}
}

func (m *Metrics) observeResolve(d time.Duration) {
	if m == nil || m.GraphResolve == nil {
		return
	}
	m.GraphResolve.Observe(d)
}

func (m *Metrics) observeWalk(expanded bool, d time.Duration) {
	if m == nil {
		return
	}
	h := m.GraphWalk
	if expanded {
		h = m.GraphExpand
	}
	if h != nil {
		h.Observe(d)
	}
}

// WithMetrics installs a shared metrics collector. The reprod service
// passes one collector to every per-request engine so the process-wide
// /metrics histograms aggregate across requests. A nil collector (the
// default) disables collection.
func WithMetrics(m *Metrics) Option {
	return func(e *Engine) { e.metrics = m }
}

// Metrics returns the engine's metrics collector (nil when disabled).
func (e *Engine) Metrics() *Metrics { return e.metrics }
