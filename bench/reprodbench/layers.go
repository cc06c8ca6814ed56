package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/registry"
)

// exposition is one /metrics scrape: each sample's value keyed by its
// series as printed, name plus label set (`reprod_cache_requests_total{outcome="hit"}`).
type exposition map[string]float64

// parseExposition reads the Prometheus text format the server writes.
func parseExposition(text string) (exposition, error) {
	e := exposition{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("/metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: sample %q: %w", line, err)
		}
		e[strings.TrimSpace(line[:i])] = v
	}
	return e, nil
}

// scrapeSum sums counter deltas over a phase's scrapes and keeps the
// last scrape for gauges.
type scrapeSum struct {
	delta exposition
	last  exposition
}

func newScrapeSum() scrapeSum { return scrapeSum{delta: exposition{}} }

// add folds in one server's change from before to after. A series
// absent from before counts from zero, as on a new server.
func (s *scrapeSum) add(before, after exposition) {
	for k, v := range after {
		s.delta[k] += v - before[k]
	}
	s.last = after
}

// Series the layer metrics read. A later revision that renames or drops
// one makes the metrics built on it null, with a warning.
const (
	seriesCacheHit     = `reprod_cache_requests_total{outcome="hit"}`
	seriesCacheMiss    = `reprod_cache_requests_total{outcome="miss"}`
	seriesGraphHit     = `reprod_graph_cache_requests_total{outcome="hit"}`
	seriesGraphMiss    = `reprod_graph_cache_requests_total{outcome="miss"}`
	seriesGraphEvicted = `reprod_graph_cache_evicted_total`
	seriesGraphNodes   = `reprod_graph_cache_nodes`
	seriesExpanded     = `reprod_graph_expansions_total{outcome="expanded"}`
	seriesReused       = `reprod_graph_expansions_total{outcome="reused"}`
	seriesPhaseSum     = `reprod_engine_graph_duration_seconds_sum{phase=%q}`
	seriesPhaseCount   = `reprod_engine_graph_duration_seconds_count{phase=%q}`
	phaseResolve       = "resolve"
	phaseExpand        = "expand"
	phaseWalk          = "walk"
)

// layerUnits names every per-layer metric with its unit, in report order.
var layerUnits = []struct{ name, unit string }{
	{"serve.handle_us", "us"},
	{"serve.self_us", "us"},
	{"serve.self_share", "ratio"},
	{"serve.response_kb", "KB"},
	{"engine.decision_cache.misses", "count"},
	{"engine.decision_cache.hit_ratio", "ratio"},
	{"engine.graph_cache.misses", "count"},
	{"engine.graph_cache.evicted", "count"},
	{"engine.graph_cache.hit_ratio", "ratio"},
	{"engine.graph_resolve.count", "count"},
	{"engine.graph_resolve.share", "ratio"},
	{"decider.levels_computed", "count"},
	{"decider.share", "ratio"},
	{"model.expand.count", "count"},
	{"model.expand.share", "ratio"},
	{"model.walk.count", "count"},
	{"model.walk.share", "ratio"},
	{"model.nodes_expanded", "count"},
	{"model.reuse_ratio", "ratio"},
	{"model.graph_nodes", "count"},
	{"model.bytes_per_node", "B"},
	{"store.opens", "count"},
	{"store.open.share", "ratio"},
	{"store.close.share", "ratio"},
	{"store.decisions_loaded", "count"},
	{"store.decisions_appended", "count"},
	{"store.bytes_per_decision", "B"},
	{"graphstore.loads", "count"},
	{"graphstore.loaded_nodes", "count"},
	{"graphstore.load.share", "ratio"},
	{"graphstore.spills", "count"},
	{"graphstore.spilled_nodes", "count"},
	{"graphstore.spill.share", "ratio"},
	{"graphstore.bytes_per_node", "B"},
	{"graphstore.errors", "count"},
	{"trace.overhead_pct", "%"},
}

// layerInputs is what the per-layer metrics are computed from besides
// the traced phase itself.
type layerInputs struct {
	plainThroughput float64       // untraced phase, ops/s
	decider         time.Duration // replayed decider time of the phase's computed levels
	heapBase        uint64        // live heap before any server existed
	graphDirBytes   int64
	graphDirRecords int64
}

// layers computes the per-layer metrics of a traced phase. Metrics built
// on a /metrics series the server no longer exports are left out (and
// print as null), and each missing series is named on warn.
func layers(ph *phase, in layerInputs, warn io.Writer) map[string]*float64 {
	ops := float64(ph.ops)
	handle := float64(ph.handle)
	wall := float64(ph.wall)
	missing := map[string]bool{}
	get := func(series string) (float64, bool) {
		v, ok := ph.scrapes.delta[series]
		if !ok {
			missing[series] = true
		}
		return v, ok
	}
	// metric applies f to the named series, or is null if any is missing.
	metric := func(f func(v ...float64) float64, series ...string) *float64 {
		vals := make([]float64, len(series))
		for i, s := range series {
			v, ok := get(s)
			if !ok {
				return nil
			}
			vals[i] = v
		}
		return num(f(vals...))
	}
	first := func(v ...float64) float64 { return v[0] }
	hitRatio := func(v ...float64) float64 { return ratio(v[0], v[0]+v[1]) }
	phaseSum := func(p string) string { return fmt.Sprintf(seriesPhaseSum, p) }
	phaseCount := func(p string) string { return fmt.Sprintf(seriesPhaseCount, p) }
	shareOfHandle := func(v ...float64) float64 { return ratio(v[0]*float64(time.Second), handle) }

	// self is the op time outside the engine's graph phases.
	self := metric(func(v ...float64) float64 { return handle - (v[0]+v[1]+v[2])*float64(time.Second) },
		phaseSum(phaseResolve), phaseSum(phaseExpand), phaseSum(phaseWalk))

	out := map[string]*float64{
		"serve.handle_us":   num(ratio(handle/float64(time.Microsecond), ops)),
		"serve.response_kb": num(ratio(float64(ph.respBytes)/1024, ops)),

		"engine.decision_cache.misses":    metric(first, seriesCacheMiss),
		"engine.decision_cache.hit_ratio": metric(hitRatio, seriesCacheHit, seriesCacheMiss),
		"engine.graph_cache.misses":       metric(first, seriesGraphMiss),
		"engine.graph_cache.evicted":      metric(first, seriesGraphEvicted),
		"engine.graph_cache.hit_ratio":    metric(hitRatio, seriesGraphHit, seriesGraphMiss),
		"engine.graph_resolve.count":      metric(first, phaseCount(phaseResolve)),
		"engine.graph_resolve.share":      metric(shareOfHandle, phaseSum(phaseResolve)),

		"decider.levels_computed": metric(first, seriesCacheMiss),
		"decider.share":           num(ratio(float64(in.decider), handle)),

		"model.expand.count":   metric(first, phaseCount(phaseExpand)),
		"model.expand.share":   metric(shareOfHandle, phaseSum(phaseExpand)),
		"model.walk.count":     metric(first, phaseCount(phaseWalk)),
		"model.walk.share":     metric(shareOfHandle, phaseSum(phaseWalk)),
		"model.nodes_expanded": metric(first, seriesExpanded),
		"model.reuse_ratio": metric(func(v ...float64) float64 { return ratio(v[1], v[0]+v[1]) },
			seriesExpanded, seriesReused),

		"store.opens":              num(float64(ph.opens)),
		"store.open.share":         num(ratio(float64(ph.openTime), wall)),
		"store.close.share":        num(ratio(float64(ph.closeTime), wall)),
		"store.decisions_loaded":   num(float64(ph.loaded)),
		"store.decisions_appended": num(float64(ph.appended)),
		"store.bytes_per_decision": num(ratio(float64(ph.journalBytes), float64(ph.loaded+ph.appended))),

		"graphstore.loads":          num(float64(ph.gs.Loads)),
		"graphstore.loaded_nodes":   num(float64(ph.gs.LoadedNodes)),
		"graphstore.load.share":     num(ratio(float64(ph.gsLoadTime), handle)),
		"graphstore.spills":         num(float64(ph.gs.Spills)),
		"graphstore.spilled_nodes":  num(float64(ph.gs.SpilledNodes)),
		"graphstore.spill.share":    num(ratio(float64(ph.gsSpillTime), wall)),
		"graphstore.bytes_per_node": num(ratio(float64(in.graphDirBytes), float64(in.graphDirRecords))),
		"graphstore.errors":         num(float64(ph.gs.Errors)),

		"trace.overhead_pct": num(100 * (ratio(in.plainThroughput*ph.wall.Seconds(), ops) - 1)),
	}
	if self != nil {
		out["serve.self_us"] = num(ratio(*self/float64(time.Microsecond), ops))
		out["serve.self_share"] = num(ratio(*self, handle))
	}
	// Gauges read the phase's last scrape rather than a delta.
	if nodes, ok := ph.scrapes.last[seriesGraphNodes]; ok {
		out["model.graph_nodes"] = num(nodes)
		out["model.bytes_per_node"] = num(ratio(float64(ph.heapLive)-float64(in.heapBase), nodes))
	} else {
		missing[seriesGraphNodes] = true
	}
	names := make([]string, 0, len(missing))
	for s := range missing {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		fmt.Fprintf(warn, "reprodbench: warning: /metrics has no series %s; its layer metrics are null\n", s)
	}
	return out
}

// replayDecider re-decides, serially and on a fresh cache per type, every
// level the traced phase computed, and returns the decider time those
// computations took, counting each type once per op that analyzed it.
func (b *bench) replayDecider(cold map[string]int) (time.Duration, error) {
	types := make([]string, 0, len(cold))
	for t := range cold {
		types = append(types, t)
	}
	sort.Strings(types)
	root, rootStart := b.tr.newID(), time.Now()
	var total time.Duration
	for _, desc := range types {
		t, err := registry.Parse(desc)
		if err != nil {
			return 0, err
		}
		eng := engine.New(engine.WithContext(b.ctx), engine.WithParallelism(1))
		var per time.Duration
		for n := 2; n <= b.golden.MaxN; n++ {
			for prop, decide := range []func() error{
				func() error { _, _, err := eng.Discerning(t, n); return err },
				func() error { _, _, err := eng.Recording(t, n); return err },
			} {
				start := time.Now()
				if err := decide(); err != nil {
					return 0, fmt.Errorf("replaying %s: %w", desc, err)
				}
				d := time.Since(start)
				per += d
				b.tr.add(b.tr.newID(), root, "decider.level", start, d, attr{"n", int64(n)}, attr{"recording", int64(prop)})
			}
		}
		total += per * time.Duration(cold[desc])
	}
	b.tr.add(root, 0, "replay", rootStart, time.Since(rootStart), attr{"types", int64(len(types))})
	return total, nil
}
