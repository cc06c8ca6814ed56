package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// writeHistogram emits one histogram series in exposition form:
// cumulative _bucket samples (le bounds shared by every obs.Histogram,
// so label sets are byte-stable), the +Inf bucket, _sum and _count.
// labels ("" or `endpoint="check"`) is merged into every sample's label
// set.
func writeHistogram(b *strings.Builder, name, labels string, snap obs.Snapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, bound := range obs.BucketBounds() {
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n",
			name, labels, sep, strconv.FormatFloat(bound, 'g', -1, 64), snap.Cumulative[i])
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, snap.Count)
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %g\n%s_count %d\n", name, snap.Sum, name, snap.Count)
		return
	}
	fmt.Fprintf(b, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, snap.Sum, name, labels, snap.Count)
}

// handleMetrics serves the server's counters in Prometheus text
// exposition format (version 0.0.4) on GET /metrics: request totals and
// latency histograms per endpoint (fed by the instrument middleware, so
// every endpoint and every status is covered), engine-side graph-phase
// histograms, decision-cache and shared-graph reuse, job and store
// state, and uptime. Scalars also appear as JSON on /v1/stats; this
// endpoint exists so a scraper needs no translation layer.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	counter := func(name, help string, pairs ...struct {
		labels string
		value  float64
	}) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, p := range pairs {
			fmt.Fprintf(&b, "%s%s %g\n", name, p.labels, p.value)
		}
	}
	gauge := func(name, help string, value float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, value)
	}
	lv := func(labels string, v float64) struct {
		labels string
		value  float64
	} {
		return struct {
			labels string
			value  float64
		}{labels, v}
	}

	// Requests by endpoint and status class, from the middleware: every
	// route is counted, success or failure. Endpoint order is the
	// registration order; only observed (endpoint, class) pairs emit.
	var reqPairs []struct {
		labels string
		value  float64
	}
	for _, name := range s.endpointOrder {
		es := s.endpoints[name]
		for c, class := range statusClasses {
			n := es.byClass[c].Load()
			if n == 0 {
				continue
			}
			reqPairs = append(reqPairs,
				lv(fmt.Sprintf(`{endpoint=%q,code=%q}`, name, class), float64(n)))
		}
	}
	counter("reprod_requests_total", "Requests served by endpoint and status class.", reqPairs...)
	counter("reprod_requests_failed_total", "Requests answered with an error status.",
		lv("", float64(s.failed.Load())))

	// Per-endpoint latency histograms (endpoints that served traffic).
	const durName = "reprod_http_request_duration_seconds"
	fmt.Fprintf(&b, "# HELP %s Request latency by endpoint.\n# TYPE %s histogram\n", durName, durName)
	for _, name := range s.endpointOrder {
		snap := s.endpoints[name].latency.Snapshot()
		if snap.Count == 0 {
			continue
		}
		writeHistogram(&b, durName, fmt.Sprintf("endpoint=%q", name), snap)
	}

	// Engine-side graph-phase histograms, aggregated across every
	// per-request and per-job engine: resolve = graph cache resolution
	// (hit, warm disk load, or shell build), expand = walks that grew
	// the state space, walk = fully warm walks.
	const engName = "reprod_engine_graph_duration_seconds"
	fmt.Fprintf(&b, "# HELP %s Engine graph time by phase (resolve, expand, walk).\n# TYPE %s histogram\n", engName, engName)
	for _, ph := range []struct {
		phase string
		h     *obs.Histogram
	}{
		{"resolve", s.engMetrics.GraphResolve},
		{"expand", s.engMetrics.GraphExpand},
		{"walk", s.engMetrics.GraphWalk},
	} {
		writeHistogram(&b, engName, fmt.Sprintf("phase=%q", ph.phase), ph.h.Snapshot())
	}

	counter("reprod_types_analyzed_total", "Type analyses completed across analyze and batch.",
		lv("", float64(s.typesDone.Load())))
	counter("reprod_check_items_total", "Model-check items completed across check batches.",
		lv("", float64(s.checkItems.Load())))

	hits, misses, entries := s.cfg.Cache.Stats()
	counter("reprod_cache_requests_total", "Decision-cache lookups by outcome.",
		lv(`{outcome="hit"}`, float64(hits)),
		lv(`{outcome="miss"}`, float64(misses)))
	gauge("reprod_cache_entries", "Distinct memoized level decisions.", float64(entries))

	counter("reprod_graph_expansions_total",
		"Shared-exploration-graph successor computations by outcome (expanded = performed, reused = amortized away).",
		lv(`{outcome="expanded"}`, float64(s.graphExpanded.Load())),
		lv(`{outcome="reused"}`, float64(s.graphReused.Load())))

	var gc engine.GraphCacheStats
	if s.graphs != nil {
		gc = s.graphs.Stats()
	}
	counter("reprod_graph_cache_requests_total", "Exploration-graph cache resolutions by outcome.",
		lv(`{outcome="hit"}`, float64(gc.Hits)),
		lv(`{outcome="miss"}`, float64(gc.Misses)))
	counter("reprod_graph_cache_evicted_total", "Cached exploration graphs evicted to fit the node budget.",
		lv("", float64(gc.Evicted)))
	gauge("reprod_graph_cache_graphs", "Exploration graphs currently cached.", float64(gc.Graphs))
	gauge("reprod_graph_cache_nodes", "Interned nodes across cached exploration graphs.", float64(gc.Nodes))
	if gc.Store != nil {
		counter("reprod_graph_store_loads_total", "Graph-cache misses served warm from the on-disk graph store.",
			lv("", float64(gc.Store.Loads)))
		counter("reprod_graph_store_misses_total", "Graph-store lookups that found no stored graph.",
			lv("", float64(gc.Store.Misses)))
		counter("reprod_graph_store_spills_total", "Dirty exploration graphs spilled to the graph store.",
			lv("", float64(gc.Store.Spills)))
		counter("reprod_graph_store_nodes_total", "Exploration-graph nodes moved through the graph store by direction.",
			lv(`{direction="loaded"}`, float64(gc.Store.LoadedNodes)),
			lv(`{direction="spilled"}`, float64(gc.Store.SpilledNodes)))
		counter("reprod_graph_store_errors_total", "Graph-store I/O failures (each degrades one key to in-memory operation).",
			lv("", float64(gc.Store.Errors)))
	}
	counter("reprod_store_compactions_total", "On-demand store compactions served OK.",
		lv("", float64(s.compacted.Load())))

	js := s.jobsMgr.Stats()
	gauge("reprod_jobs_queued", "Async jobs waiting to run.", float64(js.Queued))
	gauge("reprod_jobs_running", "Async jobs currently running.", float64(js.Running))
	counter("reprod_jobs_done_total", "Async jobs finished by terminal state.",
		lv(`{outcome="done"}`, float64(js.Done)),
		lv(`{outcome="failed"}`, float64(js.Failed)),
		lv(`{outcome="canceled"}`, float64(js.Canceled)))
	counter("reprod_jobs_rejected_total", "Async job submissions refused by the queue bound.",
		lv("", float64(js.Rejected)))
	gauge("reprod_protocols_registered", "Distinct user-submitted protocols registered by fingerprint.",
		float64(s.protocols.Len()))

	gauge("reprod_inflight_requests", "Requests holding an analysis slot.", float64(s.inflight.Load()))
	gauge("reprod_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())

	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		gauge("reprod_store_journal_bytes", "Decision-store journal size on disk.", float64(st.JournalBytes))
		gauge("reprod_store_snapshot_bytes", "Decision-store snapshot size on disk.", float64(st.SnapshotBytes))
		counter("reprod_store_decisions_total", "Decisions by origin.",
			lv(`{origin="loaded"}`, float64(st.Loaded)),
			lv(`{origin="appended"}`, float64(st.Appended)))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, b.String())
}

// MetricsHandler exposes the /metrics exposition as a standalone
// handler, for mounting on a private debug listener (cmd/reprod's
// -debug-addr) alongside pprof.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(s.handleMetrics)
}
