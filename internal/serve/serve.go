package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/discern"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/protodef"
	"repro/internal/record"
	"repro/internal/registry"
	"repro/internal/spec"
	"repro/internal/store"
)

// Defaults for zero Config fields.
const (
	// DefaultMaxN bounds analyses when Config.MaxN is 0.
	DefaultMaxN = 5
	// DefaultRequestTimeout bounds one request's analysis when
	// Config.RequestTimeout is 0.
	DefaultRequestTimeout = 30 * time.Second
	// DefaultBatchLimit bounds the descriptors of one batch request when
	// Config.BatchLimit is 0.
	DefaultBatchLimit = 256
	// maxBodyBytes bounds a request body.
	maxBodyBytes = 1 << 20
)

// Config parameterizes a Server.
type Config struct {
	// Cache is the decision cache shared by every request's engine; the
	// singleflight collapsing of concurrent identical requests lives
	// here. nil gets a fresh private cache. For persistence across
	// restarts, pass a store-backed cache (store.Open(...).Cache()).
	Cache *engine.Cache
	// Store, when non-nil, is reported by /v1/stats. The server never
	// closes it — the owning process flushes it at shutdown.
	Store *store.Store
	// MaxN is both the default and the ceiling of a request's maxN:
	// the service bounds the exponential work one request can demand.
	// Values below 2 (including the zero value) select DefaultMaxN —
	// levels start at n=2, so no smaller ceiling is servable.
	MaxN int
	// Parallelism is each request engine's worker-pool width
	// (0 = runtime.NumCPU()).
	Parallelism int
	// ShardThreshold is passed through to each request engine
	// (see engine.WithShardThreshold).
	ShardThreshold int
	// RequestTimeout bounds one request's analysis
	// (0 = DefaultRequestTimeout; negative = no timeout).
	RequestTimeout time.Duration
	// MaxConcurrent bounds the requests analyzing at once; further
	// requests queue until a slot frees or their context fires
	// (0 = 2 × Parallelism).
	MaxConcurrent int
	// BatchLimit bounds the descriptors of one batch request and the
	// items of one check request (0 = DefaultBatchLimit).
	BatchLimit int
	// CheckMaxNodes is both the default and the ceiling of one check
	// item's explored-state budget (0 = DefaultCheckMaxNodes): the
	// service bounds the memory one item can demand.
	CheckMaxNodes int
	// GraphCacheBudget bounds the server-wide exploration-graph cache
	// shared by every request's engine, in total interned nodes
	// (0 = engine.DefaultGraphCacheBudget; negative disables graph
	// caching — every request re-expands). Repeated /v1/check traffic
	// for the same protocol and inputs walks warm cached graphs instead
	// of re-expanding the state space per request.
	GraphCacheBudget int
	// GraphStore, when non-nil, backs the graph cache with an on-disk
	// store (graphstore.Open): cache misses try a disk load before
	// expanding, and expanded graphs spill back asynchronously, so a
	// restarted server serves previously-explored protocols warm. It is
	// ignored when graph caching is disabled (GraphCacheBudget < 0).
	// The owning process calls FlushGraphs at shutdown.
	GraphStore engine.GraphStore
	// JobWorkers bounds the async jobs running concurrently
	// (0 = jobs.DefaultWorkers). Jobs run outside the MaxConcurrent
	// request slots — this is their own admission control.
	JobWorkers int
	// JobQueue bounds the async jobs waiting to run; submissions beyond
	// it answer 429 (0 = jobs.DefaultQueueLimit).
	JobQueue int
	// JobTimeout bounds one job's run when the submission names no
	// timeout (0 = jobs.DefaultJobTimeout).
	JobTimeout time.Duration
	// Logger receives the server's structured logs: one access-log line
	// per request, slow-request traces, panic reports. Log calls carry
	// the request context, so a logger built with obs.NewLogger stamps
	// every line with the request ID. nil discards all logs (the
	// pre-observability behavior, and what most tests want).
	Logger *slog.Logger
	// SlowRequest is the latency threshold above which a request logs a
	// warn-level line with its per-stage engine trace attached. 0
	// disables the slow-request log.
	SlowRequest time.Duration
}

// Server is the reprod HTTP service. Construct with New.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	sem   chan struct{}
	start time.Time
	// graphs is the server-wide exploration-graph cache installed into
	// every per-request engine, so state spaces expanded for one request
	// serve all later ones.
	graphs *engine.GraphCache
	// jobsMgr runs the async job subsystem (POST /v1/jobs); Shutdown
	// drains it.
	jobsMgr *jobs.Manager
	// protocols is the fingerprint-keyed registry of user-submitted
	// protocols (POST /v1/protocols).
	protocols *protodef.Store
	// logger is Config.Logger or a nop logger, never nil.
	logger *slog.Logger
	// engMetrics collects engine-side latency histograms (graph
	// resolution, cold expansion, warm walks) across every per-request
	// and per-job engine.
	engMetrics *engine.Metrics
	// endpoints maps endpoint name to its middleware instrumentation;
	// read-only after New.
	endpoints map[string]*endpointStats
	// endpointOrder fixes the exposition order of endpoint series.
	endpointOrder []string

	analyzed  atomic.Uint64 // analyze requests served OK
	batched   atomic.Uint64 // batch requests served OK
	checked   atomic.Uint64 // check requests served OK
	failed    atomic.Uint64 // requests answered with an error status
	inflight  atomic.Int64  // requests holding an analysis slot
	typesDone atomic.Uint64 // type analyses completed across both endpoints

	checkItems    atomic.Uint64 // model-check items completed across check batches
	graphExpanded atomic.Uint64 // shared-graph expansions performed
	graphReused   atomic.Uint64 // shared-graph expansions amortized away
	compacted     atomic.Uint64 // on-demand store compactions served OK
}

// New builds a Server, normalizing zero Config fields to the defaults.
func New(cfg Config) *Server {
	if cfg.Cache == nil {
		cfg.Cache = engine.NewCache()
	}
	if cfg.MaxN < 2 {
		cfg.MaxN = DefaultMaxN
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.NumCPU()
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * cfg.Parallelism
	}
	if cfg.BatchLimit <= 0 {
		cfg.BatchLimit = DefaultBatchLimit
	}
	if cfg.CheckMaxNodes <= 0 {
		cfg.CheckMaxNodes = DefaultCheckMaxNodes
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), sem: make(chan struct{}, cfg.MaxConcurrent), start: time.Now()}
	if cfg.GraphCacheBudget >= 0 {
		s.graphs = engine.NewGraphCache(cfg.GraphCacheBudget)
		if cfg.GraphStore != nil {
			s.graphs.SetStore(cfg.GraphStore)
		}
	}
	s.jobsMgr = jobs.NewManager(jobs.Config{
		Workers:        cfg.JobWorkers,
		QueueLimit:     cfg.JobQueue,
		DefaultTimeout: cfg.JobTimeout,
	})
	s.protocols = protodef.NewStore(0)
	s.logger = cfg.Logger
	if s.logger == nil {
		s.logger = obs.NopLogger()
	}
	s.engMetrics = engine.NewMetrics()

	// Every route goes through the instrument middleware, so ALL
	// endpoints — including stats, version, metrics and health — are
	// request-ID-stamped, access-logged, latency-histogrammed and
	// counted in reprod_requests_total by status class. Routes sharing an
	// endpoint name share one stats bucket. The long-lived SSE stream
	// gets its own bucket so its connection lifetimes do not skew the
	// jobs CRUD latency histogram.
	s.endpoints = make(map[string]*endpointStats)
	for _, rt := range []struct {
		pattern  string
		endpoint string
		h        http.HandlerFunc
	}{
		{"POST /v1/analyze", "analyze", s.handleAnalyze},
		{"POST /v1/batch", "batch", s.handleBatch},
		{"POST /v1/check", "check", s.handleCheck},
		{"POST /v1/compact", "compact", s.handleCompact},
		{"POST /v1/protocols", "protocols", s.handleProtocolRegister},
		{"GET /v1/protocols/{fingerprint}", "protocols", s.handleProtocolGet},
		{"POST /v1/jobs", "jobs", s.handleJobSubmit},
		{"GET /v1/jobs/{id}", "jobs", s.handleJobGet},
		{"DELETE /v1/jobs/{id}", "jobs", s.handleJobCancel},
		{"GET /v1/jobs/{id}/events", "jobs.events", s.handleJobEvents},
		{"GET /v1/stats", "stats", s.handleStats},
		{"GET /v1/version", "version", s.handleVersion},
		{"GET /metrics", "metrics", s.handleMetrics},
		{"GET /healthz", "healthz", s.handleHealthz},
	} {
		es := s.endpoints[rt.endpoint]
		if es == nil {
			es = &endpointStats{}
			s.endpoints[rt.endpoint] = es
			s.endpointOrder = append(s.endpointOrder, rt.endpoint)
		}
		s.mux.HandleFunc(rt.pattern, s.instrument(rt.endpoint, es, rt.h))
	}
	return s
}

// Shutdown drains the async job subsystem: intake stops, queued jobs
// cancel, running jobs' contexts fire, and every job event stream ends
// with a terminal event — which in turn lets in-flight SSE handlers
// return. Call it BEFORE http.Server.Shutdown (so the streams can
// close) and before any store flush (so no job appends decisions after
// the final journal write). Bounded by ctx like http.Server.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.jobsMgr.Close(ctx)
}

// FlushGraphs synchronously spills every dirty cached exploration graph
// to the configured graph store. Call it AFTER Shutdown and the HTTP
// drain (so no job or request is still growing a graph mid-export) and
// before the process exits. A no-op without a graph cache or store.
func (s *Server) FlushGraphs() error {
	if s.graphs == nil {
		return nil
	}
	return s.graphs.Flush()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	stampAPIRevision(w, r)
	s.mux.ServeHTTP(w, r)
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	// Type is a registry descriptor ("tas", "tnn:5,2",
	// "product:tas,register:2", ...).
	Type string `json:"type"`
	// ProtocolFingerprint, instead of Type, selects the single object
	// type of a protocol registered via POST /v1/protocols.
	ProtocolFingerprint string `json:"protocolFingerprint,omitempty"`
	// MaxN overrides the analysis bound (0 = server default; capped at
	// the server's MaxN).
	MaxN int `json:"maxN,omitempty"`
	// Backend is a no-op kept for wire compatibility (see checkBackend).
	Backend string `json:"backend,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Types []string `json:"types"`
	MaxN  int      `json:"maxN,omitempty"`
	// Backend is a no-op kept for wire compatibility (see checkBackend).
	Backend string `json:"backend,omitempty"`
}

// Level is one row of a type's decision spectrum.
type Level struct {
	N          int  `json:"n"`
	Discerning bool `json:"discerning"`
	Recording  bool `json:"recording"`
	// The witnesses certify positive decisions (omitted otherwise).
	DiscerningWitness *discern.Witness `json:"discerningWitness,omitempty"`
	RecordingWitness  *record.Witness  `json:"recordingWitness,omitempty"`
}

// Analysis is the JSON rendering of one type's hierarchy analysis.
type Analysis struct {
	Name     string `json:"name"`
	Readable bool   `json:"readable"`
	MaxN     int    `json:"maxN"`
	// Exact reports whether the two numbers are exact hierarchy
	// positions (readable types) or decider indicators.
	Exact bool `json:"exact"`
	// ConsensusNumber and RecoverableConsensusNumber render as "k" or
	// ">=maxN" (cf. core.LevelString).
	ConsensusNumber            string  `json:"consensusNumber"`
	RecoverableConsensusNumber string  `json:"recoverableConsensusNumber"`
	Levels                     []Level `json:"levels"`
}

// TypeResult is one element of a batch response: the analysis, or the
// per-type error that prevented it.
type TypeResult struct {
	Type     string    `json:"type"`
	Error    string    `json:"error,omitempty"`
	Analysis *Analysis `json:"analysis,omitempty"`
}

// BatchResponse is the body of a POST /v1/batch reply.
type BatchResponse struct {
	Results []TypeResult `json:"results"`
}

// AnalyzeResponse is the body of a POST /v1/analyze reply.
type AnalyzeResponse struct {
	Type     string    `json:"type"`
	Analysis *Analysis `json:"analysis"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Requests      struct {
		Analyze uint64 `json:"analyze"`
		Batch   uint64 `json:"batch"`
		Check   uint64 `json:"check"`
		Failed  uint64 `json:"failed"`
	} `json:"requests"`
	Inflight      int64  `json:"inflight"`
	TypesAnalyzed uint64 `json:"typesAnalyzed"`
	ChecksRun     uint64 `json:"checksRun"`
	Cache         struct {
		Hits    uint64  `json:"hits"`
		Misses  uint64  `json:"misses"`
		Entries int     `json:"entries"`
		HitRate float64 `json:"hitRate"`
	} `json:"cache"`
	// Graph aggregates shared-exploration-graph reuse across every
	// /v1/check batch served so far.
	Graph struct {
		Expanded uint64  `json:"expanded"`
		Reused   uint64  `json:"reused"`
		HitRate  float64 `json:"hitRate"`
	} `json:"graph"`
	// GraphCache reports the server-wide exploration-graph cache: how
	// many check/chain graph resolutions found a live cached graph, how
	// many graphs were evicted to fit the node budget, and the cache's
	// current footprint.
	GraphCache struct {
		Hits    uint64  `json:"hits"`
		Misses  uint64  `json:"misses"`
		Evicted uint64  `json:"evicted"`
		Graphs  int     `json:"graphs"`
		Nodes   uint64  `json:"nodes"`
		HitRate float64 `json:"hitRate"`
	} `json:"graphCache"`
	// GraphStore reports the graph cache's on-disk persistence layer
	// (absent when no graph store is configured): warm loads served on
	// cache misses, nodes imported from and spilled to disk, and store
	// I/O errors (each of which degrades only that key to in-memory
	// operation, never a request).
	GraphStore *engine.GraphStoreStats `json:"graphStore,omitempty"`
	// Jobs reports the async job subsystem: queue and worker gauges plus
	// lifetime terminal-state and rejection totals.
	Jobs jobs.Stats `json:"jobs"`
	// Protocols is the number of distinct user-submitted protocols
	// registered by fingerprint.
	Protocols int `json:"protocols"`
	// Compactions counts POST /v1/compact requests served OK.
	Compactions uint64       `json:"compactions"`
	Store       *store.Stats `json:"store,omitempty"`
	// Latency summarizes the middleware's per-endpoint latency
	// histograms (endpoints that served at least one request). The same
	// distributions are exported in full bucket form as
	// reprod_http_request_duration_seconds on /metrics.
	Latency map[string]LatencySummary `json:"latency,omitempty"`
}

// LatencySummary condenses one latency histogram for /v1/stats. The
// quantiles are bucket-interpolated estimates, in seconds.
type LatencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"meanSeconds"`
	P50   float64 `json:"p50Seconds"`
	P99   float64 `json:"p99Seconds"`
}

// Stable machine-readable error codes, the `code` field of every error
// envelope. Clients branch on these, never on the human-readable
// message: codes are API surface (frozen per API revision), messages
// are not.
const (
	// CodeBadRequest: the request is malformed or references something
	// invalid (bad body, unknown descriptor, out-of-range bound,
	// misconfigured endpoint).
	CodeBadRequest = "bad_request"
	// CodeNotFound: the named resource (job, registered protocol) does
	// not exist.
	CodeNotFound = "not_found"
	// CodeQueueFull: admission control rejected or cut the request —
	// the job queue is full, or no analysis slot freed in time.
	CodeQueueFull = "queue_full"
	// CodeShuttingDown: the server is draining; retry against another
	// instance.
	CodeShuttingDown = "shutting_down"
	// CodeTimeout: the request's analysis deadline fired, or the client
	// went away mid-analysis.
	CodeTimeout = "timeout"
	// CodeTooLarge: the request body or the stored artifact exceeds a
	// size limit.
	CodeTooLarge = "too_large"
	// CodeInvalidArgument: a request field names something that does not
	// exist in a fixed value set (today: an unknown name in the legacy
	// "backend" field). Distinct from bad_request so clients can tell a
	// typo'd enum value from a structurally malformed request.
	CodeInvalidArgument = "invalid_argument"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// errorResponse is the uniform error body: a stable machine-readable
// code plus a human-readable message, stamped with the request ID so a
// client error report can be joined against the server's access log.
type errorResponse struct {
	Code  string `json:"code"`
	Error string `json:"error"`
	// RequestID echoes the request's X-Request-Id (absent on error
	// paths outside the instrumented mux).
	RequestID string `json:"requestId,omitempty"`
}

// codeForStatus derives the error code a status implies. The two
// ambiguous statuses are overridden at their call sites: 503 defaults
// to queue_full (the no-free-slot answer) and is shutting_down only on
// the drain path, via failCode.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest, http.StatusConflict:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return CodeQueueFull
	case http.StatusRequestEntityTooLarge, http.StatusInsufficientStorage:
		return CodeTooLarge
	case http.StatusGatewayTimeout, statusClientClosedRequest:
		return CodeTimeout
	}
	return CodeInternal
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

// fail answers with a coded JSON error and counts it; the code is
// derived from the status (failCode overrides it where one status
// serves two conditions).
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.failCode(w, status, codeForStatus(status), format, args...)
}

// failCode is fail with an explicit machine-readable code. The request
// ID comes from the response header the middleware stamped before the
// handler ran.
func (s *Server) failCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	s.failed.Add(1)
	writeJSON(w, status, errorResponse{
		Code:      code,
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get(obs.HeaderRequestID),
	})
}

// failBody answers a request-body decode failure: an over-limit body is
// 413 too_large, anything else 400 bad_request.
func (s *Server) failBody(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		return
	}
	s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
}

// decodeBody parses a bounded JSON request body, rejecting unknown
// fields so client typos surface instead of silently defaulting.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// resolveMaxN applies the server's default and ceiling to a request maxN.
func (s *Server) resolveMaxN(reqMaxN int) (int, error) {
	if reqMaxN == 0 {
		return s.cfg.MaxN, nil
	}
	if reqMaxN < 2 || reqMaxN > s.cfg.MaxN {
		return 0, fmt.Errorf("maxN %d out of range [2, %d]", reqMaxN, s.cfg.MaxN)
	}
	return reqMaxN, nil
}

// checkBackend validates a request's legacy "backend" field. API
// revision 2 selected a level decider by name; since revision 3 one
// decider serves every request, so the names revision 2 accepted are
// no-ops and any other name is still an error, answered 400
// invalid_argument (see failBackend).
func checkBackend(name string) error {
	switch name {
	case "", "auto", "bitset", "search":
		return nil
	}
	return fmt.Errorf("unknown backend %q (valid: auto, bitset, search; all run the one level decider)", name)
}

// failBackend answers an unknown-backend name with the invalid_argument
// coded envelope.
func (s *Server) failBackend(w http.ResponseWriter, err error) {
	s.failCode(w, http.StatusBadRequest, CodeInvalidArgument, "%v", err)
}

// acquire takes one analysis slot, waiting until the request context
// fires. It returns a release func, or an error when the wait is cut.
func (s *Server) acquire(r *http.Request) (func(), error) {
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return func() { s.inflight.Add(-1); <-s.sem }, nil
	case <-r.Context().Done():
		return nil, r.Context().Err()
	}
}

// requestEngine builds the short-lived engine for one request: bound to
// the request context plus the per-request timeout, analyzing up to
// maxN, sharing the server's cache. The returned cancel must be
// deferred.
func (s *Server) requestEngine(r *http.Request, maxN int) (*engine.Engine, context.CancelFunc) {
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	opts := []engine.Option{
		engine.WithContext(ctx),
		engine.WithCache(s.cfg.Cache),
		engine.WithParallelism(s.cfg.Parallelism),
		engine.WithShardThreshold(s.cfg.ShardThreshold),
		engine.WithMaxN(maxN),
		engine.WithMetrics(s.engMetrics),
	}
	if s.graphs != nil {
		opts = append(opts, engine.WithGraphCache(s.graphs))
	} else {
		opts = append(opts, engine.WithGraphCacheBudget(-1))
	}
	// Stream the engine's stage events into the request's trace, so the
	// slow-request log can say where the time went.
	if tr := obs.TraceFrom(r.Context()); tr != nil {
		opts = append(opts, engine.WithProgress(traceProgress(tr)))
	}
	return engine.New(opts...), cancel
}

// analysisJSON renders a core.Analysis.
func analysisJSON(a *core.Analysis) *Analysis {
	out := &Analysis{
		Name:                       a.Type.Name(),
		Readable:                   a.Readable,
		MaxN:                       a.MaxN,
		Exact:                      a.Readable,
		ConsensusNumber:            core.LevelString(a.ConsensusNumber, a.MaxN),
		RecoverableConsensusNumber: core.LevelString(a.RecoverableConsensusNumber, a.MaxN),
	}
	for n := 2; n <= a.MaxN; n++ {
		out.Levels = append(out.Levels, Level{
			N:                 n,
			Discerning:        a.Discerning[n],
			Recording:         a.Recording[n],
			DiscerningWitness: a.DiscerningWitness[n],
			RecordingWitness:  a.RecordingWitness[n],
		})
	}
	return out
}

// analysisStatus maps an engine error to an HTTP status: a deadline is
// the request timeout (504); a canceled context is a client that went
// away (499, nginx's convention — no reply reaches it, but logs and
// stats should not blame the server); anything else is internal.
func analysisStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	}
	return http.StatusInternalServerError
}

// statusClientClosedRequest is nginx's 499.
const statusClientClosedRequest = 499

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.failBody(w, err)
		return
	}
	t, label, err := s.resolveAnalyzeType(req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	maxN, err := s.resolveMaxN(req.MaxN)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := checkBackend(req.Backend); err != nil {
		s.failBackend(w, err)
		return
	}
	release, err := s.acquire(r)
	if err != nil {
		s.fail(w, http.StatusServiceUnavailable, "no analysis slot: %v", err)
		return
	}
	defer release()
	eng, cancel := s.requestEngine(r, maxN)
	defer cancel()
	a, err := eng.Analyze(t)
	if err != nil {
		s.fail(w, analysisStatus(err), "analyze %s: %v", label, err)
		return
	}
	s.analyzed.Add(1)
	s.typesDone.Add(1)
	writeJSON(w, http.StatusOK, AnalyzeResponse{Type: label, Analysis: analysisJSON(a)})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.failBody(w, err)
		return
	}
	if len(req.Types) == 0 {
		s.fail(w, http.StatusBadRequest, "batch needs at least one type descriptor")
		return
	}
	if len(req.Types) > s.cfg.BatchLimit {
		s.fail(w, http.StatusBadRequest, "batch of %d types exceeds the limit of %d", len(req.Types), s.cfg.BatchLimit)
		return
	}
	maxN, err := s.resolveMaxN(req.MaxN)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := checkBackend(req.Backend); err != nil {
		s.failBackend(w, err)
		return
	}

	// Resolve every descriptor first: a typo in one must not cost the
	// others their analysis (or the client a 400 after seconds of work).
	results := make([]TypeResult, len(req.Types))
	var idx []int
	var resolved []*spec.FiniteType
	for i, desc := range req.Types {
		results[i].Type = desc
		t, err := registry.Parse(desc)
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		idx = append(idx, i)
		resolved = append(resolved, t)
	}

	if len(resolved) > 0 {
		release, err := s.acquire(r)
		if err != nil {
			s.fail(w, http.StatusServiceUnavailable, "no analysis slot: %v", err)
			return
		}
		defer release()
		eng, cancel := s.requestEngine(r, maxN)
		defer cancel()
		// One flat pool run for the whole batch: levels of all types
		// interleave, and duplicate descriptors collapse in the cache.
		analyses, err := eng.AnalyzeAll(resolved)
		if err != nil {
			s.fail(w, analysisStatus(err), "batch analysis: %v", err)
			return
		}
		for i, a := range analyses {
			results[idx[i]].Analysis = analysisJSON(a)
			s.typesDone.Add(1)
		}
	}
	s.batched.Add(1)
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp StatsResponse
	resp.UptimeSeconds = time.Since(s.start).Seconds()
	resp.Requests.Analyze = s.analyzed.Load()
	resp.Requests.Batch = s.batched.Load()
	resp.Requests.Check = s.checked.Load()
	resp.Requests.Failed = s.failed.Load()
	resp.Inflight = s.inflight.Load()
	resp.TypesAnalyzed = s.typesDone.Load()
	resp.ChecksRun = s.checkItems.Load()
	resp.Graph.Expanded = s.graphExpanded.Load()
	resp.Graph.Reused = s.graphReused.Load()
	if total := resp.Graph.Expanded + resp.Graph.Reused; total > 0 {
		resp.Graph.HitRate = float64(resp.Graph.Reused) / float64(total)
	}
	var gc engine.GraphCacheStats
	if s.graphs != nil {
		gc = s.graphs.Stats()
	}
	resp.GraphCache.Hits = gc.Hits
	resp.GraphCache.Misses = gc.Misses
	resp.GraphCache.Evicted = gc.Evicted
	resp.GraphCache.Graphs = gc.Graphs
	resp.GraphCache.Nodes = gc.Nodes
	resp.GraphCache.HitRate = gc.HitRate()
	resp.GraphStore = gc.Store
	resp.Jobs = s.jobsMgr.Stats()
	resp.Protocols = s.protocols.Len()
	resp.Compactions = s.compacted.Load()
	hits, misses, entries := s.cfg.Cache.Stats()
	resp.Cache.Hits = hits
	resp.Cache.Misses = misses
	resp.Cache.Entries = entries
	if total := hits + misses; total > 0 {
		resp.Cache.HitRate = float64(hits) / float64(total)
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		resp.Store = &st
	}
	for name, es := range s.endpoints {
		snap := es.latency.Snapshot()
		if snap.Count == 0 {
			continue
		}
		if resp.Latency == nil {
			resp.Latency = make(map[string]LatencySummary)
		}
		resp.Latency[name] = LatencySummary{
			Count: snap.Count,
			Mean:  snap.Mean(),
			P50:   snap.Quantile(0.5),
			P99:   snap.Quantile(0.99),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
