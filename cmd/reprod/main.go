// Command reprod serves the analysis engine over HTTP: a long-lived
// process answering type-analysis requests from one shared decision
// cache, optionally persisted to disk so decisions survive restarts.
//
// Usage:
//
//	reprod -addr :8080 -cache-file decisions.repro
//	reprod -addr 127.0.0.1:0 -max-n 5 -request-timeout 30s -max-concurrent 16
//
// Endpoints (see internal/serve):
//
//	POST /v1/analyze    {"type":"tnn:5,2","maxN":5}
//	POST /v1/batch      {"types":["tas","x4"],"maxN":4}
//	POST /v1/check      {"protocol":"cas-rec:2","requests":[{"inputs":[0,1],"crashQuota":[1,1]}]}
//	POST /v1/protocols  (register a JSON protocol descriptor; returns its structural fingerprint)
//	GET  /v1/protocols/{fingerprint}
//	POST /v1/jobs       {"kind":"check","check":{...}} (async; also "analyze", "theorem13")
//	GET  /v1/jobs/{id}  (DELETE cancels; /v1/jobs/{id}/events streams progress as SSE)
//	POST /v1/compact    (fold the -cache-file journal into a fresh snapshot)
//	GET  /healthz
//	GET  /v1/stats
//	GET  /metrics       (Prometheus text format)
//
// /v1/check model-checks a batch of requests against one registry-named
// protocol over a shared exploration graph: requests with the same
// inputs expand common state-space prefixes once (reuse shows up in
// /v1/stats under "graph"). Item errors and timeouts (timeoutMs) are
// per-item; -check-max-nodes caps one item's explored state space. The
// graphs live in a server-wide cache (-graph-cache-budget bounds its
// total node count), so repeated traffic for the same protocol and
// inputs walks warm graphs across requests — cache traffic shows up in
// /v1/stats under "graphCache". With -graph-dir set, expanded graphs
// additionally persist to disk: a cache miss warm-loads the previously
// expanded graph instead of re-expanding (so a restarted server serves
// known protocols with zero expansions), dirty graphs spill
// asynchronously, and shutdown flushes the remainder — persistence
// traffic shows up under "graphStore" and the reprod_graph_store_*
// metrics.
//
// POST /v1/protocols accepts a user-written state-machine descriptor
// (see internal/protodef), validates and compiles it, and registers it
// under its structural fingerprint — a name-independent hash of the
// reachable state machine (internal/model.Fingerprint). A descriptor
// structurally identical to a registry protocol gets the registry
// build's fingerprint, so fingerprint-addressed requests
// ("protocolFingerprint" in /v1/analyze, /v1/check, and job payloads)
// share cached exploration graphs with registry-named traffic.
//
// POST /v1/jobs runs analyze/check/theorem13 work asynchronously on a
// bounded worker pool: -max-jobs jobs run concurrently, -job-queue
// bounds the waiting queue (beyond it submissions answer 429), and
// GET /v1/jobs/{id}/events streams engine progress as Server-Sent
// Events until the job's terminal event. Shutdown drains jobs first —
// queued jobs cancel, streams end with a terminal event — before the
// HTTP listener and the decision journal close.
//
// With -cache-file set, -compact-every additionally folds the decision
// journal into a fresh snapshot on a timer (drain-safe: shutdown waits
// for an in-flight compaction before the final flush), and
// POST /v1/compact does the same on demand.
//
// Observability: every request is traced end to end. The server logs
// one structured JSON line per request to stderr (level via -log-level)
// carrying the request's X-Request-Id — client-supplied or generated,
// echoed on the response header and in error envelopes. Requests slower
// than -slow-request log a warn line with per-stage engine timings
// attached. Latency histograms per endpoint and per engine graph phase
// are exported on /metrics. With -debug-addr set, a private listener
// additionally serves the net/http/pprof suite and /metrics off the
// public mux (see the README's Observability section).
//
// The shared engine flags apply: -parallel sizes each request's worker
// pool, -shard-threshold tunes single-level sharding, -cache-file
// persists the decision cache (journal + snapshot), -timeout bounds the
// whole serving run (useful for smoke tests), and -progress logs cache
// and store statistics on shutdown. SIGINT/SIGTERM shut down
// gracefully: in-flight requests finish, then the journal is flushed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/decider"
	"repro/internal/obs"
	"repro/internal/serve"
)

// testHookServing, when non-nil, observes the bound address once the
// listener is up (tests grab the ephemeral port through it).
var testHookServing func(addr string)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "reprod:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("reprod", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks one)")
	maxN := fs.Int("max-n", serve.DefaultMaxN, "default and ceiling for a request's analysis bound")
	reqTimeout := fs.Duration("request-timeout", serve.DefaultRequestTimeout,
		"per-request analysis deadline (negative = none)")
	maxConc := fs.Int("max-concurrent", 0, "concurrent analysis requests (0 = 2x -parallel)")
	batchLimit := fs.Int("batch-limit", serve.DefaultBatchLimit, "max type descriptors per batch request (also max items per check request)")
	checkMaxNodes := fs.Int("check-max-nodes", serve.DefaultCheckMaxNodes,
		"default and ceiling for one model-check item's explored state space, in nodes")
	compactEvery := fs.Duration("compact-every", 0,
		"fold the -cache-file journal into a fresh snapshot at this interval (0 = only on demand via POST /v1/compact)")
	ef := cli.AddEngineFlags(fs)
	jf := cli.AddJobFlags(fs)
	of := cli.AddObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *maxN < 2 {
		return fmt.Errorf("need -max-n >= 2, got %d", *maxN)
	}
	if err := decider.CheckN(*maxN); err != nil {
		return fmt.Errorf("-max-n: %w", err)
	}
	if err := ef.Validate(); err != nil {
		return err
	}
	if err := jf.Validate(); err != nil {
		return err
	}
	if err := of.Validate(); err != nil {
		return err
	}
	logLevel, err := of.Level()
	if err != nil {
		return err
	}

	runCtx, cancelRun := ef.Context()
	defer cancelRun()
	ctx, stop := signal.NotifyContext(runCtx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	pc, err := ef.OpenCache()
	if err != nil {
		return err
	}
	cache := repro.NewCache()
	if pc != nil {
		cache = pc.Cache()
		fmt.Fprintf(os.Stderr, "reprod: cache file %s (%d decisions warm-loaded)\n",
			pc.Path(), pc.Stats().Loaded)
	}
	gs, err := ef.OpenGraphStore()
	if err != nil {
		return err
	}

	cfg := serve.Config{
		Cache:            cache,
		Store:            pc,
		MaxN:             *maxN,
		Parallelism:      ef.Parallel,
		ShardThreshold:   ef.ShardThreshold,
		RequestTimeout:   *reqTimeout,
		MaxConcurrent:    *maxConc,
		BatchLimit:       *batchLimit,
		CheckMaxNodes:    *checkMaxNodes,
		GraphCacheBudget: ef.GraphCacheBudget,
		JobWorkers:       jf.MaxJobs,
		JobQueue:         jf.JobQueue,
		Logger:           obs.NewLogger(os.Stderr, logLevel),
		SlowRequest:      of.SlowRequest,
	}
	if gs != nil {
		cfg.GraphStore = gs
		fmt.Fprintf(os.Stderr, "reprod: graph dir %s (exploration graphs persist across restarts)\n", ef.GraphDir)
	}
	srv := serve.New(cfg)

	// Periodic auto-compaction: fold the journal into a fresh snapshot on
	// a timer. The ticker goroutine signals compactorDone when it exits;
	// shutdown waits on it BEFORE closing the store, so a compaction can
	// never race the final flush-and-close (drain-safe by construction —
	// Compact itself is serialized with appends on the store's flusher).
	compactorDone := make(chan struct{})
	if *compactEvery > 0 && pc != nil {
		go func() {
			defer close(compactorDone)
			tick := time.NewTicker(*compactEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := pc.Compact(); err != nil {
						fmt.Fprintln(os.Stderr, "reprod: compact:", err)
					}
				}
			}
		}()
	} else {
		close(compactorDone)
	}
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// The optional private debug listener: pprof + /metrics, off the
	// public mux. Closed last — profiling a hung drain is exactly when
	// it is needed.
	var dhs *http.Server
	if of.DebugAddr != "" {
		dhs, err = startDebugServer(of.DebugAddr, srv)
		if err != nil {
			if pc != nil {
				pc.Close()
			}
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "reprod: debug listener (pprof, metrics) on %s\n", of.DebugAddr)
		defer dhs.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		if pc != nil {
			pc.Close()
		}
		return err
	}
	fmt.Fprintf(os.Stderr, "reprod: listening on %s\n", ln.Addr())
	if testHookServing != nil {
		testHookServing(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(drainCtx) // no listener left, but jobs may still be running
		cancelDrain()
		if ferr := srv.FlushGraphs(); ferr != nil {
			fmt.Fprintln(os.Stderr, "reprod: flushing graphs:", ferr)
		}
		if pc != nil {
			cancelRun() // stops the auto-compactor before the store closes
			<-compactorDone
			pc.Close()
		}
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown, strictly ordered: (1) drain the async job
	// subsystem — queued jobs cancel, running jobs stop, every SSE event
	// stream ends with a terminal event; (2) then the HTTP server can
	// drain, since the now-closed streams release their handlers;
	// (3) only after all job and request work has stopped, wait out the
	// auto-compactor and flush the decision journal, so nothing appends
	// decisions after the final write. Unregister the signal handler
	// first so a second SIGINT/SIGTERM falls back to the default action
	// and can force-quit a drain that is taking too long.
	stop()
	fmt.Fprintln(os.Stderr, "reprod: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "reprod: draining jobs:", err)
	}
	shutErr := hs.Shutdown(shutCtx)
	if errors.Is(shutErr, context.DeadlineExceeded) {
		hs.Close()
	}
	// (4) With jobs drained and requests finished, no engine is growing a
	// graph: spill still-dirty exploration graphs to the -graph-dir store.
	if err := srv.FlushGraphs(); err != nil {
		fmt.Fprintln(os.Stderr, "reprod: flushing graphs:", err)
	}
	ef.Summary(cache)
	if pc != nil {
		<-compactorDone // ctx is done; wait out any in-flight compaction
		if err := pc.Close(); err != nil {
			return fmt.Errorf("flushing cache file: %w", err)
		}
	}
	return shutErr
}
