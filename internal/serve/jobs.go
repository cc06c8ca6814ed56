package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
)

// sseHeartbeat is the idle interval after which the SSE handler emits a
// comment line so intermediaries do not drop a quiet stream.
const sseHeartbeat = 15 * time.Second

// JobRequest is the body of POST /v1/jobs: the kind selects which of the
// payloads below describes the work. Jobs run asynchronously on the
// job worker pool — the reply is the queued job (poll GET /v1/jobs/{id},
// or stream GET /v1/jobs/{id}/events).
type JobRequest struct {
	// Kind is "analyze", "check" or "theorem13".
	Kind string `json:"kind"`
	// Priority orders the queue (higher first; same-priority jobs run in
	// submission order).
	Priority int `json:"priority,omitempty"`
	// TimeoutMs bounds the job's run (0 = server default).
	TimeoutMs int `json:"timeoutMs,omitempty"`

	// Analyze is the payload for kind "analyze" — the same body as
	// POST /v1/analyze.
	Analyze *AnalyzeRequest `json:"analyze,omitempty"`
	// Check is the payload for kind "check" — the same body as
	// POST /v1/check.
	Check *CheckRequestBody `json:"check,omitempty"`
	// Theorem13 is the payload for kind "theorem13".
	Theorem13 *Theorem13Request `json:"theorem13,omitempty"`
}

// Theorem13Request describes one Theorem 13 chain-construction job.
type Theorem13Request struct {
	// Protocol is a protocol registry descriptor; ProtocolFingerprint a
	// /v1/protocols registration. Exactly one must be given.
	Protocol            string `json:"protocol,omitempty"`
	ProtocolFingerprint string `json:"protocolFingerprint,omitempty"`
	// Inputs is the binary input of each process.
	Inputs []int `json:"inputs"`
	// CrashQuota[p] bounds process p's crashes per chain stage.
	CrashQuota []int `json:"crashQuota,omitempty"`
	// MaxNodes bounds each stage's explored state space (0 = the server's
	// CheckMaxNodes, which also caps it).
	MaxNodes int `json:"maxNodes,omitempty"`
	// Backend is a no-op kept for wire compatibility (see checkBackend);
	// an unknown name answers 400 invalid_argument at submission.
	Backend string `json:"backend,omitempty"`
}

// Theorem13Response is a theorem13 job's result.
type Theorem13Response struct {
	Protocol  string `json:"protocol"`
	Recording bool   `json:"recording"`
	// Stages lists each chain stage's Observation 11 class.
	Stages []Theorem13Stage `json:"stages"`
	// Rendered is the chain's human-readable rendering.
	Rendered string `json:"rendered"`
}

// Theorem13Stage is one stage of a rendered chain.
type Theorem13Stage struct {
	Stage int    `json:"stage"`
	Class string `json:"class"`
}

// progressEvent is the wire form of one engine progress event inside a
// job's event stream.
type progressEvent struct {
	Kind      string  `json:"kind"`
	Type      string  `json:"type,omitempty"`
	Property  string  `json:"property,omitempty"`
	N         int     `json:"n,omitempty"`
	OK        bool    `json:"ok"`
	Cached    bool    `json:"cached,omitempty"`
	ElapsedMs float64 `json:"elapsedMs,omitempty"`
	Detail    string  `json:"detail,omitempty"`
}

func progressJSON(ev engine.Event) progressEvent {
	return progressEvent{
		Kind: ev.Kind, Type: ev.Type, Property: string(ev.Property), N: ev.N,
		OK: ev.OK, Cached: ev.Cached, ElapsedMs: float64(ev.Elapsed.Microseconds()) / 1000,
		Detail: ev.Detail(),
	}
}

// jobEngine builds the engine one job runs on: bound to the job's
// context (not any request's), sharing the server-wide caches,
// streaming every engine progress event into the job's subscribable
// stream.
func (s *Server) jobEngine(ctx context.Context, j *jobs.Job, maxN int) *engine.Engine {
	return engine.New(
		engine.WithContext(ctx),
		engine.WithCache(s.cfg.Cache),
		engine.WithParallelism(s.cfg.Parallelism),
		engine.WithMaxN(maxN),
		engine.WithProgress(func(ev engine.Event) { j.Publish(ev.Kind, progressJSON(ev)) }),
		engine.WithGraphCache(s.graphs),
	)
}

// handleJobSubmit serves POST /v1/jobs. The request is validated fully
// at submission — protocol/type resolution, bounds — so a queued job can
// only fail on execution errors, and bad requests answer 400 instead of
// becoming failed jobs. A full queue answers 429. The 202 reply is the
// view Submit took while the job was still queued: a fast job may be
// done before the reply is written.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.failBody(w, err)
		return
	}
	spec, err := s.jobSpec(req)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	_, view, err := s.jobsMgr.Submit(spec)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.fail(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, jobs.ErrClosed):
		s.failCode(w, http.StatusServiceUnavailable, CodeShuttingDown, "%v", err)
		return
	case err != nil:
		s.fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, view)
}

// jobSpec validates a JobRequest and builds the jobs.Spec running it.
// Validation is complete at submission — including the legacy backend
// name, so an unknown one is a 400 invalid_argument answer, never a
// queued job that fails at run time.
func (s *Server) jobSpec(req JobRequest) (jobs.Spec, error) {
	spec := jobs.Spec{
		Kind:     req.Kind,
		Priority: req.Priority,
		Timeout:  time.Duration(req.TimeoutMs) * time.Millisecond,
	}
	switch req.Kind {
	case "analyze":
		if req.Analyze == nil {
			return spec, fmt.Errorf(`kind "analyze" needs an "analyze" payload`)
		}
		t, label, err := s.resolveAnalyzeType(*req.Analyze)
		if err != nil {
			return spec, err
		}
		maxN, err := s.resolveMaxN(req.Analyze.MaxN)
		if err != nil {
			return spec, err
		}
		if err := checkBackend(req.Analyze.Backend); err != nil {
			return spec, err
		}
		spec.Label = "analyze " + label
		spec.Run = func(ctx context.Context, j *jobs.Job) (any, error) {
			a, err := s.jobEngine(ctx, j, maxN).Analyze(t)
			if err != nil {
				return nil, err
			}
			s.typesDone.Add(1)
			return AnalyzeResponse{Type: label, Analysis: analysisJSON(a)}, nil
		}

	case "check":
		if req.Check == nil {
			return spec, fmt.Errorf(`kind "check" needs a "check" payload`)
		}
		body := *req.Check
		p, label, err := s.resolveProtocol(body.Protocol, body.ProtocolFingerprint)
		if err == nil {
			err = body.Validate(s.cfg.BatchLimit)
		}
		if err != nil {
			return spec, err
		}
		spec.Label = "check " + label
		spec.Run = func(ctx context.Context, j *jobs.Job) (any, error) {
			return s.runCheck(ctx, s.jobEngine(ctx, j, s.cfg.MaxN), p, label, body.Requests)
		}

	case "theorem13":
		if req.Theorem13 == nil {
			return spec, fmt.Errorf(`kind "theorem13" needs a "theorem13" payload`)
		}
		body := *req.Theorem13
		p, label, err := s.resolveProtocol(body.Protocol, body.ProtocolFingerprint)
		if err != nil {
			return spec, err
		}
		if len(body.Inputs) != p.Procs() {
			return spec, fmt.Errorf("theorem13 needs %d inputs for %s, got %d",
				p.Procs(), label, len(body.Inputs))
		}
		if err := checkBackend(body.Backend); err != nil {
			return spec, err
		}
		spec.Label = "theorem13 " + label
		spec.Run = func(ctx context.Context, j *jobs.Job) (any, error) {
			eng := s.jobEngine(ctx, j, s.cfg.MaxN)
			chain, err := eng.Theorem13(p, engine.CheckRequest{
				Inputs:     body.Inputs,
				CrashQuota: body.CrashQuota,
				MaxNodes:   capNodes(body.MaxNodes, s.cfg.CheckMaxNodes),
			})
			if err != nil {
				return nil, err
			}
			resp := Theorem13Response{Protocol: label, Recording: chain.Recording, Rendered: chain.String()}
			for i, st := range chain.Stages {
				resp.Stages = append(resp.Stages, Theorem13Stage{Stage: i, Class: st.Info.Class})
			}
			return resp, nil
		}

	default:
		return spec, fmt.Errorf("unknown job kind %q (valid: analyze, check, theorem13)", req.Kind)
	}
	return spec, nil
}

// handleJobGet serves GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobsMgr.Get(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, "no job %q (finished jobs are remembered up to a history limit)", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// handleJobCancel serves DELETE /v1/jobs/{id}: best-effort cancellation.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobsMgr.Get(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "no job %q", id)
		return
	}
	s.jobsMgr.Cancel(id)
	writeJSON(w, http.StatusOK, j.View())
}

// handleJobEvents serves GET /v1/jobs/{id}/events as Server-Sent Events:
// the job's retained replay buffer, then live progress until a terminal
// lifecycle event ("job.done"/"job.failed"/"job.canceled") ends the
// stream. Reconnecting clients resume after the standard Last-Event-ID
// header. The stream also ends when the client goes away or the server
// drains the job manager during shutdown.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobsMgr.Get(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	var after int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			after = n
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, ch, unsubscribe := j.Subscribe(after)
	defer unsubscribe()

	terminal := false
	emit := func(e jobs.Event) {
		data, err := json.Marshal(e.Data)
		if err != nil || e.Data == nil {
			data = []byte("{}")
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data)
		if strings.HasPrefix(e.Kind, "job.") && jobs.State(strings.TrimPrefix(e.Kind, "job.")).Terminal() {
			terminal = true
		}
	}
	for _, e := range replay {
		emit(e)
	}
	fl.Flush()
	if terminal {
		return
	}

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case e, open := <-ch:
			if !open {
				// Stream closed: terminal event delivered (then we already
				// returned below), this subscriber was dropped as too slow,
				// or the manager is draining. If the job did reach a
				// terminal state, synthesize the terminal event so the
				// client always sees one.
				if v := j.View(); !terminal && v.State.Terminal() {
					emit(jobs.Event{Seq: v.Events, Kind: "job." + string(v.State),
						Data: map[string]any{"state": v.State, "error": v.Error}})
					fl.Flush()
				}
				return
			}
			emit(e)
			fl.Flush()
			if terminal {
				return
			}
		case <-heartbeat.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
