package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
)

// DefaultCheckMaxNodes bounds one model-check item's explored state
// space when Config.CheckMaxNodes is 0: the model checker's own default.
const DefaultCheckMaxNodes = model.DefaultMaxNodes

// CheckItemRequest is one element of a POST /v1/check batch.
type CheckItemRequest struct {
	// Inputs is the binary input of each process (length must equal the
	// protocol's process count — violations are per-item errors).
	Inputs []int `json:"inputs"`
	// CrashQuota[p] bounds process p's crashes (absent: crash-free).
	CrashQuota []int `json:"crashQuota,omitempty"`
	// MaxNodes bounds this item's explored state space (0 = the server's
	// CheckMaxNodes, which also caps it; see RunCheckBatch).
	MaxNodes int `json:"maxNodes,omitempty"`
	// SkipLiveness disables the recoverable wait-freedom (cycle) check.
	SkipLiveness bool `json:"skipLiveness,omitempty"`
	// TimeoutMs bounds this item's exploration independently of the
	// whole request's timeout; an expired item fails alone.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// CheckRequestBody is the body of POST /v1/check.
type CheckRequestBody struct {
	// Protocol is a protocol registry descriptor ("tnn-wf:3,2",
	// "cas-rec:2", "tas-reg", ...).
	Protocol string `json:"protocol,omitempty"`
	// ProtocolFingerprint, instead of Protocol, selects a protocol
	// registered via POST /v1/protocols by its structural fingerprint.
	ProtocolFingerprint string `json:"protocolFingerprint,omitempty"`
	// Requests is the batch; all items run over shared exploration
	// graphs (one per distinct input vector).
	Requests []CheckItemRequest `json:"requests"`
	// Backend is a no-op kept for wire compatibility (see checkBackend).
	Backend string `json:"backend,omitempty"`
}

// ViolationJSON is the wire form of one property violation.
type ViolationJSON struct {
	Kind   string `json:"kind"`
	Trace  string `json:"trace"`
	Config string `json:"config"`
	Detail string `json:"detail"`
}

// CheckItemResult is one element of a check response: the model-checking
// outcome, or the per-item error that prevented it.
type CheckItemResult struct {
	Error      string          `json:"error,omitempty"`
	OK         bool            `json:"ok"`
	Nodes      int             `json:"nodes,omitempty"`
	Truncated  bool            `json:"truncated,omitempty"`
	Violations []ViolationJSON `json:"violations,omitempty"`
}

// CheckResponse is the body of a POST /v1/check reply.
type CheckResponse struct {
	Protocol string            `json:"protocol"`
	Results  []CheckItemResult `json:"results"`
	// Graph reports the batch's shared-exploration-graph reuse.
	Graph model.GraphStats `json:"graph"`
}

// Validate checks a body's batch (at least one request, at most limit,
// 0 for no limit) and its legacy backend name; the caller resolves the
// protocol.
func (b *CheckRequestBody) Validate(limit int) error {
	if len(b.Requests) == 0 {
		return fmt.Errorf("check needs at least one request")
	}
	if limit > 0 && len(b.Requests) > limit {
		return fmt.Errorf("batch of %d check requests exceeds the limit of %d", len(b.Requests), limit)
	}
	return checkBackend(b.Backend)
}

// capNodes applies a node ceiling (0: none) to a requested bound; a
// request of 0 takes the ceiling.
func capNodes(requested, ceiling int) int {
	if ceiling > 0 && (requested <= 0 || requested > ceiling) {
		return ceiling
	}
	return requested
}

// RunCheckBatch runs validated items against p as one Engine.CheckBatch
// on eng and renders the reply: each item's node bound capped at
// maxNodes (0: no cap), its timeoutMs a deadline of its own under ctx.
// Only an engine-level failure (its context) is an error. /v1/check,
// check jobs and statemachine -check all run checks through it.
func RunCheckBatch(ctx context.Context, eng *engine.Engine, p model.Protocol,
	label string, items []CheckItemRequest, maxNodes int) (CheckResponse, error) {
	reqs := make([]engine.CheckRequest, len(items))
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	for i, item := range items {
		reqs[i] = engine.CheckRequest{
			Inputs:       item.Inputs,
			CrashQuota:   item.CrashQuota,
			MaxNodes:     capNodes(item.MaxNodes, maxNodes),
			SkipLiveness: item.SkipLiveness,
		}
		if item.TimeoutMs > 0 {
			itemCtx, c := context.WithTimeout(ctx, time.Duration(item.TimeoutMs)*time.Millisecond)
			cancels = append(cancels, c)
			reqs[i].Ctx = itemCtx
		}
	}
	results, gs, err := eng.CheckBatch(p, reqs)
	if err != nil {
		return CheckResponse{}, err
	}
	resp := CheckResponse{Protocol: label, Graph: gs}
	for _, it := range results {
		var out CheckItemResult
		switch {
		case it.Err != nil:
			out.Error = it.Err.Error()
		default:
			out.OK = it.Result.OK()
			out.Nodes = it.Result.Nodes
			out.Truncated = it.Result.Truncated
			for _, v := range it.Result.Violations {
				out.Violations = append(out.Violations, ViolationJSON{
					Kind: v.Kind, Trace: v.Trace.String(), Config: v.Config.String(), Detail: v.Detail,
				})
			}
		}
		resp.Results = append(resp.Results, out)
	}
	return resp, nil
}

// runCheck is RunCheckBatch under the server's node ceiling, counted
// into the server's check totals.
func (s *Server) runCheck(ctx context.Context, eng *engine.Engine, p model.Protocol,
	label string, items []CheckItemRequest) (CheckResponse, error) {
	resp, err := RunCheckBatch(ctx, eng, p, label, items, s.cfg.CheckMaxNodes)
	if err != nil {
		return resp, err
	}
	for _, out := range resp.Results {
		if out.Error == "" {
			s.checkItems.Add(1)
		}
	}
	s.graphExpanded.Add(resp.Graph.Expanded)
	s.graphReused.Add(resp.Graph.Reused)
	return resp, nil
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequestBody
	if err := decodeBody(w, r, &req); err != nil {
		s.failBody(w, err)
		return
	}
	p, label, err := s.resolveProtocol(req.Protocol, req.ProtocolFingerprint)
	if err == nil {
		err = req.Validate(s.cfg.BatchLimit)
	}
	if err != nil {
		s.badRequest(w, err)
		return
	}
	release, err := s.acquire(r)
	if err != nil {
		s.fail(w, http.StatusServiceUnavailable, "no analysis slot: %v", err)
		return
	}
	defer release()
	eng, cancel := s.requestEngine(r, s.cfg.MaxN)
	defer cancel()

	// Only engine-level failures (the context) land in err; item
	// failures, an invalid protocol's included, are reported per item.
	resp, err := s.runCheck(r.Context(), eng, p, label, req.Requests)
	if err != nil {
		s.fail(w, analysisStatus(err), "check %s: %v", label, err)
		return
	}
	s.checked.Add(1)
	writeJSON(w, http.StatusOK, resp)
}
