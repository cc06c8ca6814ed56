package serve

import (
	"net/http"

	"repro/internal/model"
)

// DefaultCheckMaxNodes bounds one model-check item's explored state
// space when Config.CheckMaxNodes is 0. It matches the model checker's
// own default.
const DefaultCheckMaxNodes = 2_000_000

// CheckItemRequest is one element of a POST /v1/check batch.
type CheckItemRequest struct {
	// Inputs is the binary input of each process (length must equal the
	// protocol's process count — violations are per-item errors).
	Inputs []int `json:"inputs"`
	// CrashQuota[p] bounds process p's crashes (absent: crash-free).
	CrashQuota []int `json:"crashQuota,omitempty"`
	// MaxNodes bounds this item's explored state space (0 = server
	// default; capped at the server's CheckMaxNodes).
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

// resolveCheckMaxNodes applies the server's default and ceiling to one
// item's node budget.
func (s *Server) resolveCheckMaxNodes(reqMax int) int {
	ceiling := s.cfg.CheckMaxNodes
	if reqMax <= 0 || reqMax > ceiling {
		return ceiling
	}
	return reqMax
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequestBody
	if err := decodeBody(w, r, &req); err != nil {
		s.failBody(w, err)
		return
	}
	p, label, err := s.resolveProtocol(req.Protocol, req.ProtocolFingerprint)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Requests) == 0 {
		s.fail(w, http.StatusBadRequest, "check needs at least one request")
		return
	}
	if len(req.Requests) > s.cfg.BatchLimit {
		s.fail(w, http.StatusBadRequest, "batch of %d check requests exceeds the limit of %d",
			len(req.Requests), s.cfg.BatchLimit)
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
	eng, cancel := s.requestEngine(r, s.cfg.MaxN)
	defer cancel()

	// runCheckBatch turns per-item timeouts into per-request contexts on
	// the engine batch; only engine-level failures (the context) land in
	// err — item failures, an invalid protocol's included, are reported
	// per item.
	resp, err := s.runCheckBatch(r.Context(), eng, p, label, req.Requests)
	if err != nil {
		s.fail(w, analysisStatus(err), "check %s: %v", label, err)
		return
	}
	s.checked.Add(1)
	writeJSON(w, http.StatusOK, resp)
}
