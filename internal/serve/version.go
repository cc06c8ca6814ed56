package serve

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// APIRevision is the integer revision of the /v1 API surface, echoed by
// GET /v1/version and as the X-Reprod-Api header on every /v1 response.
// It bumps when the wire contract changes compatibly (new endpoints,
// new response fields); incompatible changes would bump the /v1 path
// prefix instead.
//
// Revision history:
//
//	1 — /v1/analyze, /v1/batch, /v1/check, /v1/stats, /v1/compact,
//	    /v1/protocols, /v1/jobs (+SSE events).
//	2 — coded error envelopes ({code, error}), GET /v1/version, the
//	    X-Reprod-Api header, and graph persistence counters in
//	    /v1/stats.
//	3 — one level decider serves every request: the "backend" field of
//	    analyze, batch, check and jobs is accepted as a no-op for "",
//	    "search", "bitset" and "auto" (any other name still answers 400
//	    invalid_argument), /v1/stats no longer reports "deciders" and
//	    /metrics no longer exports reprod_decider_total.
const APIRevision = 3

// apiHeader is the response header carrying APIRevision on /v1 routes.
const apiHeader = "X-Reprod-Api"

// VersionResponse is the body of GET /v1/version.
type VersionResponse struct {
	// Module is the server binary's main-module version as recorded by
	// the Go toolchain ("(devel)" for non-released builds).
	Module string `json:"module"`
	// GoVersion built the binary.
	GoVersion string `json:"goVersion"`
	// APIRevision is the /v1 wire-contract revision (see APIRevision).
	APIRevision int `json:"apiRevision"`
}

// moduleVersion resolves the main module's version from build info.
func moduleVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "(devel)"
}

// handleVersion serves GET /v1/version.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, VersionResponse{
		Module:      moduleVersion(),
		GoVersion:   runtime.Version(),
		APIRevision: APIRevision,
	})
}

// stampAPIRevision adds the X-Reprod-Api header to /v1 responses, so
// clients can detect the server's wire-contract revision on any call
// (including errors) without a separate /v1/version round trip.
func stampAPIRevision(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		w.Header().Set(apiHeader, strconv.Itoa(APIRevision))
	}
}
