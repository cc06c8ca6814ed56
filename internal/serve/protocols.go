package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/model"
	"repro/internal/protodef"
	"repro/internal/registry"
	"repro/internal/spec"
)

// ProtocolResponse is the body of a POST /v1/protocols reply: the
// submitted protocol's structural identity.
type ProtocolResponse struct {
	// Fingerprint is the structural fingerprint (model.Fingerprint) — the
	// identity accepted as protocolFingerprint by /v1/analyze, /v1/check
	// and /v1/jobs.
	Fingerprint string `json:"fingerprint"`
	Name        string `json:"name"`
	Procs       int    `json:"procs"`
	Outputs     int    `json:"outputs"`
	// Known reports that a structurally identical protocol was already
	// registered (its compilation is kept; names may differ).
	Known bool `json:"known"`
}

// ProtocolDetail is the body of a GET /v1/protocols/{fingerprint} reply.
type ProtocolDetail struct {
	ProtocolResponse
	// Descriptor is the registered protocol's validated descriptor.
	Descriptor *protodef.Descriptor `json:"descriptor"`
}

// handleProtocolRegister serves POST /v1/protocols: the body is a
// protodef JSON descriptor; the reply is its structural fingerprint.
// Registration is idempotent by fingerprint — resubmitting a known
// protocol (under any names) answers 200 with Known=true, a new one 201.
func (s *Server) handleProtocolRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.failBody(w, err)
		return
	}
	c, err := protodef.Parse(body)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	fp, existed, err := s.protocols.Register(c)
	if err != nil {
		if errors.Is(err, protodef.ErrStoreFull) {
			s.fail(w, http.StatusInsufficientStorage, "%v", err)
			return
		}
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
		// Report the retained registration, not the resubmission.
		if kept, ok := s.protocols.Get(fp); ok {
			c = kept
		}
	}
	writeJSON(w, status, ProtocolResponse{
		Fingerprint: fp, Name: c.Name(), Procs: c.Procs(), Outputs: c.Outputs(), Known: existed,
	})
}

// handleProtocolGet serves GET /v1/protocols/{fingerprint}.
func (s *Server) handleProtocolGet(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	c, ok := s.protocols.Get(fp)
	if !ok {
		s.fail(w, http.StatusNotFound, "no protocol registered under fingerprint %q", fp)
		return
	}
	writeJSON(w, http.StatusOK, ProtocolDetail{
		ProtocolResponse: ProtocolResponse{
			Fingerprint: fp, Name: c.Name(), Procs: c.Procs(), Outputs: c.Outputs(), Known: true,
		},
		Descriptor: c.Descriptor(),
	})
}

// resolveProtocol resolves the protocol of a check/theorem13 request:
// exactly one of name (a registry descriptor like "tnn-wf:3,2") or
// fingerprint (a /v1/protocols registration) must be given. The returned
// label echoes whichever identity the client used.
func (s *Server) resolveProtocol(name, fingerprint string) (model.Protocol, string, error) {
	switch {
	case name != "" && fingerprint != "":
		return nil, "", fmt.Errorf("give protocol or protocolFingerprint, not both")
	case fingerprint != "":
		c, ok := s.protocols.Get(fingerprint)
		if !ok {
			return nil, "", fmt.Errorf("no protocol registered under fingerprint %q (register it via POST /v1/protocols)", fingerprint)
		}
		return c, fingerprint, nil
	case name != "":
		p, err := s.namedProtocol(name)
		if err != nil {
			return nil, "", err
		}
		return p, name, nil
	}
	return nil, "", fmt.Errorf("protocol or protocolFingerprint required")
}

// namedProtocol resolves a registry descriptor to the one protocol value
// the server keeps for it (see Server.named).
func (s *Server) namedProtocol(name string) (model.Protocol, error) {
	s.namedMu.Lock()
	p, ok := s.named[name]
	s.namedMu.Unlock()
	if ok {
		return p, nil
	}
	p, err := registry.ParseProtocol(name)
	if err != nil {
		return nil, err
	}
	s.namedMu.Lock()
	defer s.namedMu.Unlock()
	if kept, ok := s.named[name]; ok {
		// A concurrent request resolved the descriptor first: share its value.
		return kept, nil
	}
	if len(s.named) < protodef.DefaultStoreLimit {
		s.named[name] = p
	}
	return p, nil
}

// resolveAnalyzeType resolves the type of an analyze request: a registry
// type descriptor, or — via protocolFingerprint — the single object type
// of a registered protocol.
func (s *Server) resolveAnalyzeType(req AnalyzeRequest) (*spec.FiniteType, string, error) {
	switch {
	case req.Type != "" && req.ProtocolFingerprint != "":
		return nil, "", fmt.Errorf("give type or protocolFingerprint, not both")
	case req.ProtocolFingerprint != "":
		c, ok := s.protocols.Get(req.ProtocolFingerprint)
		if !ok {
			return nil, "", fmt.Errorf("no protocol registered under fingerprint %q (register it via POST /v1/protocols)", req.ProtocolFingerprint)
		}
		var distinct []*spec.FiniteType
		seen := make(map[*spec.FiniteType]bool)
		for _, o := range c.Objects() {
			if !seen[o.Type] {
				seen[o.Type] = true
				distinct = append(distinct, o.Type)
			}
		}
		if len(distinct) != 1 {
			return nil, "", fmt.Errorf("protocol %q uses %d distinct object types; analyze is defined for single-type protocols",
				c.Name(), len(distinct))
		}
		return distinct[0], req.ProtocolFingerprint, nil
	}
	t, err := registry.Parse(req.Type)
	if err != nil {
		return nil, "", err
	}
	return t, req.Type, nil
}
