package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/spec"
)

// FingerprintStateBudget bounds the per-process reachable-state closure a
// Fingerprint computation will enumerate. Protocols in this repository
// have a handful of local states per process; the budget exists so a
// buggy or adversarial Protocol implementation with an unbounded state
// namespace fails with an error instead of hanging the fingerprinter.
const FingerprintStateBudget = 1 << 14

// Fingerprint computes the structural fingerprint of a protocol: a
// canonical SHA-256 hash (64 hex characters) of the reachable joint
// state machine. Two protocols share a fingerprint exactly when they are
// behaviorally identical:
//
//   - the same process count and the same shared-object shapes (value
//     count and initial value index per object), and
//   - for every process, the same canonical local state machine — the
//     closure of the initial states (one per consensus input) under
//     "apply the poised operation with the object at any of its values",
//     recording for each (state, object value) the successor object
//     value and successor local state.
//
// Everything nominal is deliberately excluded: Protocol.Name, local
// state strings, type/value/operation names and response integers all
// drop out. Local states are renamed to BFS discovery indices (with
// successors visited in ascending object-value order), so a registry
// protocol and a hand-submitted descriptor compilation with different
// state names — but identical dynamics — fingerprint equal, while any
// behavioral difference (one transition, one initial value) changes the
// hash. This is what makes the fingerprint safe as a cache identity for
// exploration graphs: unlike Name, it cannot alias two protocols that
// would expand different state spaces.
//
// The hash is taken over the protocol compiled to transition tables —
// the same tables every Graph built for it walks, and the hash Compile
// stores on the Machine those graphs share — so identity and
// exploration can never disagree about the state machine. The closure
// deliberately over-approximates reachability: it considers the poised
// operation against every value of the object's type, not only values
// arising in real executions, so it is a pure function of the protocol's
// structure and never depends on scheduling. Protocols whose closure
// exceeds FingerprintStateBudget states for one process, or with an
// object of more than 2^16 values, return an error.
func Fingerprint(pr Protocol) (string, error) {
	m, err := Compile(pr)
	if err != nil {
		return "", err
	}
	return m.Fingerprint(), nil
}

// fingerprint hashes the compiled tables: the one hash behind
// Fingerprint and Machine.Fingerprint.
func (mc *machine) fingerprint() string {
	h := sha256.New()
	wInt := func(v int) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wInt(mc.n)
	wInt(mc.m)
	for j := range mc.nvals {
		wInt(mc.nvals[j])
		wInt(int(mc.init[j]))
	}
	for _, pm := range mc.procs {
		wInt(len(pm.states))
		// Roots: the canonical ids of Init(p, 0) and Init(p, 1).
		wInt(int(pm.init[0]))
		wInt(int(pm.init[1]))
		for _, t := range pm.states {
			if t.decided {
				wInt(1)
				wInt(t.decision)
				continue
			}
			wInt(0)
			wInt(t.obj)
			for _, nx := range t.next {
				wInt(int(nx.val))
				wInt(int(nx.state))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ReachableStates returns process p's reachable local states under the
// same all-object-values closure Fingerprint canonicalizes, in BFS
// discovery order. It is the extraction primitive behind descriptor
// export (protodef.Describe) and exists here so the closure used for
// identity and the closure used for export can never drift apart.
func ReachableStates(pr Protocol, p int) ([]string, error) {
	pm, err := compileProc(pr, p)
	if err != nil {
		return nil, err
	}
	return pm.names, nil
}

// FingerprintedResponses returns, for one non-decided local state of
// process p, the set of (response, successor state) pairs the closure
// explores, deduplicated and ordered by ascending response. Export
// helpers use it to enumerate exactly the transitions the fingerprint
// commits to.
func FingerprintedResponses(pr Protocol, p int, state string) ([]RespEdge, error) {
	a := pr.Poised(p, state)
	if a.Decided {
		return nil, nil
	}
	objs := pr.Objects()
	if a.Obj < 0 || a.Obj >= len(objs) {
		return nil, fmt.Errorf("model: state %q poised on object %d out of range", state, a.Obj)
	}
	t := objs[a.Obj].Type
	seen := make(map[spec.Response]string)
	var resps []int
	for v := 0; v < t.NumValues(); v++ {
		e := t.Apply(spec.Value(v), a.Op)
		if _, ok := seen[e.Resp]; !ok {
			seen[e.Resp] = pr.Next(p, state, e.Resp)
			resps = append(resps, int(e.Resp))
		}
	}
	sort.Ints(resps)
	out := make([]RespEdge, 0, len(resps))
	for _, r := range resps {
		out = append(out, RespEdge{Resp: spec.Response(r), Next: seen[spec.Response(r)]})
	}
	return out, nil
}

// RespEdge is one (response, successor local state) transition of a
// process's local state machine.
type RespEdge struct {
	Resp spec.Response
	Next string
}
