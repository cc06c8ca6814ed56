package proto

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/record"
	"repro/internal/spec"
)

// TeamConsensus is the core mechanism of DFFR's Theorem 8 ("n-recording
// readable types solve recoverable consensus"), as a checkable protocol:
// given a readable type with an n-recording witness, the n processes
// agree on WHICH TEAM's operation was applied first.
//
// Each process p:
//
//	read the object:
//	  - value != u: decide team(value)  (the recording property makes the
//	    team function well defined on every reachable value)
//	  - value == u: apply o_p, then read again and decide team(value)
//
// Crash-recovery safety relies on u not being re-reachable by the witness
// operations (u not in U_0 nor U_1): then "read returned u" proves the
// process has not applied its own operation yet, so no operation is ever
// applied twice — the property the U sets' schedule set S(P) requires.
// NewTeamConsensus rejects witnesses without this guarantee.
//
// The decision is the team index (0 or 1). Full binary consensus
// additionally requires mapping teams back to input values, which is the
// part of DFFR's construction that lives in their paper; this protocol
// isolates the recording mechanism itself (Experiment E14 in
// `go run ./cmd/experiments -markdown`).
type TeamConsensus struct {
	ft      *spec.FiniteType
	witness *record.Witness
	readOp  spec.Op
	// teamOf[v] is the team whose first move can produce value v
	// (-1 for u itself and unreachable values).
	teamOf []int
}

var _ model.Protocol = (*TeamConsensus)(nil)

// NewTeamConsensus builds the protocol from a readable type and an
// n-recording witness for it. It fails if the type is not readable, the
// witness does not verify, or u is re-reachable (which would break
// at-most-once application under crashes).
func NewTeamConsensus(ft *spec.FiniteType, w *record.Witness) (*TeamConsensus, error) {
	if !ft.Readable() {
		return nil, fmt.Errorf("team consensus needs a readable type, %s is not", ft.Name())
	}
	reads := ft.ReadOps()

	// Recompute the U sets from the witness and derive the team map.
	teamOf := make([]int, ft.NumValues())
	for i := range teamOf {
		teamOf[i] = -1
	}
	n := w.N
	inSched := make([]bool, n)
	conflict := false
	var dfs func(v spec.Value, team int)
	dfs = func(v spec.Value, team int) {
		if teamOf[v] >= 0 && teamOf[v] != team {
			conflict = true
			return
		}
		teamOf[v] = team
		for p := 0; p < n; p++ {
			if inSched[p] {
				continue
			}
			inSched[p] = true
			dfs(ft.Apply(v, w.Ops[p]).Next, team)
			inSched[p] = false
		}
	}
	for f := 0; f < n; f++ {
		inSched[f] = true
		dfs(ft.Apply(w.U, w.Ops[f]).Next, w.Teams[f])
		inSched[f] = false
	}
	if conflict {
		return nil, fmt.Errorf("witness does not verify: U sets intersect")
	}
	if teamOf[w.U] >= 0 {
		return nil, fmt.Errorf(
			"u is re-reachable (u in U_%d): crash-safe at-most-once application is not guaranteed",
			teamOf[w.U])
	}
	return &TeamConsensus{ft: ft, witness: w, readOp: reads[0], teamOf: teamOf}, nil
}

func (t *TeamConsensus) Name() string {
	return fmt.Sprintf("team-consensus[%s,n=%d]", t.ft.Name(), t.witness.N)
}

func (t *TeamConsensus) Procs() int { return t.witness.N }

func (t *TeamConsensus) Objects() []model.ObjectSpec {
	return []model.ObjectSpec{{Type: t.ft, Init: t.witness.U}}
}

// Init ignores the input: the task is team agreement, not binary
// consensus on inputs.
func (t *TeamConsensus) Init(p, input int) string { return "read1" }

func (t *TeamConsensus) Poised(p int, state string) model.Action {
	if v, ok := parseDecided(state); ok {
		return model.Decide(v)
	}
	switch state {
	case "read1", "read2":
		return model.Apply(0, t.readOp)
	default: // "apply"
		return model.Apply(0, t.witness.Ops[p])
	}
}

func (t *TeamConsensus) Next(p int, state string, resp spec.Response) string {
	switch state {
	case "read1":
		v := t.valueOfReadResp(resp)
		if v == t.witness.U {
			return "apply"
		}
		return decidedState(t.teamOf[v])
	case "apply":
		return "read2"
	default: // "read2"
		v := t.valueOfReadResp(resp)
		if team := t.teamOf[v]; team >= 0 {
			return decidedState(team)
		}
		// Unreachable for a verified witness: after our own operation the
		// value is in U_0 or U_1. Decide our own team defensively.
		return decidedState(t.witness.Teams[p])
	}
}

// valueOfReadResp inverts the read operation's response to the value it
// identifies.
func (t *TeamConsensus) valueOfReadResp(resp spec.Response) spec.Value {
	for v := 0; v < t.ft.NumValues(); v++ {
		if t.ft.Apply(spec.Value(v), t.readOp).Resp == resp {
			return spec.Value(v)
		}
	}
	return 0
}

// Team reports the team of process p under the protocol's witness.
func (t *TeamConsensus) Team(p int) int { return t.witness.Teams[p] }
