package model

import (
	"context"
	"fmt"

	"repro/internal/schedule"
)

// ChainStage is one stage of the Theorem 13 chain construction: a critical
// execution found from the stage's starting configuration, with its
// Observation 11 classification.
type ChainStage struct {
	// Start is the schedule (from the original initial configuration)
	// leading to this stage's starting configuration D_i.
	Start schedule.Schedule
	// Critical is the critical execution alpha_i found from D_i, and
	// Info its classification (so D'_i = D_i alpha_i).
	Info *CriticalInfo
}

// Chain is the result of the Theorem 13 construction: a sequence of
// stages ending, on success, in an n-recording configuration.
type Chain struct {
	Stages []ChainStage
	// Recording reports whether the final stage's configuration is
	// n-recording (the outcome Theorem 13 guarantees for correct
	// recoverable algorithms under the paper's execution sets).
	Recording bool
}

// Theorem13Chain mechanizes the proof of Theorem 13 (Figures 1 and 2):
// starting from a bivalent initial configuration, it repeatedly finds a
// critical execution, classifies the critical configuration per
// Observation 11, and applies the proof's move:
//
//   - n-recording: done — the chain ends (and the object's type is
//     n-recording, which is the theorem's conclusion);
//   - v-hiding: crash the processes on team v's forced suffix
//     (schedule lambda_k = c_k c_{k+1} ... c_{n-1} for the largest k with
//     p_k..p_{n-1} on team v) and continue from the resulting
//     configuration (Figure 2);
//   - colliding: take p_{n-1}'s step and crash it (Figure 1's
//     D_1 = D'_0 p_{n-1} c_{n-1} move) and continue.
//
// Exploration is performed with the given per-stage crash quota (the
// engine's bounded analogue of the paper's E*_1 sets). The construction
// stops after at most procs stages, mirroring the paper's bound l <= n-1.
//
// For a correct recoverable algorithm the chain is expected to end in an
// n-recording configuration; for wait-free-only algorithms it may end
// colliding (see Experiment E6), which is exactly why such algorithms are
// not crash-tolerant. Theorem13Chain builds one graph for pr and inputs
// and runs Graph.Theorem13 on it.
func Theorem13Chain(pr Protocol, inputs []int, quota []int) (*Chain, error) {
	g, err := NewGraph(pr, inputs)
	if err != nil {
		return &Chain{}, err
	}
	return g.Theorem13(quota, ChainOpts{})
}

// ChainOpts configures a Theorem 13 chain.
type ChainOpts struct {
	// Ctx, when non-nil, cancels the per-stage explorations.
	Ctx context.Context
	// MaxNodes bounds each stage's exploration (0 means DefaultMaxNodes).
	MaxNodes int
	// OnStage, when non-nil, is invoked after each stage is classified —
	// the engine's progress hook.
	OnStage func(stage int, info *CriticalInfo)
}

// Theorem13 runs the Theorem 13 chain (see Theorem13Chain) on g, with
// cancellation, a per-stage node bound and a stage progress hook. Every
// stage is a StartTrace walk of g, so an L-stage chain expands the
// overlapping per-stage state spaces once, not L times, and a chain on a
// warm graph (the engine's cached one) expands nothing.
func (g *Graph) Theorem13(quota []int, o ChainOpts) (*Chain, error) {
	return theorem13(g.m.n, g.inputs, quota, o, g.Check)
}

// theorem13 is the chain loop over n processes; check explores one
// stage.
func theorem13(n int, inputs, quota []int, o ChainOpts, check func(CheckOpts) (*Result, error)) (*Chain, error) {
	chain := &Chain{}
	prefix := schedule.Schedule{}
	for stage := 0; stage <= n; stage++ {
		res, err := check(CheckOpts{
			Ctx:          o.Ctx,
			Inputs:       inputs,
			CrashQuota:   quota,
			StartTrace:   prefix,
			MaxNodes:     o.MaxNodes,
			SkipLiveness: true,
		})
		if err != nil {
			return chain, err
		}
		info, err := FindCritical(res)
		if err != nil {
			return chain, fmt.Errorf("stage %d: %w", stage, err)
		}
		chain.Stages = append(chain.Stages, ChainStage{Start: prefix, Info: info})
		if o.OnStage != nil {
			o.OnStage(stage, info)
		}

		switch info.Class {
		case "n-recording":
			chain.Recording = true
			return chain, nil
		case "0-hiding", "1-hiding":
			v := int(info.Class[0] - '0')
			// Find the largest suffix p_k..p_{n-1} entirely on team v and
			// crash it (lambda_k). Crashing team-v processes is the
			// Figure 2 move D_i = D'_{i-1} lambda_{n-i}.
			k := n - 1
			for k > 0 && info.Teams[k-1] == v {
				k--
			}
			if k == 0 {
				// The whole system is on one team — cannot happen at a
				// bivalent critical configuration (Lemma 7).
				return chain, fmt.Errorf("stage %d: all processes on team %d", stage, v)
			}
			lambda := schedule.Schedule{}
			for p := k; p < n; p++ {
				lambda = lambda.Append(schedule.Crash(p))
			}
			prefix = prefix.Concat(info.Trace).Concat(lambda)
		case "colliding":
			// Figure 1's move: step p_{n-1}, then crash it.
			prefix = prefix.Concat(info.Trace).
				Append(schedule.Step(n-1), schedule.Crash(n-1))
		default:
			return chain, fmt.Errorf("stage %d: unknown class %q", stage, info.Class)
		}
	}
	return chain, nil
}

// String renders the chain for reports.
func (c *Chain) String() string {
	out := ""
	for i, s := range c.Stages {
		out += fmt.Sprintf("stage %d: start=[%s] critical=[%s] class=%s teams=%v\n",
			i, s.Start, s.Info.Trace, s.Info.Class, s.Info.Teams)
	}
	if c.Recording {
		out += "chain reached an n-recording configuration (Theorem 13)\n"
	} else {
		out += "chain did not reach an n-recording configuration\n"
	}
	return out
}
