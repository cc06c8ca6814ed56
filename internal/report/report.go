package report

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/spec"
)

// Analyzer computes a type's discerning/recording spectrum up to maxN.
// Both the serial reference (core.Analyze, the default) and the
// concurrent memoizing engine (engine.Engine) satisfy it; cmd tools
// inject an engine via PaperSuiteWith so experiments share its decision
// cache — including a -cache-file persistent one across runs.
type Analyzer interface {
	AnalyzeTo(t *spec.FiniteType, maxN int) (*core.Analysis, error)
}

// coreAnalyzer is the default Analyzer: the serial reference decider.
type coreAnalyzer struct{}

func (coreAnalyzer) AnalyzeTo(t *spec.FiniteType, maxN int) (*core.Analysis, error) {
	return core.Analyze(t, maxN)
}

// Outcome of one experiment.
type Outcome struct {
	// ID is the experiment identifier (E1..E11).
	ID string
	// Title summarizes the experiment.
	Title string
	// Claim is the paper's claim being reproduced.
	Claim string
	// Rows are the measured table rows (already formatted).
	Rows []string
	// Pass reports whether every measured row matched the claim.
	Pass bool
	// Skipped reports that the experiment never ran (the run context
	// was canceled before it started); Pass is false but the outcome is
	// not a reproduction failure.
	Skipped bool
	// Detail carries failure diagnostics.
	Detail string
}

// Experiment is one runnable reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Run   func() (rows []string, pass bool, detail string)
}

// Suite is an ordered collection of experiments.
type Suite struct {
	experiments []Experiment
}

// Add appends an experiment.
func (s *Suite) Add(e Experiment) { s.experiments = append(s.experiments, e) }

// IDs lists the registered experiment IDs in order.
func (s *Suite) IDs() []string {
	out := make([]string, len(s.experiments))
	for i, e := range s.experiments {
		out[i] = e.ID
	}
	return out
}

// RunAll executes every experiment (or only those whose ID is in filter,
// if filter is nonempty) and returns outcomes in registration order.
func (s *Suite) RunAll(filter []string) []Outcome {
	return s.RunAllOpts(context.Background(), filter, 1, nil)
}

// RunAllOpts is RunAll with cancellation, a worker pool, and an optional
// per-outcome progress hook: up to workers experiments run concurrently,
// outcomes still come back in registration order, and onDone (if
// non-nil) is called as each experiment finishes, serialized, in
// completion order. Cancellation is best-effort: an experiment already
// running when ctx fires completes normally, while experiments not yet
// started are reported as failed with the context error.
func (s *Suite) RunAllOpts(ctx context.Context, filter []string, workers int, onDone func(Outcome)) []Outcome {
	want := make(map[string]bool, len(filter))
	for _, id := range filter {
		want[strings.ToUpper(strings.TrimSpace(id))] = true
	}
	var selected []Experiment
	for _, e := range s.experiments {
		if len(want) > 0 && !want[strings.ToUpper(e.ID)] {
			continue
		}
		selected = append(selected, e)
	}
	out := make([]Outcome, len(selected))
	var doneMu sync.Mutex
	// Every index is fed (nil pool context): runOne itself converts a
	// canceled ctx into a "not run" outcome, so late experiments are
	// reported rather than silently dropped.
	pool.Run(nil, len(selected), workers, func(i int) error {
		e := selected[i]
		if err := ctx.Err(); err != nil {
			out[i] = Outcome{ID: e.ID, Title: e.Title, Claim: e.Claim,
				Pass: false, Skipped: true, Detail: fmt.Sprintf("not run: %v", err)}
		} else {
			rows, pass, detail := e.Run()
			out[i] = Outcome{ID: e.ID, Title: e.Title, Claim: e.Claim,
				Rows: rows, Pass: pass, Detail: detail}
		}
		if onDone != nil {
			doneMu.Lock()
			onDone(out[i])
			doneMu.Unlock()
		}
		return nil
	})
	return out
}

// Render formats outcomes as a text report.
func Render(outcomes []Outcome) string {
	var b strings.Builder
	passed, skipped := 0, 0
	for _, o := range outcomes {
		status := "PASS"
		switch {
		case o.Skipped:
			status = "SKIP"
			skipped++
		case !o.Pass:
			status = "FAIL"
		default:
			passed++
		}
		fmt.Fprintf(&b, "== %s: %s [%s]\n", o.ID, o.Title, status)
		fmt.Fprintf(&b, "   paper: %s\n", o.Claim)
		for _, row := range o.Rows {
			fmt.Fprintf(&b, "   %s\n", row)
		}
		if o.Detail != "" {
			fmt.Fprintf(&b, "   detail: %s\n", o.Detail)
		}
		b.WriteByte('\n')
	}
	if skipped > 0 {
		fmt.Fprintf(&b, "%d/%d experiments passed (%d skipped)\n",
			passed, len(outcomes)-skipped, skipped)
	} else {
		fmt.Fprintf(&b, "%d/%d experiments passed\n", passed, len(outcomes))
	}
	return b.String()
}

// Markdown formats outcomes as the markdown report cmd/experiments
// prints with -markdown.
func Markdown(outcomes []Outcome) string {
	var b strings.Builder
	for _, o := range outcomes {
		status := "PASS"
		switch {
		case o.Skipped:
			status = "SKIP"
		case !o.Pass:
			status = "FAIL"
		}
		fmt.Fprintf(&b, "### %s — %s (%s)\n\n", o.ID, o.Title, status)
		fmt.Fprintf(&b, "**Paper claim.** %s\n\n**Measured.**\n\n```\n", o.Claim)
		for _, row := range o.Rows {
			fmt.Fprintf(&b, "%s\n", row)
		}
		b.WriteString("```\n\n")
		if o.Detail != "" {
			fmt.Fprintf(&b, "_%s_\n\n", o.Detail)
		}
	}
	return b.String()
}

// SortByID orders outcomes E1 < E2 < ... < E10 (numeric suffix).
func SortByID(outcomes []Outcome) {
	num := func(id string) int {
		n := 0
		for _, c := range id {
			if c >= '0' && c <= '9' {
				n = n*10 + int(c-'0')
			}
		}
		return n
	}
	sort.SliceStable(outcomes, func(i, j int) bool {
		return num(outcomes[i].ID) < num(outcomes[j].ID)
	})
}
