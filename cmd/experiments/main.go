// Command experiments runs the reproduction suite E1..E15 (every figure,
// lemma and derived table of the paper the repository reproduces) and
// prints paper-vs-measured rows; -markdown prints the same outcomes as a
// markdown report, one section per experiment with its paper claim and
// measured rows.
//
// Usage:
//
//	experiments                # run everything, text report
//	experiments -only E4,E5    # a subset
//	experiments -markdown      # the markdown report
//	experiments -parallel 8    # run experiments on a worker pool
//	experiments -timeout 2m    # best-effort bound: skips experiments
//	                           # not yet started when the deadline fires
//	                           # (a running experiment finishes)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	only := fs.String("only", "", "comma-separated experiment IDs to run (default all)")
	markdown := fs.Bool("markdown", false, "emit markdown instead of text")
	ef := cli.AddEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var filter []string
	if *only != "" {
		filter = strings.Split(*only, ",")
	}
	ctx, cancel := ef.Context()
	defer cancel()

	// The analysis-heavy experiments run on an engine so their level
	// decisions are memoized across experiments — and, with -cache-file,
	// across runs: a repeated (or deadline-cut and retried) sweep reuses
	// every decision already persisted. EngineOn keeps the engine quiet:
	// the suite's own per-experiment progress is the tool's voice.
	eng, closeCache, err := ef.EngineOn(ctx)
	if err != nil {
		return err
	}
	defer closeCache()
	defer ef.Summary(eng.Cache())

	var onDone func(report.Outcome)
	if ef.Progress {
		onDone = func(o report.Outcome) {
			status := "PASS"
			switch {
			case o.Skipped:
				status = "SKIP"
			case !o.Pass:
				status = "FAIL"
			}
			fmt.Fprintf(os.Stderr, "experiments: %s done [%s]\n", o.ID, status)
		}
	}
	outcomes := report.PaperSuiteWith(eng).RunAllOpts(ctx, filter, ef.Parallel, onDone)
	if len(outcomes) == 0 {
		return fmt.Errorf("no experiments matched %q (have %v)",
			*only, report.PaperSuite().IDs())
	}
	report.SortByID(outcomes)
	if *markdown {
		fmt.Print(report.Markdown(outcomes))
	} else {
		fmt.Print(report.Render(outcomes))
	}
	skipped := 0
	for _, o := range outcomes {
		if o.Skipped {
			skipped++
			continue
		}
		if !o.Pass {
			return fmt.Errorf("experiment %s failed", o.ID)
		}
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) skipped (deadline); the ones that ran all passed\n", skipped)
	}
	return nil
}
