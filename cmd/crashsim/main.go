// Command crashsim runs the paper's consensus algorithms on the
// concurrent crash-recovery runtime under a configurable adversary and
// reports the schedule, decisions and statistics.
//
// Usage:
//
//	crashsim -algo tnn -n 5 -nprime 3 -procs 3 -seeds 100 -crash 0.4
//	crashsim -algo cas -procs 4 -adversary storm
//	crashsim -algo tas -procs 2 -redecide     # Golab's separation, live
//	crashsim -algo tnn -seeds 5000 -parallel 8 -timeout 1m
//
// Adversaries: rr (round-robin, crash-free), random (seeded, -crash
// probability), storm (deterministic crash bursts), budget (the paper's
// E*_z discipline). Seeds are independent, so the sweep runs on a worker
// pool (-parallel); output stays in seed order regardless of width.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/adversary"
	"repro/internal/algo"
	"repro/internal/cli"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "crashsim:", err)
		os.Exit(1)
	}
}

// seedResult is one seed's aggregated outcome, rendered later in order.
type seedResult struct {
	steps, crashes int
	violation      bool
	flips          int
	output         string
	err            error
}

func run(args []string) error {
	fs := flag.NewFlagSet("crashsim", flag.ContinueOnError)
	algoName := fs.String("algo", "tnn", "algorithm: tnn | cas | tas")
	n := fs.Int("n", 5, "T_{n,n'} parameter n (tnn only)")
	nPrime := fs.Int("nprime", 3, "T_{n,n'} parameter n' (tnn only)")
	procs := fs.Int("procs", 3, "number of processes")
	seeds := fs.Int("seeds", 50, "number of adversary seeds to run")
	crashProb := fs.Float64("crash", 0.3, "crash probability (random/budget adversaries)")
	maxCrashes := fs.Int("maxcrashes", 4, "max crashes per process (random adversary)")
	advName := fs.String("adversary", "random", "adversary: rr | random | storm | budget")
	verbose := fs.Bool("v", false, "print every run's schedule")
	redecide := fs.Bool("redecide", false, "after each run, crash every process post-decision and re-run solo")
	ef := cli.AddEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// crashsim simulates algorithms; it runs no level decisions, so
	// -cache-file has nothing to persist here.
	if ef.CacheFile != "" {
		fmt.Fprintln(os.Stderr, "crashsim: note: -cache-file ignored (no level decisions to persist)")
	}

	var a *algo.Algorithm
	switch *algoName {
	case "tnn":
		if *nPrime >= *n || *nPrime < 1 {
			return fmt.Errorf("need n > n' >= 1")
		}
		if *procs > *nPrime {
			fmt.Printf("note: procs=%d exceeds n'=%d — the paper predicts failures\n",
				*procs, *nPrime)
		}
		a = algo.TnnRecoverable(*n, *nPrime)
	case "cas":
		a = algo.CASRecoverable()
	case "tas":
		if *procs != 2 {
			return fmt.Errorf("the tas algorithm is for exactly 2 processes")
		}
		a = algo.TASConsensus()
	default:
		return fmt.Errorf("unknown algorithm %q", *algoName)
	}

	newAdv := func(seed int64) sim.Adversary {
		switch *advName {
		case "rr":
			return &adversary.RoundRobin{}
		case "random":
			return adversary.NewRandom(seed, *crashProb, *maxCrashes)
		case "storm":
			targets := make([]int, *procs)
			for p := range targets {
				targets[p] = p
			}
			return &adversary.CrashStorm{Targets: targets, Times: *maxCrashes}
		case "budget":
			return adversary.NewBudgeted(seed, *procs, 1, *crashProb)
		default:
			return nil
		}
	}
	if newAdv(0) == nil {
		return fmt.Errorf("unknown adversary %q", *advName)
	}

	ctx, cancel := ef.Context()
	defer cancel()

	// Seeds are independent; sweep them on a worker pool and render the
	// collected per-seed output in seed order afterwards.
	runSeed := func(seed int64) seedResult {
		var r seedResult
		var b strings.Builder
		inputs := make([]int, *procs)
		for p := range inputs {
			inputs[p] = int(seed>>uint(p)) & 1
		}
		programs := make([]sim.Program, *procs)
		for p := range programs {
			programs[p] = a.Program(p)
		}
		res, err := sim.Run(a.Cells, programs, inputs, newAdv(seed), sim.Options{})
		if err != nil {
			r.err = fmt.Errorf("seed %d: %w", seed, err)
			return r
		}
		r.steps = res.Steps
		r.crashes = res.Crashes
		if *verbose {
			fmt.Fprintf(&b, "seed %-4d inputs %v: %s\n", seed, inputs, trace.Summary(res.Schedule))
			b.WriteString(trace.Render(res.Schedule, nil, res.Decisions))
		}
		if err := res.VerifyConsensus(inputs); err != nil {
			r.violation = true
			fmt.Fprintf(&b, "seed %-4d inputs %v: VIOLATION: %v\n", seed, inputs, err)
			fmt.Fprintf(&b, "  schedule: %s\n", res.Schedule)
		}
		if *redecide {
			for p := 0; p < *procs; p++ {
				if re := sim.RunSolo(res.Store, a.Program(p), p, inputs[p]); re != res.Decisions[p] {
					r.flips++
					fmt.Fprintf(&b, "seed %-4d: p%d decided %d, re-decided %d after crash-after-decide\n",
						seed, p, res.Decisions[p], re)
				}
			}
		}
		r.output = b.String()
		return r
	}

	if *seeds < 0 {
		*seeds = 0
	}
	// Stream results in seed order as the pool advances: a completed
	// seed is parked only until every earlier seed has printed, so
	// memory is bounded by the out-of-order window rather than the
	// whole sweep, and a violation at seed 3 is visible while late
	// seeds are still running.
	var (
		mu                                          sync.Mutex
		pending                                     = make(map[int]seedResult)
		next                                        int
		totalSteps, totalCrashes, violations, flips int
	)
	progressEvery := *seeds / 10
	if progressEvery < 1 {
		progressEvery = 1
	}
	finish := func(i int, r seedResult) {
		mu.Lock()
		defer mu.Unlock()
		pending[i] = r
		for {
			r, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			next++
			if r.output != "" {
				fmt.Print(r.output)
			}
			totalSteps += r.steps
			totalCrashes += r.crashes
			if r.violation {
				violations++
			}
			flips += r.flips
			if ef.Progress && next%progressEvery == 0 {
				fmt.Fprintf(os.Stderr, "crashsim: %d/%d seeds done (%d violations)\n",
					next, *seeds, violations)
			}
		}
	}
	ran, err := pool.Run(ctx, *seeds, ef.Parallel, func(i int) error {
		r := runSeed(int64(i))
		if r.err != nil {
			return r.err
		}
		finish(i, r)
		return nil
	})
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil && ran < *seeds {
		fmt.Printf("note: stopped after %d/%d seeds (%v)\n", ran, *seeds, err)
	}
	fmt.Printf("\n%s, %d procs, %d seeds (%s adversary): %d steps, %d crashes, %d violations",
		a.Name, *procs, ran, *advName, totalSteps, totalCrashes, violations)
	if *redecide {
		fmt.Printf(", %d re-decision flips", flips)
	}
	fmt.Println()
	if violations > 0 || flips > 0 {
		os.Exit(2)
	}
	return nil
}
