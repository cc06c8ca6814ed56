// Command xsearch hunts for readable types with the X_n signature of the
// paper's corollary: consensus number n, recoverable consensus number n-2
// (n-discerning, (n-2)-recording, not (n-1)-recording). The frozen types
// types.XFour and types.XFive were found with this tool.
//
// Usage:
//
//	xsearch -n 4 -attempts 5000 -sizes 5,6
//	xsearch -n 4 -sizes 5,6,7 -parallel 3 -timeout 2m
//	xsearch -n 4 -sizes 6 -cache-file xsweep.repro   # resumable sweep
//
// Value-set sizes are searched concurrently on a worker pool (-parallel);
// hits are printed in size order once the sweep finishes, and per-size
// attempt progress always streams to stderr. -timeout also interrupts
// in-flight searches (polled once per attempt). Signature checks run on
// a shared analysis engine, so -cache-file persists every level decision:
// re-running after an interruption (or with a larger -attempts) skips
// straight through the seeds already decided.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/pool"
	"repro/internal/xsearch"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "xsearch:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("xsearch", flag.ContinueOnError)
	n := fs.Int("n", 4, "target consensus number (the signature is cons=n, rcons=n-2); n >= 4")
	attempts := fs.Int("attempts", 5000, "number of random candidates per size")
	seedStart := fs.Int64("seed", 1, "first seed")
	sizesArg := fs.String("sizes", "5,6,7", "comma-separated value-set sizes to sample")
	all := fs.Bool("all", false, "keep searching after the first hit")
	ef := cli.AddEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 4 {
		return fmt.Errorf("need -n >= 4 (DFFR Theorem 5 pins cons via the signature only for n >= 4)")
	}
	var sizes []int
	for _, part := range strings.Split(*sizesArg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 3 {
			return fmt.Errorf("bad size %q", part)
		}
		sizes = append(sizes, v)
	}

	ctx, cancel := ef.Context()
	defer cancel()

	start := time.Now()
	var mu sync.Mutex

	// Sizes are independent sample spaces: sweep them on a worker pool
	// and render hits in size order. The search polls the context per
	// attempt, so a deadline also interrupts in-flight searches — and in
	// the default first-hit mode (-all=false) a size that finds a
	// candidate cancels the rest of the sweep, preserving the serial
	// code's early exit.
	sctx := ctx
	stopEarly := func() {}
	if !*all {
		var cancelSweep context.CancelFunc
		sctx, cancelSweep = context.WithCancel(ctx)
		defer cancelSweep()
		stopEarly = cancelSweep
	}
	// Signature checks run through one shared engine: its cache
	// deduplicates repeated candidates, its auto-sharding hands workers
	// left over after one per size to each candidate's big level checks,
	// and -cache-file persists every
	// decision so an interrupted or repeated sweep resumes across runs
	// instead of re-searching decided seeds. EngineOn keeps the engine
	// quiet — the sweep's own attempt progress is the tool's voice.
	eng, closeCache, err := ef.EngineOn(sctx)
	if err != nil {
		return err
	}
	defer closeCache()
	defer ef.Summary(eng.Cache())

	// Progress always streams to stderr, as it did before the engine
	// flags existed — long sweeps must not look hung. The shared
	// -progress flag is accepted for interface consistency. On
	// non-persistent sweeps the same beat caps the memo's memory:
	// random candidates have unique fingerprints with a near-zero
	// intra-run hit rate, so holding their decisions is pure cost and
	// the map is purged every interval. With -cache-file the map stays:
	// the warm-loaded entries ARE the resume (purging them would force
	// recomputation), and RAM then tracks the journal the user asked
	// for on disk.
	progressFor := func(sz int) func(done int) {
		return func(done int) {
			mu.Lock()
			fmt.Fprintf(os.Stderr, "size %d: %d/%d attempts (%s)\n",
				sz, done, *attempts, time.Since(start).Round(time.Millisecond))
			mu.Unlock()
			if ef.CacheFile == "" {
				eng.Cache().Purge()
			}
		}
	}
	hitsBySize := make([][]xsearch.Candidate, len(sizes))
	searched, err := pool.Run(sctx, len(sizes), ef.Parallel, func(i int) error {
		sz := sizes[i]
		var err error
		hitsBySize[i], err = xsearch.SearchDecider(sctx, eng, *n, *seedStart, *attempts,
			[]int{sz}, *attempts/4, progressFor(sz))
		if len(hitsBySize[i]) > 0 {
			stopEarly()
		}
		return err
	})
	if err != nil {
		return err
	}

	found := 0
	for _, hits := range hitsBySize[:searched] {
		for _, c := range hits {
			found++
			fmt.Printf("FOUND X%d candidate: seed=%d size=%d\n", *n, c.Seed, c.NumValues)
			fmt.Print(c.Type.TransitionTable())
			fmt.Println()
			if !*all {
				return nil
			}
		}
	}
	if err := ctx.Err(); err != nil {
		if searched < len(sizes) {
			fmt.Fprintf(os.Stderr, "xsearch: stopped after %d/%d sizes (%v)\n", searched, len(sizes), err)
		} else {
			fmt.Fprintf(os.Stderr, "xsearch: %v — in-flight sizes returned partial results\n", err)
		}
		if found == 0 {
			return fmt.Errorf("stopped by %v before any X%d candidate was found (the attempt budget was not exhausted)",
				err, *n)
		}
		return nil
	}
	if found == 0 {
		return fmt.Errorf("no X%d candidate in %d attempts per size (try more attempts or other sizes)",
			*n, *attempts)
	}
	return nil
}
