// Quickstart: define a custom shared object type, analyze it on the
// concurrent engine, and read off its position in Herlihy's consensus
// hierarchy and Golab's recoverable consensus hierarchy.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"runtime"

	"repro"
)

func main() {
	// A "fetch-and-double" object over Z_7: FAD returns the old value and
	// doubles it mod 7; Read returns the current value. Is it stronger
	// than a register? Can it survive crash-recovery?
	b := repro.NewType("fetch-and-double[7]")
	names := make([]string, 7)
	for i := range names {
		names[i] = fmt.Sprintf("%d", i)
	}
	b.Values(names...)
	b.Ops("FAD", "read")
	for v := 0; v < 7; v++ {
		b.Transition(names[v], "FAD", repro.Response(v), names[(2*v)%7])
	}
	b.ReadOp("read", 100)
	fad, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// One engine, many workloads: level checks for all three types run
	// concurrently on a worker pool, and every sub-decision is memoized.
	eng := repro.New(
		repro.WithParallelism(runtime.NumCPU()),
		repro.WithMaxN(5),
	)
	x4, err := eng.Resolve("x4") // registry descriptors work too
	if err != nil {
		log.Fatal(err)
	}
	analyses, err := eng.AnalyzeAll([]*repro.Type{fad, repro.TestAndSet(), x4})
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range analyses {
		fmt.Println(a.Summary())
		fmt.Print(a.Spectrum())
		fmt.Println()
	}

	// Re-analyzing a type is ~free: the engine's cache already holds
	// every level decision.
	if _, err := eng.Analyze(fad); err != nil {
		log.Fatal(err)
	}
	hits, misses, _ := eng.Cache().Stats()
	fmt.Printf("cache after re-analysis: %d hits, %d misses\n\n", hits, misses)

	// The single-level deciders expose the witnesses behind the numbers
	// (served from the same cache).
	ok, w, err := eng.Discerning(fad, 2)
	if err != nil {
		log.Fatal(err)
	}
	if ok {
		fmt.Printf("fetch-and-double is 2-discerning: %s\n", w)
	}
	ok, _, err = eng.Recording(fad, 2)
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		fmt.Println("fetch-and-double is NOT 2-recording: like test-and-set and")
		fmt.Println("fetch-and-add, it loses its consensus power under crash-recovery")
		fmt.Println("(Theorem 14: recoverable consensus number 1).")
	}
}
