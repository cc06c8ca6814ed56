// Command rcnum analyzes shared object types: it decides the n-discerning
// and n-recording properties for a range of process counts and derives the
// type's consensus number and recoverable consensus number (exact for
// readable types, per Ruppert's theorem and Theorem 14 of the paper).
//
// Usage:
//
//	rcnum [-n maxN] [-parallel k] [-timeout 30s] [-progress] [-witness] [-json file] <type>...
//	rcnum -list
//
// Type descriptors come from the registry, e.g. "tas", "tnn:5,2", "x4",
// "product:tas,register:2". With -json, the type is loaded from a JSON
// specification file instead. Level checks for all requested types run
// concurrently on the engine's worker pool.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/decider"
	"repro/internal/registry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rcnum:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rcnum", flag.ContinueOnError)
	maxN := fs.Int("n", 5, "largest process count to check")
	witness := fs.Bool("witness", false, "print discerning/recording witnesses")
	list := fs.Bool("list", false, "list registered type descriptors")
	jsonFile := fs.String("json", "", "load a type from a JSON specification file")
	ef := cli.AddEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Print(registry.Help())
		return nil
	}
	if err := decider.CheckN(*maxN); err != nil {
		return fmt.Errorf("-n: %w", err)
	}

	eng, cleanup, err := ef.Engine(repro.WithMaxN(*maxN))
	if err != nil {
		return err
	}
	defer cleanup()

	var typs []*repro.Type
	if *jsonFile != "" {
		data, err := os.ReadFile(*jsonFile)
		if err != nil {
			return err
		}
		var ft repro.Type
		if err := json.Unmarshal(data, &ft); err != nil {
			return fmt.Errorf("parse %s: %w", *jsonFile, err)
		}
		typs = append(typs, &ft)
	}
	for _, desc := range fs.Args() {
		ft, err := eng.Resolve(desc)
		if err != nil {
			return err
		}
		typs = append(typs, ft)
	}
	if len(typs) == 0 {
		return fmt.Errorf("no types given (try: rcnum -list)")
	}

	analyses, err := eng.AnalyzeAll(typs)
	if err != nil {
		return err
	}
	for _, a := range analyses {
		fmt.Println(a.Summary())
		fmt.Print(a.Spectrum())
		if !a.Readable {
			fmt.Println("note: type is not readable; the numbers above are decider indicators,")
			fmt.Println("      not exact hierarchy positions (Theorem 14 needs readability).")
		}
		if *witness {
			for n := 2; n <= *maxN; n++ {
				if w := a.DiscerningWitness[n]; w != nil {
					fmt.Printf("  %d-discerning witness: %s\n", n, w)
				}
				if w := a.RecordingWitness[n]; w != nil {
					fmt.Printf("  %d-recording witness:  %s\n", n, w)
				}
			}
		}
		if err := a.CheckTheorem13Consistency(); err != nil {
			fmt.Printf("THEOREM CONSISTENCY VIOLATION: %v\n", err)
		}
		fmt.Println()
	}
	ef.Summary(eng.Cache())
	return nil
}
