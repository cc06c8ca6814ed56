// Command statemachine renders the state machine of a type, either as a
// textual transition table or as Graphviz DOT. It regenerates Figure 3 of
// the paper:
//
//	statemachine tnn:5,2          # the state machine in Figure 3, as text
//	statemachine -dot tnn:5,2     # the same as DOT (render with graphviz)
//	statemachine -json t.json     # a hand-written JSON type
//	statemachine -batch types.txt -analyze   # many types, one engine run
//	statemachine -check reqs.json            # one model-check batch
//
// With -export, the type itself is written as JSON (round-trippable with
// rcnum -json). With -analyze, each type's hierarchy summary (computed on
// the engine, honoring -parallel/-timeout/-progress) is appended.
//
// -batch reads additional type descriptors from a file ("-" for stdin),
// one per line (blank lines and #-comments skipped), and — combined with
// -analyze — analyzes every type in one flat engine pool run, so the
// level checks of all types interleave across workers and shared
// sub-decisions collapse in the cache, instead of each type serializing
// behind the previous one.
//
// -check reads a reprod POST /v1/check body, such as {"protocol":
// "cas-rec:2","requests":[{"inputs":[0,1],"crashQuota":[1,1]}]}, runs it
// through the service's check path (serve.RunCheckBatch, with no batch
// limit or node ceiling) and prints the reply /v1/check gives, indented.
// A protocolFingerprint names a protocol registered with a reprod server,
// so it needs one: this tool has no protocol registry.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/registry"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "statemachine:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("statemachine", flag.ContinueOnError)
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of text")
	export := fs.Bool("export", false, "emit the type as JSON")
	jsonFile := fs.String("json", "", "load the type from a JSON specification file")
	list := fs.Bool("list", false, "list registered type descriptors")
	analyze := fs.Bool("analyze", false, "append the type's hierarchy summary")
	batch := fs.String("batch", "", "read type descriptors from this file, one per line (\"-\" = stdin); with -analyze, all types run in one engine pass")
	check := fs.String("check", "", "read a POST /v1/check body (JSON: {\"protocol\":...,\"requests\":[...]}) from this file (\"-\" = stdin) and print the service's reply")
	ef := cli.AddEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Print(registry.Help())
		return nil
	}

	eng, cleanup, err := ef.Engine()
	if err != nil {
		return err
	}
	defer cleanup()

	if *check != "" {
		if err := runCheck(eng, *check); err != nil {
			return err
		}
		ef.Summary(eng.Cache())
		return nil
	}

	var types []*repro.Type
	if *jsonFile != "" {
		data, err := os.ReadFile(*jsonFile)
		if err != nil {
			return err
		}
		var ft repro.Type
		if err := json.Unmarshal(data, &ft); err != nil {
			return fmt.Errorf("parse %s: %w", *jsonFile, err)
		}
		types = append(types, &ft)
	}
	descs := fs.Args()
	if *batch != "" {
		batchDescs, err := readBatchDescriptors(*batch)
		if err != nil {
			return err
		}
		descs = append(descs, batchDescs...)
	}
	for _, desc := range descs {
		ft, err := eng.Resolve(desc)
		if err != nil {
			return err
		}
		types = append(types, ft)
	}
	if len(types) == 0 {
		return fmt.Errorf("no types given (try: statemachine -list)")
	}

	// One flat pool run for every type's level checks: small types do not
	// serialize behind large ones, and duplicate descriptors collapse in
	// the cache.
	var analyses []*repro.Analysis
	if *analyze {
		var err error
		analyses, err = eng.AnalyzeAll(types)
		if err != nil {
			return err
		}
	}

	for i, ft := range types {
		switch {
		case *export:
			data, err := json.MarshalIndent(ft, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(data))
		case *dot:
			fmt.Print(ft.Dot())
		default:
			fmt.Print(ft.TransitionTable())
		}
		if *analyze {
			fmt.Println(analyses[i].Summary())
		}
	}
	ef.Summary(eng.Cache())
	return nil
}

// runCheck runs a -check body; per-item errors land in their item, not
// the exit status.
func runCheck(eng *repro.Engine, path string) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("-check: %w", err)
		}
		defer f.Close()
		r = f
	}
	var body serve.CheckRequestBody
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		return fmt.Errorf("-check: parse %s: %w", path, err)
	}
	if err := body.Validate(0); err != nil {
		return fmt.Errorf("-check: %w", err)
	}
	if body.ProtocolFingerprint != "" {
		return fmt.Errorf("-check: protocolFingerprint names a protocol registered with a reprod server; this tool has no protocol registry")
	}
	pr, err := eng.ResolveProtocol(body.Protocol)
	if err != nil {
		return fmt.Errorf("-check: %w", err)
	}
	resp, err := serve.RunCheckBatch(context.Background(), eng, pr, body.Protocol, body.Requests, 0)
	if err != nil {
		return fmt.Errorf("-check: %w", err)
	}
	data, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// readBatchDescriptors loads a -batch file: one type descriptor per
// line, with blank lines and #-comments skipped.
func readBatchDescriptors(path string) ([]string, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("-batch: %w", err)
		}
		defer f.Close()
		r = f
	}
	var out []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("-batch: %w", err)
	}
	return out, nil
}
