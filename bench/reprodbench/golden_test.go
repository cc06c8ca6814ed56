package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/registry"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from core.Analyze and model.Check")

// computeGolden derives every pool answer from the reference
// implementations: the recursive level deciders behind core.Analyze and
// the model checker, with no server, engine or cache in between.
func computeGolden(t *testing.T) *golden {
	g := &golden{MaxN: 5}
	pool := typePool()
	g.Analyze = make([]typeAnswer, len(pool))
	var wg sync.WaitGroup
	work := make(chan int)
	errs := make([]error, len(pool))
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				ty, err := registry.Parse(pool[i])
				if err != nil {
					errs[i] = err
					continue
				}
				a, err := core.Analyze(ty, g.MaxN)
				if err != nil {
					errs[i] = err
					continue
				}
				g.Analyze[i] = typeAnswer{
					Type:                       pool[i],
					ConsensusNumber:            core.LevelString(a.ConsensusNumber, g.MaxN),
					RecoverableConsensusNumber: core.LevelString(a.RecoverableConsensusNumber, g.MaxN),
				}
			}
		}()
	}
	for i := range pool {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", pool[i], err)
		}
	}

	ps, err := pairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		pr, err := registry.ParseProtocol(p.protocol)
		if err != nil {
			t.Fatal(err)
		}
		opts := model.CheckOpts{Inputs: p.inputs, CrashQuota: make([]int, len(p.inputs))}
		for i := range opts.CrashQuota {
			opts.CrashQuota[i] = crashQuota
		}
		res, err := model.Check(pr, opts)
		if err != nil {
			t.Fatalf("%s %v: %v", p.protocol, p.inputs, err)
		}
		kinds := []string{}
		for _, v := range res.Violations {
			kinds = append(kinds, v.Kind)
		}
		g.Check = append(g.Check, checkAnswer{Protocol: p.protocol, Inputs: p.inputs, Quota: crashQuota,
			OK: res.OK(), Kinds: kinds, Nodes: res.Nodes})
	}
	return g
}

// TestGoldenMatchesReference recomputes testdata/golden.json and diffs
// it, so the answers the benchmark checks replies against cannot rot.
// Run with -update to rewrite the file.
func TestGoldenMatchesReference(t *testing.T) {
	want := computeGolden(t)
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile("testdata/golden.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if bytes.Equal(data, goldenJSON) {
		return
	}
	have, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range want.Analyze {
		if h, ok := have.types[a.Type]; !ok || *h != a {
			t.Errorf("type %s: golden file has %+v, reference computes %+v", a.Type, h, a)
		}
	}
	for _, c := range want.Check {
		h, ok := have.checks[checkKey(c.Protocol, c.Inputs, c.Quota)]
		if !ok {
			t.Errorf("check %s %v quota %d: missing from the golden file", c.Protocol, c.Inputs, c.Quota)
			continue
		}
		hb, _ := json.Marshal(h)
		cb, _ := json.Marshal(c)
		if !bytes.Equal(hb, cb) {
			t.Errorf("check %s %v quota %d: golden file has %s, reference computes %s", c.Protocol, c.Inputs, c.Quota, hb, cb)
		}
	}
	t.Errorf("testdata/golden.json differs from the reference answers; rerun with -update if the change is intended")
}
