package model_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/protodef"
	"repro/internal/registry"
)

// snapshotProtocols is the property-test corpus: all five registry
// protocols plus seeded random protodef descriptors. Every entry must
// satisfy the snapshot contract — export/import round-trips
// byte-identically and an imported graph walks exactly like the fresh
// expansion it was exported from.
func snapshotProtocols(t *testing.T) []struct {
	name string
	pr   model.Protocol
} {
	t.Helper()
	var out []struct {
		name string
		pr   model.Protocol
	}
	for _, desc := range []string{"tnn-wf:3,2", "tnn-rec:3,2,2", "cas-wf:2", "cas-rec:2", "tas-reg"} {
		pr, err := registry.ParseProtocol(desc)
		if err != nil {
			t.Fatalf("registry %q: %v", desc, err)
		}
		out = append(out, struct {
			name string
			pr   model.Protocol
		}{desc, pr})
	}
	for seed := int64(1); seed <= 4; seed++ {
		pr := randomProtocol(t, seed)
		out = append(out, struct {
			name string
			pr   model.Protocol
		}{fmt.Sprintf("protodef-seed-%d", seed), pr})
	}
	return out
}

// randomProtocol compiles a small random protodef descriptor: a random
// total transition table over a few values and operations, and a shared
// machine mixing apply states (random successor wiring via the "*"
// fallback) with decide states. Every descriptor compiles because the
// fallback makes the successor map total by construction.
func randomProtocol(t *testing.T, seed int64) model.Protocol {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nVals := 2 + rng.Intn(2)
	nOps := 1 + rng.Intn(2)
	nResps := 2
	td := protodef.TypeDef{Name: "T"}
	for v := 0; v < nVals; v++ {
		td.Values = append(td.Values, fmt.Sprintf("v%d", v))
	}
	for o := 0; o < nOps; o++ {
		op := protodef.OpDef{Name: fmt.Sprintf("op%d", o)}
		for v := 0; v < nVals; v++ {
			op.Transitions = append(op.Transitions, protodef.TransitionDef{
				From: td.Values[v],
				Resp: fmt.Sprintf("r%d", rng.Intn(nResps)),
				To:   td.Values[rng.Intn(nVals)],
			})
		}
		td.Ops = append(td.Ops, op)
	}

	nApply := 2 + rng.Intn(3)
	var names []string
	for s := 0; s < nApply; s++ {
		names = append(names, fmt.Sprintf("s%d", s))
	}
	names = append(names, "d0", "d1")
	m := protodef.MachineDef{Init: []string{names[0], names[1%nApply]}}
	for s := 0; s < nApply; s++ {
		m.States = append(m.States, protodef.StateDef{
			Name:  names[s],
			Apply: &protodef.ApplyDef{Obj: 0, Op: td.Ops[rng.Intn(nOps)].Name},
			Next:  map[string]string{"*": names[rng.Intn(len(names))]},
		})
	}
	d0, d1 := 0, 1
	m.States = append(m.States,
		protodef.StateDef{Name: "d0", Decide: &d0},
		protodef.StateDef{Name: "d1", Decide: &d1},
	)

	d := &protodef.Descriptor{
		Name:     fmt.Sprintf("random-%d", seed),
		Procs:    2 + rng.Intn(2),
		Types:    []protodef.TypeDef{td},
		Objects:  []protodef.ObjectDef{{Type: "T", Init: td.Values[0]}},
		Machines: []protodef.MachineDef{m},
	}
	pr, err := protodef.Compile(d)
	if err != nil {
		t.Fatalf("seed %d: compile random descriptor: %v", seed, err)
	}
	return pr
}

func altInputs(n int) []int {
	in := make([]int, n)
	for p := range in {
		in[p] = p % 2
	}
	return in
}

// TestGraphSnapshotRoundTrip is the tentpole property test: for every
// corpus protocol, expand a graph by walking it, export, import into a
// fresh graph, and require (a) identical graph stats with zero new
// expansions on the imported side, (b) walk results byte-identical to
// the original's, and (c) a second export byte-identical to the first —
// the append-only store's byte-stability contract.
func TestGraphSnapshotRoundTrip(t *testing.T) {
	for _, tc := range snapshotProtocols(t) {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.pr.Procs()
			inputs := altInputs(n)
			quota := make([]int, n)
			quota[0] = 1
			optsList := []model.CheckOpts{
				{Inputs: inputs, MaxNodes: 200_000},
				{Inputs: inputs, CrashQuota: quota, MaxNodes: 200_000},
			}

			fresh, err := model.NewGraph(tc.pr, inputs)
			if err != nil {
				t.Fatal(err)
			}
			var want []checkObservables
			for _, opts := range optsList {
				r, err := fresh.Check(opts)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, observablesOf(r))
			}
			snap := fresh.Export()
			st := fresh.Stats()
			if uint64(len(snap.Nodes)) != st.Interned {
				t.Fatalf("snapshot has %d nodes, graph interned %d", len(snap.Nodes), st.Interned)
			}
			if uint64(snap.NumExpanded()) != st.Expanded {
				t.Fatalf("snapshot has %d expanded nodes, graph expanded %d", snap.NumExpanded(), st.Expanded)
			}

			warm, err := model.NewGraph(tc.pr, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := warm.ImportSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			wst := warm.Stats()
			if wst.Interned != st.Interned || wst.Expanded != st.Expanded || wst.Reused != 0 {
				t.Fatalf("imported stats %+v, want interned/expanded %d/%d and no reuse", wst, st.Interned, st.Expanded)
			}

			for i, opts := range optsList {
				r, err := warm.Check(opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := observablesOf(r); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("imported-graph walk %d diverged:\n got %+v\nwant %+v", i, got, want[i])
				}
			}
			after := warm.Stats()
			if after.Expanded != st.Expanded {
				t.Fatalf("walking the imported graph expanded %d new nodes",
					after.Expanded-st.Expanded)
			}
			if after.Interned != st.Interned {
				t.Fatalf("walking the imported graph interned %d new nodes",
					after.Interned-st.Interned)
			}

			if again := warm.Export(); !reflect.DeepEqual(again, snap) {
				t.Fatal("export -> import -> export is not byte-identical")
			}
		})
	}
}

// TestGraphSnapshotPartial exports before any walk (empty) and after a
// re-import re-expansion: unexpanded imported nodes must expand lazily
// into exactly the nodes the snapshot already names.
func TestGraphSnapshotPartial(t *testing.T) {
	pr, err := registry.ParseProtocol("cas-wf:2")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []int{0, 1}
	g, err := model.NewGraph(pr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	empty := g.Export()
	if len(empty.Nodes) != 0 {
		t.Fatalf("empty graph exported %d nodes", len(empty.Nodes))
	}
	g2, err := model.NewGraph(pr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.ImportSnapshot(empty); err != nil {
		t.Fatalf("importing an empty snapshot: %v", err)
	}

	opts := model.CheckOpts{Inputs: inputs, CrashQuota: []int{1, 1}}
	want, err := g.Check(opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Export()
	// Mark the tail of the snapshot unexpanded: a store that lost its
	// final pages serves exactly this shape.
	for i := len(snap.Nodes) / 2; i < len(snap.Nodes); i++ {
		nd := &snap.Nodes[i]
		nd.Done = false
		for p := range nd.StepSucc {
			nd.StepSucc[p] = -1
			nd.CrashSucc[p] = -1
		}
	}
	partial, err := model.NewGraph(pr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := partial.ImportSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	before := partial.Stats()
	if before.Expanded >= g.Stats().Expanded {
		t.Fatalf("partial import should carry fewer expansions: %+v", before)
	}
	got, err := partial.Check(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(observablesOf(got), observablesOf(want)) {
		t.Fatal("partial warm-load walk diverged from the fresh expansion")
	}
	if after := partial.Stats(); after.Interned != g.Stats().Interned {
		t.Fatalf("partial re-expansion interned %d nodes, fresh graph has %d",
			after.Interned, g.Stats().Interned)
	}
}

// TestGraphSnapshotImportErrors exercises the validation surface: every
// corrupted or mismatched snapshot must be rejected whole, for the
// reason the mutation plants, and a non-empty graph must refuse imports.
// Mutations of a record's words re-seal its check value, so the lane
// checks behind it are reached.
func TestGraphSnapshotImportErrors(t *testing.T) {
	pr, err := registry.ParseProtocol("cas-wf:2")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []int{0, 1}
	g, err := model.NewGraph(pr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Check(model.CheckOpts{Inputs: inputs, CrashQuota: []int{1, 1}}); err != nil {
		t.Fatal(err)
	}
	snap := g.Export()
	if model.NodeWords(2, 1) != 3 {
		t.Fatalf("cas-wf:2 packs into %d words, the lanes below assume 3", model.NodeWords(2, 1))
	}
	// Word 0 holds the state lanes (16 bits per process, lanes 2 and 3
	// padding), word 1 the value lane (lanes 1-3 padding), word 2 the
	// output lanes (8 bits per process, lanes 2-7 padding).
	setWords := func(nd *model.SnapshotNode, fn func(w []uint64)) {
		fn(nd.Words)
		nd.Check = model.HashWords(nd.Words)
	}
	// findSucc returns a done node and process whose successor of the
	// given kind is present (want >= 0) or absent (want < 0).
	findSucc := func(s *model.GraphSnapshot, crash bool, present bool) (*model.SnapshotNode, int) {
		for i := range s.Nodes {
			nd := &s.Nodes[i]
			if !nd.Done {
				continue
			}
			succ := nd.StepSucc
			if crash {
				succ = nd.CrashSucc
			}
			for p, si := range succ {
				if (si >= 0) == present {
					return nd, p
				}
			}
		}
		t.Fatalf("no done node with a present=%v crash=%v successor", present, crash)
		return nil, 0
	}

	fresh := func() *model.Graph {
		ng, err := model.NewGraph(pr, inputs)
		if err != nil {
			t.Fatal(err)
		}
		return ng
	}
	mutate := func(name, want string, fn func(s *model.GraphSnapshot)) {
		t.Helper()
		// Deep-copy so mutations never leak between cases.
		cp := *snap
		cp.Inputs = append([]int(nil), snap.Inputs...)
		cp.Nodes = make([]model.SnapshotNode, len(snap.Nodes))
		for i, nd := range snap.Nodes {
			c := nd
			c.Words = append([]uint64(nil), nd.Words...)
			c.StepSucc = append([]int32(nil), nd.StepSucc...)
			c.CrashSucc = append([]int32(nil), nd.CrashSucc...)
			cp.Nodes[i] = c
		}
		fn(&cp)
		err := fresh().ImportSnapshot(&cp)
		if err == nil {
			t.Errorf("%s: corrupted snapshot imported without error", name)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", name, err, want)
		}
	}

	mutate("flipped check value", "check value mismatch", func(s *model.GraphSnapshot) { s.Nodes[0].Check ^= 1 })
	mutate("state id beyond the closure", "beyond its", func(s *model.GraphSnapshot) {
		setWords(&s.Nodes[0], func(w []uint64) { w[0] |= 0xfff0 })
	})
	mutate("value lane out of range", "out of range", func(s *model.GraphSnapshot) {
		setWords(&s.Nodes[0], func(w []uint64) { w[1] = 99 })
	})
	mutate("nonzero state padding", "padding in state lane 2", func(s *model.GraphSnapshot) {
		setWords(&s.Nodes[0], func(w []uint64) { w[0] |= 1 << 40 })
	})
	mutate("nonzero value padding", "padding in value lane 1", func(s *model.GraphSnapshot) {
		setWords(&s.Nodes[0], func(w []uint64) { w[1] |= 1 << 20 })
	})
	mutate("nonzero output padding", "padding in output lane 2", func(s *model.GraphSnapshot) {
		setWords(&s.Nodes[0], func(w []uint64) { w[2] |= 1 << 20 })
	})
	mutate("negative output", "negative output", func(s *model.GraphSnapshot) {
		setWords(&s.Nodes[0], func(w []uint64) { w[2] = w[2]&^0xff | 0xfe })
	})
	mutate("wrong word count", "wrong field lengths", func(s *model.GraphSnapshot) {
		s.Nodes[0].Words = s.Nodes[0].Words[:2]
	})
	mutate("successor out of range", "out of", func(s *model.GraphSnapshot) {
		nd, p := findSucc(s, false, true)
		nd.StepSucc[p] = int32(len(s.Nodes)) + 1
	})
	mutate("step successor for a decided process", "decided process", func(s *model.GraphSnapshot) {
		nd, p := findSucc(s, false, false)
		nd.StepSucc[p] = 0
	})
	mutate("missing step successor", "missing step successor", func(s *model.GraphSnapshot) {
		nd, p := findSucc(s, false, true)
		nd.StepSucc[p] = -1
	})
	mutate("crash successor for an initial-state process", "initial-state process", func(s *model.GraphSnapshot) {
		nd, p := findSucc(s, true, false)
		nd.CrashSucc[p] = 0
	})
	mutate("missing crash successor", "missing crash successor", func(s *model.GraphSnapshot) {
		nd, p := findSucc(s, true, true)
		nd.CrashSucc[p] = -1
	})
	mutate("duplicate node", "duplicates", func(s *model.GraphSnapshot) {
		nd := s.Nodes[0]
		nd.Done = false
		nd.StepSucc = []int32{-1, -1}
		nd.CrashSucc = []int32{-1, -1}
		s.Nodes = append(s.Nodes, nd)
	})
	mutate("wrong inputs", "inputs", func(s *model.GraphSnapshot) { s.Inputs[0], s.Inputs[1] = 1, 0 })
	mutate("wrong shape", "shape", func(s *model.GraphSnapshot) { s.Procs++ })

	// The unmutated snapshot imports.
	if err := fresh().ImportSnapshot(snap); err != nil {
		t.Fatalf("pristine snapshot refused: %v", err)
	}
	// A graph that already interned nodes refuses imports.
	busy := fresh()
	if _, err := busy.Check(model.CheckOpts{Inputs: inputs}); err != nil {
		t.Fatal(err)
	}
	if err := busy.ImportSnapshot(snap); err == nil {
		t.Fatal("import into a non-empty graph should fail")
	}
}
