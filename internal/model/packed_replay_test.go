package model_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/protogen"
	"repro/internal/schedule"
	"repro/internal/spec"
	"repro/internal/types"
)

// refNode is one node of the reference explorer: the pre-pack serial
// representation, where identity is the raw strings themselves.
type refNode struct {
	cfg    model.Config
	used   []int
	outs   []int8
	parent *refNode
	via    schedule.Event
	succ   []*refNode
}

// refKey is the string identity the pre-pack explorer dedups on —
// exactly the (configuration, crash-usage, output-history) triple, with
// no dictionaries, packing, or hashing anywhere.
func refKey(cfg model.Config, used []int, outs []int8) string {
	var b strings.Builder
	for _, s := range cfg.States {
		b.WriteString(s)
		b.WriteByte(0)
	}
	b.WriteByte(1)
	for _, v := range cfg.Vals {
		fmt.Fprintf(&b, "%d,", v)
	}
	b.WriteByte(1)
	for _, o := range outs {
		fmt.Fprintf(&b, "%d,", o)
	}
	b.WriteByte(1)
	for _, u := range used {
		fmt.Fprintf(&b, "%d,", u)
	}
	return b.String()
}

// refViolation mirrors model.Violation in comparable string form.
type refViolation struct {
	kind, trace, config, detail string
}

type refResult struct {
	nodes      int
	truncated  bool
	violations []refViolation
}

func refTrace(nd *refNode) schedule.Schedule {
	var rev []schedule.Event
	for cur := nd; cur.parent != nil; cur = cur.parent {
		rev = append(rev, cur.via)
	}
	out := make(schedule.Schedule, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// refCheck is an independent serial model checker sharing NO code with
// Graph.Check beyond the primitive transition functions: plain
// string-keyed map dedup, per-node Decision calls, recursion-free
// liveness DFS over a map, and the full safety check on every new node.
// It reproduces the checker's observable contract — BFS discovery
// order, first-witness-per-kind violations with identical detail
// strings, MaxNodes truncation, wait-freedom cycle detection — so any
// divergence from the packed-word graph is a packed-encoding bug, not a
// modeling choice. A nil validity selects the consensus default.
func refCheck(pr model.Protocol, inputs []int, quota []int, maxNodes int, validity func(int) bool) *refResult {
	n := pr.Procs()
	res := &refResult{}
	seen := [3]bool{}
	kindIdx := map[string]int{"agreement": 0, "validity": 1, "wait-freedom": 2}
	report := func(kind string, nd *refNode, detail string) {
		if seen[kindIdx[kind]] {
			return
		}
		seen[kindIdx[kind]] = true
		res.violations = append(res.violations, refViolation{
			kind: kind, trace: refTrace(nd).String(), config: nd.cfg.String(), detail: detail,
		})
	}
	valid := validity
	if valid == nil {
		valid = func(d int) bool {
			for _, in := range inputs {
				if d == in {
					return true
				}
			}
			return false
		}
	}
	decidedVec := func(cfg model.Config) []int8 {
		out := make([]int8, n)
		for p := 0; p < n; p++ {
			if v, ok := model.Decision(pr, cfg, p); ok {
				out[p] = int8(v)
			} else {
				out[p] = -1
			}
		}
		return out
	}
	merge := func(outs []int8, dec []int8) []int8 {
		copied := append([]int8(nil), outs...)
		for p, v := range dec {
			if v >= 0 && copied[p] == -1 {
				copied[p] = v
			}
		}
		return copied
	}
	checkSafety := func(nd *refNode, parentOuts []int8) {
		dec := decidedVec(nd.cfg)
		for p := 0; p < n; p++ {
			if v := dec[p]; v >= 0 {
				if prev := parentOuts[p]; prev >= 0 && prev != v {
					report("agreement", nd, fmt.Sprintf(
						"p%d output %d, crashed, and re-decided %d", p, prev, v))
				}
			}
		}
		first, firstP := -1, -1
		for p := 0; p < n; p++ {
			v := nd.outs[p]
			if v < 0 {
				continue
			}
			if !valid(int(v)) {
				report("validity", nd, fmt.Sprintf(
					"p%d decided %d, not an input of any process", p, v))
			}
			if first == -1 {
				first, firstP = int(v), p
			} else if int(v) != first {
				report("agreement", nd, fmt.Sprintf(
					"p%d decided %d but p%d decided %d", firstP, first, p, v))
			}
		}
	}

	fresh := make([]int8, n)
	for i := range fresh {
		fresh[i] = -1
	}
	rootCfg := model.InitialConfig(pr, inputs)
	root := &refNode{cfg: rootCfg, used: make([]int, n), outs: merge(fresh, decidedVec(rootCfg))}
	index := map[string]*refNode{refKey(root.cfg, root.used, root.outs): root}
	order := []*refNode{root}
	queue := []*refNode{root}
	checkSafety(root, fresh)
	count := 1
	for len(queue) > 0 && count <= maxNodes {
		nd := queue[0]
		queue = queue[1:]
		dec := decidedVec(nd.cfg)
		for p := 0; p < n; p++ {
			if dec[p] >= 0 {
				continue
			}
			next := model.Step(pr, nd.cfg, p)
			outs := merge(nd.outs, decidedVec(next))
			k := refKey(next, nd.used, outs)
			child := index[k]
			if child == nil {
				child = &refNode{cfg: next, used: nd.used, outs: outs,
					parent: nd, via: schedule.Step(p)}
				index[k] = child
				order = append(order, child)
				count++
				checkSafety(child, nd.outs)
				queue = append(queue, child)
			}
			nd.succ = append(nd.succ, child)
		}
		for p := 0; p < len(quota); p++ {
			if nd.used[p] >= quota[p] {
				continue
			}
			if nd.cfg.States[p] == pr.Init(p, inputs[p]) {
				continue
			}
			next := model.CrashProc(pr, nd.cfg, p, inputs[p])
			used := append([]int(nil), nd.used...)
			used[p]++
			k := refKey(next, used, nd.outs)
			if index[k] == nil {
				child := &refNode{cfg: next, used: used, outs: nd.outs,
					parent: nd, via: schedule.Crash(p)}
				index[k] = child
				order = append(order, child)
				count++
				checkSafety(child, nd.outs)
				queue = append(queue, child)
			}
		}
	}
	res.truncated = count > maxNodes
	res.nodes = count

	if !res.truncated {
		const (
			white = 0
			gray  = 1
			black = 2
		)
		color := make(map[*refNode]int, count)
		type frame struct {
			nd  *refNode
			idx int
		}
	sweep:
		for _, start := range order {
			if color[start] != white {
				continue
			}
			stack := []frame{{nd: start}}
			color[start] = gray
			for len(stack) > 0 {
				f := &stack[len(stack)-1]
				if f.idx < len(f.nd.succ) {
					child := f.nd.succ[f.idx]
					f.idx++
					switch color[child] {
					case white:
						color[child] = gray
						stack = append(stack, frame{nd: child})
					case gray:
						report("wait-freedom", child, fmt.Sprintf(
							"cycle of crash-free steps through %s: some process runs forever without deciding",
							child.cfg))
						break sweep
					}
					continue
				}
				color[f.nd] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return res
}

func compareToRef(t *testing.T, label string, res *model.Result, ref *refResult) {
	t.Helper()
	if res.Nodes != ref.nodes || res.Truncated != ref.truncated {
		t.Errorf("%s: nodes/truncated = (%d, %v), reference = (%d, %v)",
			label, res.Nodes, res.Truncated, ref.nodes, ref.truncated)
	}
	if len(res.Violations) != len(ref.violations) {
		t.Errorf("%s: %d violations, reference %d (%v vs %+v)",
			label, len(res.Violations), len(ref.violations), res.Violations, ref.violations)
		return
	}
	for i, v := range res.Violations {
		rv := ref.violations[i]
		if v.Kind != rv.kind || v.Trace.String() != rv.trace ||
			v.Config.String() != rv.config || v.Detail != rv.detail {
			t.Errorf("%s: violation %d = {%s %s %s %s}, reference {%s %s %s %s}",
				label, i, v.Kind, v.Trace, v.Config, v.Detail,
				rv.kind, rv.trace, rv.config, rv.detail)
		}
	}
}

// TestPackedCheckMatchesReplay is the packed-encoding property test:
// across the protogen corpus, Graph.Check on the packed-word,
// open-addressed graph must be byte-identical — node counts, truncation,
// violation kinds, traces, configurations and detail strings — to the
// pre-pack string-keyed serial replay, both on a cold graph and again on
// the same (now warm) graph.
func TestPackedCheckMatchesReplay(t *testing.T) {
	checkCorpusMatchesReplay(t, nil)
}

// TestPackedCheckCustomValidityMatchesReplay runs the corpus again under
// a validity predicate that is not the consensus default. The graph's
// edge flags describe the default check only, so every new child must
// take the full safety check; a walk that trusted the flags would miss
// each decision of 1, which the default accepts.
func TestPackedCheckCustomValidityMatchesReplay(t *testing.T) {
	checkCorpusMatchesReplay(t, func(d int) bool { return d == 0 })
}

func checkCorpusMatchesReplay(t *testing.T, validity func(int) bool) {
	const seeds = 120
	const maxNodes = 200_000
	for seed := uint64(0); seed < seeds; seed++ {
		a := protogen.Generate(seed)
		pr := a.Compiled
		ref := refCheck(pr, a.Inputs, a.CrashQuota, maxNodes, validity)

		g, err := model.NewGraph(pr, a.Inputs)
		if err != nil {
			t.Fatalf("seed %d: NewGraph: %v", seed, err)
		}
		opts := model.CheckOpts{Inputs: a.Inputs, CrashQuota: a.CrashQuota, MaxNodes: maxNodes, Validity: validity}
		cold, err := g.Check(opts)
		if err != nil {
			t.Fatalf("seed %d: cold Check: %v", seed, err)
		}
		compareToRef(t, fmt.Sprintf("seed %d cold", seed), cold, ref)
		warm, err := g.Check(opts)
		if err != nil {
			t.Fatalf("seed %d: warm Check: %v", seed, err)
		}
		compareToRef(t, fmt.Sprintf("seed %d warm", seed), warm, ref)
	}
}

// wideProto has more processes than a graph node has edge flags: p0 to
// p15 decide 0 at once, and p16 applies test-and-set and decides 0 if it
// won, 1 if it lost. Crashed and run again, p16 loses and re-decides 1
// against its earlier output 0. That is the protocol's only violation,
// and the edge that shows it is a step of p16, beyond the flag width.
type wideProto struct{ tas *spec.FiniteType }

func (w *wideProto) Name() string { return "wide" }
func (w *wideProto) Procs() int   { return 17 }
func (w *wideProto) Objects() []model.ObjectSpec {
	return []model.ObjectSpec{{Type: w.tas, Init: 0}}
}
func (w *wideProto) Init(p, input int) string {
	if p < 16 {
		return "done"
	}
	return "tas"
}
func (w *wideProto) Poised(p int, state string) model.Action {
	switch state {
	case "tas":
		return model.Apply(0, 0)
	case "lost":
		return model.Decide(1)
	}
	return model.Decide(0)
}
func (w *wideProto) Next(p int, state string, resp spec.Response) string {
	if resp == 0 {
		return "won"
	}
	return "lost"
}

// TestWideProtocolMatchesReplay checks that edges of processes beyond
// the edge-flag width take the full safety check: the violation
// wideProto exhibits must be found, cold and warm, exactly as the
// reference reports it.
func TestWideProtocolMatchesReplay(t *testing.T) {
	pr := &wideProto{tas: types.TestAndSet()}
	inputs := make([]int, pr.Procs())
	inputs[16] = 1
	quota := make([]int, pr.Procs())
	for p := range quota {
		quota[p] = 1
	}
	ref := refCheck(pr, inputs, quota, 1000, nil)
	if len(ref.violations) != 1 || !strings.HasPrefix(ref.violations[0].detail, "p16 output 0, crashed") {
		t.Fatalf("reference violations %+v, want only p16's re-decision", ref.violations)
	}
	g, err := model.NewGraph(pr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []string{"cold", "warm"} {
		res, err := g.Check(model.CheckOpts{Inputs: inputs, CrashQuota: quota, MaxNodes: 1000})
		if err != nil {
			t.Fatal(err)
		}
		compareToRef(t, run, res, ref)
	}
}
