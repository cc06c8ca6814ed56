package protogen

import (
	"fmt"

	"repro/internal/protodef"
	"repro/internal/spec"
)

// Artifact is one generated test case: a descriptor with its compiled
// protocol plus the per-process inputs and crash quota a model-checking
// sweep should run it under. Everything is a pure function of Seed.
type Artifact struct {
	// Seed reproduces the artifact via Generate(Seed).
	Seed uint64
	// Descriptor is the generated protocol definition.
	Descriptor *protodef.Descriptor
	// Compiled is Descriptor compiled; Generate panics if compilation
	// fails, so a non-nil Artifact always carries a runnable protocol.
	Compiled *protodef.Compiled
	// Inputs is one binary input per process.
	Inputs []int
	// CrashQuota bounds each process's crashes; nil means a crash-free
	// variant (roughly half of all seeds).
	CrashQuota []int
}

// Types returns the distinct object types of the compiled protocol, in
// object order. These are the inputs the level deciders consume.
func (a *Artifact) Types() []*spec.FiniteType {
	var out []*spec.FiniteType
	seen := make(map[*spec.FiniteType]bool)
	for _, o := range a.Compiled.Objects() {
		if !seen[o.Type] {
			seen[o.Type] = true
			out = append(out, o.Type)
		}
	}
	return out
}

// rng is splitmix64: tiny, fast, and stable across Go releases — the
// generated corpus must not shift when the standard library's PRNG
// does.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). n must be positive. The modulo bias is
// irrelevant here: n is always tiny relative to 2^64.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// pick returns a uniformly chosen element of xs.
func (r *rng) pick(xs []string) string { return xs[r.intn(len(xs))] }

// respPool is the shared response-name pool. It is deliberately small so
// distinct operations (and distinct types) frequently reuse a name:
// response interning and cross-op response collisions are exactly where
// a level decider can go wrong.
var respPool = []string{"ack", "zero", "one", "old", "hit"}

// Generate builds the artifact for seed. It is deterministic and total:
// every seed yields a descriptor that compiles. A compile failure is a
// generator bug and panics rather than returning an error, so callers
// (tests, fuzz targets) never need a can't-happen error path.
func Generate(seed uint64) *Artifact {
	r := &rng{s: seed}
	d := &protodef.Descriptor{
		Name:  fmt.Sprintf("gen-%016x", seed),
		Procs: 2 + r.intn(2),
	}

	// Types: 1..2, each 2..5 values and 1..3 total operation tables.
	ntypes := 1 + r.intn(2)
	for ti := 0; ti < ntypes; ti++ {
		nvals := 2 + r.intn(4)
		values := make([]string, nvals)
		for v := range values {
			values[v] = fmt.Sprintf("v%d", v)
		}
		td := protodef.TypeDef{Name: fmt.Sprintf("T%d", ti), Values: values}
		nops := 1 + r.intn(3)
		for oi := 0; oi < nops; oi++ {
			od := protodef.OpDef{Name: fmt.Sprintf("op%d", oi)}
			for _, from := range values {
				od.Transitions = append(od.Transitions, protodef.TransitionDef{
					From: from,
					Resp: r.pick(respPool),
					To:   r.pick(values),
				})
			}
			td.Ops = append(td.Ops, od)
		}
		d.Types = append(d.Types, td)
	}

	// Objects: 1..2, each a random type with a random initial value.
	nobjs := 1 + r.intn(2)
	for oi := 0; oi < nobjs; oi++ {
		t := &d.Types[r.intn(ntypes)]
		d.Objects = append(d.Objects, protodef.ObjectDef{
			Type: t.Name,
			Init: r.pick(t.Values),
		})
	}

	// One shared machine: two decide states (binary consensus) plus 2..5
	// apply states. Every apply state has a "*" fallback, so totality
	// holds no matter which responses its operation can actually return;
	// explicit keys (when present) are drawn from the object type's own
	// response names, the only names compilation accepts.
	napply := 2 + r.intn(4)
	var m protodef.MachineDef
	all := make([]string, 0, napply+2)
	for si := 0; si < napply; si++ {
		all = append(all, fmt.Sprintf("s%d", si))
	}
	for out := 0; out < 2; out++ {
		out := out
		name := fmt.Sprintf("halt%d", out)
		all = append(all, name)
		m.States = append(m.States, protodef.StateDef{Name: name, Decide: &out})
	}
	for si := 0; si < napply; si++ {
		obj := r.intn(nobjs)
		td := typeByName(d, d.Objects[obj].Type)
		sd := protodef.StateDef{
			Name:  fmt.Sprintf("s%d", si),
			Apply: &protodef.ApplyDef{Obj: obj, Op: td.Ops[r.intn(len(td.Ops))].Name},
			Next:  map[string]string{"*": r.pick(all)},
		}
		if r.intn(2) == 0 {
			for i, k := 0, 1+r.intn(2); i < k; i++ {
				sd.Next[r.pick(respNames(td))] = r.pick(all)
			}
		}
		m.States = append(m.States, sd)
	}
	// Start on apply states so generated protocols take steps before
	// (possibly never) deciding; the two inputs may share a start.
	m.Init = []string{
		fmt.Sprintf("s%d", r.intn(napply)),
		fmt.Sprintf("s%d", r.intn(napply)),
	}
	d.Machines = []protodef.MachineDef{m}

	c, err := protodef.Compile(d)
	if err != nil {
		panic(fmt.Sprintf("protogen: seed %#x produced an uncompilable descriptor: %v", seed, err))
	}

	a := &Artifact{Seed: seed, Descriptor: d, Compiled: c}
	for p := 0; p < d.Procs; p++ {
		a.Inputs = append(a.Inputs, r.intn(2))
	}
	if r.intn(2) == 0 {
		a.CrashQuota = make([]int, d.Procs)
		for p := range a.CrashQuota {
			a.CrashQuota[p] = r.intn(2)
		}
	}
	return a
}

// typeByName finds a TypeDef by name. The generator only looks up names
// it just emitted, so a miss is impossible.
func typeByName(d *protodef.Descriptor, name string) *protodef.TypeDef {
	for i := range d.Types {
		if d.Types[i].Name == name {
			return &d.Types[i]
		}
	}
	panic("protogen: unknown type " + name)
}

// respNames collects the distinct response names of a type, in
// first-appearance order (the compiler's interning order).
func respNames(td *protodef.TypeDef) []string {
	var out []string
	seen := make(map[string]bool)
	for _, od := range td.Ops {
		for _, tr := range od.Transitions {
			if !seen[tr.Resp] {
				seen[tr.Resp] = true
				out = append(out, tr.Resp)
			}
		}
	}
	return out
}
