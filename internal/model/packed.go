package model

import (
	"fmt"

	"repro/internal/spec"
)

// machine is a protocol compiled to transition tables: for every process,
// the canonical reachable local-state closure model.Fingerprint hashes
// (BFS ids), and for each state id either its decision or its poised
// object plus, for every value of that object, the (next value, next
// state id) pair. It also fixes the packed-word node layout a Graph
// interns over: a (configuration, output-history) pair is
// ceil(n/4)+ceil(m/4)+ceil(n/8) uint64 words — state ids and object
// values 16 bits each, outputs 8 bits — so hashing is a word-mix loop,
// equality is == over words, and every successor is a table lookup with
// no Protocol call and no string.
//
// The closure over-approximates reachability (it applies each state's
// poised operation against every object value, a superset of the values
// real executions present), and a crash resets a process to one of its
// two initial states, so every node a walk can reach — step and crash
// successors, StartTrace replays — is expressible in ids of the closure.
// A machine is immutable once compiled and shared read-only by every
// Graph built from it (see Machine) and every walk of those graphs.
type machine struct {
	n, m int
	// sw/vw/ow are the word counts of the state, value and output
	// sections; words is their sum, the packed identity length.
	sw, vw, ow, words int
	// nvals[j] and init[j] are object j's value count and initial value.
	nvals []int
	init  []uint16
	procs []procMachine
}

// procMachine is one process's compiled local state machine.
type procMachine struct {
	// names[id] is the local-state string of state id, the only place
	// strings survive: configurations are decoded through it for traces
	// and violations.
	names []string
	// init[input] is the state id of Init(p, input).
	init   [2]uint16
	states []tstate
}

// tstate is one compiled local state.
type tstate struct {
	decided  bool
	decision int
	// obj is the object the state is poised on, and next[v] the
	// transition taken when that object holds value v (undecided states
	// only).
	obj  int
	next []tnext
}

// tnext is one table transition: the object's next value and the
// process's next state id.
type tnext struct{ val, state uint16 }

// dec8 is the state's entry in a node's decision vector: the decision
// as an int8, -1 when undecided (outputs and decision vectors are 8-bit
// lanes, and every consumer treats a negative lane as undecided).
func (t *tstate) dec8() int8 {
	if !t.decided {
		return -1
	}
	return int8(t.decision)
}

// laneLimit bounds state ids and object values: both pack into
// 16-bit lanes. The Fingerprint closure budget (2^14) is far below it.
const laneLimit = 1 << 16

// layout returns the state, value and output word counts of a node of a
// protocol with n processes and m objects.
func layout(n, m int) (sw, vw, ow int) { return (n + 3) / 4, (m + 3) / 4, (n + 7) / 8 }

// NodeWords is the packed identity length of a node of a protocol with
// the given process and object counts: the length of every
// SnapshotNode.Words.
func NodeWords(procs, objects int) int {
	sw, vw, ow := layout(procs, objects)
	return sw + vw + ow
}

// Machine is a protocol compiled once: its transition tables, which
// every Graph built from it shares read-only, and its structural
// fingerprint, hashed once at compile time. A Machine is immutable and
// safe for concurrent use; callers that build many graphs of one
// protocol value (the engine's graph cache, one graph per input vector)
// compile it once and build each graph with Machine.NewGraph.
type Machine struct {
	mc *machine
	fp string
}

// Compile validates pr, compiles it to transition tables and hashes its
// structural fingerprint. It refuses what Fingerprint refuses.
func Compile(pr Protocol) (*Machine, error) {
	mc, err := compile(pr)
	if err != nil {
		return nil, err
	}
	return &Machine{mc: mc, fp: mc.fingerprint()}, nil
}

// Fingerprint returns the compiled protocol's structural fingerprint,
// the string model.Fingerprint returns for it.
func (m *Machine) Fingerprint() string { return m.fp }

// compile validates pr and compiles it to transition tables. It errors
// when an object type's value count does not fit the 16-bit value lanes
// or the closure of some process exceeds FingerprintStateBudget —
// protocols the structural fingerprint (and therefore every cache
// identity) refuses.
func compile(pr Protocol) (*machine, error) {
	if err := Validate(pr); err != nil {
		return nil, err
	}
	objs := pr.Objects()
	n, m := pr.Procs(), len(objs)
	mc := &machine{n: n, m: m, nvals: make([]int, m), init: make([]uint16, m), procs: make([]procMachine, n)}
	mc.sw, mc.vw, mc.ow = layout(n, m)
	mc.words = mc.sw + mc.vw + mc.ow
	for j, o := range objs {
		if o.Type.NumValues() > laneLimit {
			return nil, fmt.Errorf("model: object %d has %d values, beyond the packed encoding's %d",
				j, o.Type.NumValues(), laneLimit)
		}
		mc.nvals[j] = o.Type.NumValues()
		mc.init[j] = uint16(o.Init)
	}
	for p := range mc.procs {
		pm, err := compileProc(pr, p)
		if err != nil {
			return nil, err
		}
		mc.procs[p] = pm
	}
	return mc, nil
}

// compileProc computes process p's reachable local-state closure under
// the all-object-values over-approximation, assigning canonical BFS ids
// and recording every transition as it is discovered. Successor states
// are discovered in ascending object-value order, so the numbering is a
// pure function of the protocol's structure.
func compileProc(pr Protocol, p int) (procMachine, error) {
	var pm procMachine
	objs := pr.Objects()
	id := make(map[string]int)
	add := func(s string) (uint16, error) {
		if i, ok := id[s]; ok {
			return uint16(i), nil
		}
		if len(pm.names) >= FingerprintStateBudget {
			return 0, fmt.Errorf("model: fingerprint: process %d exceeds %d reachable local states",
				p, FingerprintStateBudget)
		}
		id[s] = len(pm.names)
		pm.names = append(pm.names, s)
		return uint16(len(pm.names) - 1), nil
	}
	for input := 0; input <= 1; input++ {
		i, err := add(pr.Init(p, input))
		if err != nil {
			return pm, err
		}
		pm.init[input] = i
	}
	for i := 0; i < len(pm.names); i++ {
		st := pm.names[i]
		a := pr.Poised(p, st)
		if a.Decided {
			pm.states = append(pm.states, tstate{decided: true, decision: a.Decision})
			continue
		}
		if a.Obj < 0 || a.Obj >= len(objs) {
			return pm, fmt.Errorf("model: fingerprint: process %d state %q poised on object %d out of range",
				p, st, a.Obj)
		}
		t := objs[a.Obj].Type
		if int(a.Op) < 0 || int(a.Op) >= t.NumOps() {
			return pm, fmt.Errorf("model: fingerprint: process %d state %q poised on op %d out of range",
				p, st, a.Op)
		}
		ts := tstate{obj: a.Obj, next: make([]tnext, t.NumValues())}
		for v := range ts.next {
			e := t.Apply(spec.Value(v), a.Op)
			next := pr.Next(p, st, e.Resp)
			if next == "" {
				return pm, fmt.Errorf("model: fingerprint: process %d state %q transitions to the empty state", p, st)
			}
			sid, err := add(next)
			if err != nil {
				return pm, err
			}
			ts.next[v] = tnext{val: uint16(e.Next), state: sid}
		}
		pm.states = append(pm.states, ts)
	}
	return pm, nil
}

// stateID reads process p's state-id lane.
func (mc *machine) stateID(w []uint64, p int) int {
	return int(uint16(w[p/4] >> (16 * uint(p%4))))
}

func (mc *machine) setState(w []uint64, p, id int) {
	sh := 16 * uint(p%4)
	w[p/4] = w[p/4]&^(0xffff<<sh) | uint64(id)<<sh
}

// val reads object j's value lane.
func (mc *machine) val(w []uint64, j int) int {
	return int(uint16(w[mc.sw+j/4] >> (16 * uint(j%4))))
}

func (mc *machine) setVal(w []uint64, j, v int) {
	sh := 16 * uint(j%4)
	i := mc.sw + j/4
	w[i] = w[i]&^(0xffff<<sh) | uint64(v)<<sh
}

// out reads process p's output lane (-1: no output yet).
func (mc *machine) out(w []uint64, p int) int8 {
	return int8(w[mc.sw+mc.vw+p/8] >> (8 * uint(p%8)))
}

func (mc *machine) setOut(w []uint64, p int, o int8) {
	sh := 8 * uint(p%8)
	i := mc.sw + mc.vw + p/8
	w[i] = w[i]&^(0xff<<sh) | uint64(uint8(o))<<sh
}

// state returns process p's compiled local state in w.
func (mc *machine) state(w []uint64, p int) *tstate {
	return &mc.procs[p].states[mc.stateID(w, p)]
}

// initial writes the packed identity of the initial configuration for
// inputs into w: initial states and object values, and outputs merged
// from whatever is decided there.
func (mc *machine) initial(w []uint64, inputs []int) {
	clear(w)
	for p, in := range inputs {
		mc.setState(w, p, int(mc.procs[p].init[in]))
		mc.setOut(w, p, -1)
	}
	for j, v := range mc.init {
		mc.setVal(w, j, int(v))
	}
	mc.mergeOuts(w)
}

// step applies one step of process p to w in place — the table form of
// Step — and then merges every decided process into the output lanes:
// every step merges, including the no-op step of a decided process.
func (mc *machine) step(w []uint64, p int) {
	if t := mc.state(w, p); !t.decided {
		nx := t.next[mc.val(w, t.obj)]
		mc.setVal(w, t.obj, int(nx.val))
		mc.setState(w, p, int(nx.state))
	}
	mc.mergeOuts(w)
}

// crash resets process p to its initial state for input in place. The
// output lanes are left alone: a crash successor inherits its parent's
// outputs unmerged, so a crash into a decided initial state is merged at
// the next step.
func (mc *machine) crash(w []uint64, p, input int) {
	mc.setState(w, p, int(mc.procs[p].init[input]))
}

// mergeOuts records every decided process without an output yet.
func (mc *machine) mergeOuts(w []uint64) {
	for p := 0; p < mc.n; p++ {
		if d := mc.state(w, p).dec8(); d >= 0 && mc.out(w, p) == -1 {
			mc.setOut(w, p, d)
		}
	}
}

// config decodes a packed identity into its configuration — the only
// place a Config is built from a node, for traces and violations.
func (mc *machine) config(w []uint64) Config {
	c := Config{States: make([]string, mc.n), Vals: make([]spec.Value, mc.m)}
	for p := range c.States {
		c.States[p] = mc.procs[p].names[mc.stateID(w, p)]
	}
	for j := range c.Vals {
		c.Vals[j] = spec.Value(mc.val(w, j))
	}
	return c
}

// checkWords validates an untrusted packed identity (a snapshot record):
// state ids inside their closure, values inside their object's range,
// outputs -1 or a decision, and every padding lane zero — so a valid
// identity is the unique encoding of its node.
func (mc *machine) checkWords(w []uint64) error {
	for p := 0; p < 4*mc.sw; p++ {
		id := mc.stateID(w, p)
		if p >= mc.n && id != 0 {
			return fmt.Errorf("nonzero padding in state lane %d", p)
		}
		if p < mc.n && id >= len(mc.procs[p].states) {
			return fmt.Errorf("process %d state id %d beyond its %d-state closure", p, id, len(mc.procs[p].states))
		}
	}
	for j := 0; j < 4*mc.vw; j++ {
		v := mc.val(w, j)
		if j >= mc.m && v != 0 {
			return fmt.Errorf("nonzero padding in value lane %d", j)
		}
		if j < mc.m && v >= mc.nvals[j] {
			return fmt.Errorf("object %d value %d out of range", j, v)
		}
	}
	for p := 0; p < 8*mc.ow; p++ {
		o := mc.out(w, p)
		if p >= mc.n && o != 0 {
			return fmt.Errorf("nonzero padding in output lane %d", p)
		}
		if p < mc.n && o < -1 {
			return fmt.Errorf("process %d has negative output %d", p, o)
		}
	}
	return nil
}

// hashWords mixes a packed identity into the 64-bit hash the
// open-addressed tables probe with, and the check value a snapshot
// record is verified by. Collisions only cost probe steps — equality is
// always confirmed over the full words — but the final avalanche
// matters: power-of-two tables index by the low bits.
func hashWords(ws []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range ws {
		h ^= w
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return h
}

// wordsEqual is the packed-identity equality: one comparison per word.
func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}
