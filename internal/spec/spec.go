package spec

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Value identifies a value of a type. Values are indices into the type's
// value table, in the range [0, NumValues).
type Value int

// Op identifies an operation of a type. Operations are indices into the
// type's operation table, in the range [0, NumOps).
type Op int

// Response is the result returned by applying an operation. Responses are
// opaque integers; two responses are "the same" exactly when the integers
// are equal. Types may attach human-readable names to responses.
type Response int

// Effect is the outcome of applying one operation to one value: the
// response returned to the caller and the resulting value of the object.
type Effect struct {
	Resp Response
	Next Value
}

// FiniteType is a deterministic sequential specification over finite sets
// of values and operations. The zero value is not usable; construct
// instances with a Builder.
type FiniteType struct {
	name       string
	valueNames []string
	opNames    []string
	respNames  map[Response]string
	// table[v][o] is the effect of applying operation o to value v.
	table [][]Effect
	// readOps caches the operations that behave as Read (see IsReadOp).
	readOps []Op
}

// Name returns the type's human-readable name.
func (t *FiniteType) Name() string { return t.name }

// NumValues returns the number of values of the type.
func (t *FiniteType) NumValues() int { return len(t.valueNames) }

// NumOps returns the number of operations of the type.
func (t *FiniteType) NumOps() int { return len(t.opNames) }

// ValueName returns the human-readable name of value v.
func (t *FiniteType) ValueName(v Value) string {
	if int(v) < 0 || int(v) >= len(t.valueNames) {
		return fmt.Sprintf("?value(%d)", int(v))
	}
	return t.valueNames[v]
}

// OpName returns the human-readable name of operation o.
func (t *FiniteType) OpName(o Op) string {
	if int(o) < 0 || int(o) >= len(t.opNames) {
		return fmt.Sprintf("?op(%d)", int(o))
	}
	return t.opNames[o]
}

// RespName returns the human-readable name of response r, or a numeric
// placeholder if the response was never named.
func (t *FiniteType) RespName(r Response) string {
	if s, ok := t.respNames[r]; ok {
		return s
	}
	return fmt.Sprintf("resp(%d)", int(r))
}

// OpByName returns the operation with the given name.
func (t *FiniteType) OpByName(name string) (Op, bool) {
	for i, s := range t.opNames {
		if s == name {
			return Op(i), true
		}
	}
	return 0, false
}

// ValueByName returns the value with the given name.
func (t *FiniteType) ValueByName(name string) (Value, bool) {
	for i, s := range t.valueNames {
		if s == name {
			return Value(i), true
		}
	}
	return 0, false
}

// Apply applies operation o to an object with value v and returns the
// response and resulting value, per the type's sequential specification.
func (t *FiniteType) Apply(v Value, o Op) Effect {
	return t.table[v][o]
}

// ApplyAll applies the operations in ops, in order, starting from value v,
// and returns the final value.
func (t *FiniteType) ApplyAll(v Value, ops []Op) Value {
	for _, o := range ops {
		v = t.table[v][o].Next
	}
	return v
}

// IsReadOp reports whether operation o behaves as the Read operation of
// Section 2: for every value v, applying o leaves the value unchanged, and
// the response uniquely identifies v (distinct values yield distinct
// responses).
func (t *FiniteType) IsReadOp(o Op) bool {
	// Values first: most operations fail here, before any allocation.
	for v, row := range t.table {
		if row[o].Next != Value(v) {
			return false
		}
	}
	seen := make(map[Response]bool, t.NumValues())
	for _, row := range t.table {
		if seen[row[o].Resp] {
			return false
		}
		seen[row[o].Resp] = true
	}
	return true
}

// ReadOps returns the operations that behave as Read.
func (t *FiniteType) ReadOps() []Op {
	out := make([]Op, len(t.readOps))
	copy(out, t.readOps)
	return out
}

// Readable reports whether the type supports a Read operation.
func (t *FiniteType) Readable() bool { return len(t.readOps) > 0 }

// TransitionTable renders the full transition table as text, one line per
// (value, operation) pair. This is the textual form of a state-machine
// diagram such as Figure 3 of the paper.
func (t *FiniteType) TransitionTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "type %s: %d values, %d operations", t.name, t.NumValues(), t.NumOps())
	if t.Readable() {
		b.WriteString(" (readable)")
	}
	b.WriteByte('\n')
	for v := 0; v < t.NumValues(); v++ {
		for o := 0; o < t.NumOps(); o++ {
			e := t.table[v][o]
			fmt.Fprintf(&b, "  %s --%s/%s--> %s\n",
				t.valueNames[v], t.opNames[o], t.RespName(e.Resp), t.valueNames[e.Next])
		}
	}
	return b.String()
}

// Dot renders the type's state machine in Graphviz DOT format, with one
// node per value and one edge per (value, operation) transition. Edges that
// share source, destination and response are merged, matching the visual
// style of Figure 3 in the paper.
func (t *FiniteType) Dot() string {
	type edge struct {
		from, to Value
		resp     Response
	}
	labels := make(map[edge][]string)
	var order []edge
	for v := 0; v < t.NumValues(); v++ {
		for o := 0; o < t.NumOps(); o++ {
			e := t.table[v][o]
			k := edge{from: Value(v), to: e.Next, resp: e.Resp}
			if _, ok := labels[k]; !ok {
				order = append(order, k)
			}
			labels[k] = append(labels[k], t.opNames[o])
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=circle];\n", t.name)
	for v := 0; v < t.NumValues(); v++ {
		fmt.Fprintf(&b, "  v%d [label=%q];\n", v, t.valueNames[v])
	}
	for _, k := range order {
		ops := labels[k]
		sort.Strings(ops)
		fmt.Fprintf(&b, "  v%d -> v%d [label=%q];\n",
			int(k.from), int(k.to),
			fmt.Sprintf("%s / %s", strings.Join(ops, ","), t.RespName(k.resp)))
	}
	b.WriteString("}\n")
	return b.String()
}

// Validate re-checks the structural invariants of the type: non-empty value
// and operation sets, and a total, in-range transition table. Builders
// enforce this at construction; Validate exists so deserialized or
// programmatically mutated tables can be re-verified.
func (t *FiniteType) Validate() error {
	if t.NumValues() == 0 {
		return errors.New("type has no values")
	}
	if t.NumOps() == 0 {
		return errors.New("type has no operations")
	}
	if len(t.table) != t.NumValues() {
		return fmt.Errorf("table has %d rows, want %d", len(t.table), t.NumValues())
	}
	for v, row := range t.table {
		if len(row) != t.NumOps() {
			return fmt.Errorf("value %q: table row has %d entries, want %d",
				t.valueNames[v], len(row), t.NumOps())
		}
		for o, e := range row {
			if int(e.Next) < 0 || int(e.Next) >= t.NumValues() {
				return fmt.Errorf("transition (%q, %q): resulting value %d out of range",
					t.valueNames[v], t.opNames[o], int(e.Next))
			}
		}
	}
	return nil
}

// Equal reports whether two types have identical structure: the same value
// names, operation names and transition tables. Response names are ignored;
// response identity (the integers) is compared.
func (t *FiniteType) Equal(u *FiniteType) bool {
	if t.NumValues() != u.NumValues() || t.NumOps() != u.NumOps() {
		return false
	}
	for i, s := range t.valueNames {
		if u.valueNames[i] != s {
			return false
		}
	}
	for i, s := range t.opNames {
		if u.opNames[i] != s {
			return false
		}
	}
	for v := range t.table {
		for o := range t.table[v] {
			if t.table[v][o] != u.table[v][o] {
				return false
			}
		}
	}
	return true
}
