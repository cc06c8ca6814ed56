package spec

import (
	"fmt"
	"maps"
	"strings"
)

// Builder constructs FiniteType instances incrementally. A Builder is not
// safe for concurrent use. The typical flow is:
//
//	b := spec.NewBuilder("test-and-set")
//	b.Values("0", "1")
//	b.Ops("TAS", "Read")
//	b.Transition("0", "TAS", 0, "1")
//	...
//	t, err := b.Build()
//
// Names are resolved to indices once, through the name→index maps;
// transitions are stored by index, in one row per value with one cell
// per operation, and Build copies the rows into the type's table.
type Builder struct {
	name       string
	valueNames []string
	valueIdx   map[string]Value
	opNames    []string
	opIdx      map[string]Op
	respNames  map[Response]string
	// rows holds the declared transitions row-major: the transition of
	// value v under operation o is rows[v*width+o]. width is the
	// operation count the rows were laid out for; declaring operations
	// after transitions lays them out again.
	rows  []cell
	width int
	errs  []error
}

// cell is one slot of the builder's rows: an effect, and whether a
// transition declared it.
type cell struct {
	Effect
	set bool
}

// NewBuilder returns a Builder for a type with the given name. Its maps
// are made on first use, sized by the first declaration.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// Values declares the values of the type, in order. The first declared
// value has index 0. Duplicate names are recorded as errors.
func (b *Builder) Values(names ...string) *Builder {
	if b.valueIdx == nil {
		b.valueIdx = make(map[string]Value, len(names))
	}
	for _, n := range names {
		if _, dup := b.valueIdx[n]; dup {
			b.errs = append(b.errs, fmt.Errorf("duplicate value name %q", n))
			continue
		}
		b.valueIdx[n] = Value(len(b.valueNames))
		b.valueNames = append(b.valueNames, n)
	}
	return b
}

// Ops declares the operations of the type, in order.
func (b *Builder) Ops(names ...string) *Builder {
	if b.opIdx == nil {
		b.opIdx = make(map[string]Op, len(names))
	}
	for _, n := range names {
		if _, dup := b.opIdx[n]; dup {
			b.errs = append(b.errs, fmt.Errorf("duplicate operation name %q", n))
			continue
		}
		b.opIdx[n] = Op(len(b.opNames))
		b.opNames = append(b.opNames, n)
	}
	return b
}

// NameResponse attaches a human-readable name to a response code. Naming is
// optional and affects only rendering.
func (b *Builder) NameResponse(r Response, name string) *Builder {
	if b.respNames == nil {
		b.respNames = make(map[Response]string)
	}
	b.respNames[r] = name
	return b
}

// Transition records that applying op to an object with value from returns
// resp and changes the value to next. Values and operations must already be
// declared. Redefining a transition is recorded as an error, since the
// specification must be deterministic.
func (b *Builder) Transition(from, op string, resp Response, next string) *Builder {
	v, ok := b.valueIdx[from]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("transition from undeclared value %q", from))
		return b
	}
	n, ok := b.valueIdx[next]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("transition to undeclared value %q", next))
		return b
	}
	o, ok := b.opIdx[op]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("transition via undeclared operation %q", op))
		return b
	}
	b.set(v, o, Effect{Resp: resp, Next: n})
	return b
}

// set declares the transition of value v under operation o, recording a
// redefinition as an error.
func (b *Builder) set(v Value, o Op, e Effect) {
	c := &b.layout()[int(v)*b.width+int(o)]
	if c.set {
		b.errs = append(b.errs, fmt.Errorf(
			"non-deterministic specification: transition (%q, %q) defined twice",
			b.valueNames[v], b.opNames[o]))
		return
	}
	*c = cell{Effect: e, set: true}
}

// layout returns the rows, with one cell for every declared value and
// operation.
func (b *Builder) layout() []cell {
	nv, no := len(b.valueNames), len(b.opNames)
	if no != b.width && len(b.rows) > 0 {
		rows := make([]cell, nv*no)
		for v := 0; v < len(b.rows)/b.width; v++ {
			copy(rows[v*no:], b.rows[v*b.width:(v+1)*b.width])
		}
		b.rows = rows
	}
	b.width = no
	if len(b.rows) < nv*no {
		b.rows = append(b.rows, make([]cell, nv*no-len(b.rows))...)
	}
	return b.rows
}

// ReadOp declares op to be a Read operation: for every value v it returns a
// response that uniquely identifies v (the value's index, offset by base)
// and leaves the value unchanged. base lets callers keep Read responses
// disjoint from other responses.
func (b *Builder) ReadOp(op string, base Response) *Builder {
	o, ok := b.opIdx[op]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("ReadOp on undeclared operation %q", op))
		return b
	}
	// Every read response's name is a slice of one string.
	const prefix = "read:"
	size := 0
	for _, vn := range b.valueNames {
		size += len(prefix) + len(vn)
	}
	var all strings.Builder
	all.Grow(size)
	for _, vn := range b.valueNames {
		all.WriteString(prefix)
		all.WriteString(vn)
	}
	names := all.String()
	for i, vn := range b.valueNames {
		r := base + Response(i)
		b.NameResponse(r, names[:len(prefix)+len(vn)])
		names = names[len(prefix)+len(vn):]
		b.set(Value(i), o, Effect{Resp: r, Next: Value(i)})
	}
	return b
}

// Build validates the accumulated specification and returns the type. It
// fails if any declaration error occurred or if the transition table is not
// total (some (value, operation) pair lacks a transition).
func (b *Builder) Build() (*FiniteType, error) {
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("type %q: %d specification error(s), first: %w",
			b.name, len(b.errs), b.errs[0])
	}
	nv, no := len(b.valueNames), len(b.opNames)
	if nv == 0 {
		return nil, fmt.Errorf("type %q has no values", b.name)
	}
	if no == 0 {
		return nil, fmt.Errorf("type %q has no operations", b.name)
	}
	rows := b.layout()
	flat := make([]Effect, nv*no)
	table := make([][]Effect, nv)
	for v := range table {
		row := flat[v*no : (v+1)*no : (v+1)*no]
		for o := range row {
			c := rows[v*no+o]
			if !c.set {
				return nil, fmt.Errorf("type %q: missing transition (%q, %q)",
					b.name, b.valueNames[v], b.opNames[o])
			}
			row[o] = c.Effect
		}
		table[v] = row
	}
	// The built type shares the builder's name slices: both only ever
	// append, and the type's views end at today's length.
	t := &FiniteType{
		name:       b.name,
		valueNames: b.valueNames[:nv:nv],
		opNames:    b.opNames[:no:no],
		respNames:  maps.Clone(b.respNames),
		table:      table,
	}
	for o := 0; o < no; o++ {
		if t.IsReadOp(Op(o)) {
			t.readOps = append(t.readOps, Op(o))
		}
	}
	return t, nil
}

// MustBuild is Build that panics on error. It is intended for statically
// known specifications (package-level type zoo constructors and tests).
func (b *Builder) MustBuild() *FiniteType {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
