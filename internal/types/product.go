package types

import (
	"fmt"

	"repro/internal/spec"
)

// Product composes two types into a single type whose objects behave as an
// independent pair: the value set is the Cartesian product of the component
// value sets, and the operation set is the disjoint union of the component
// operation sets, each acting on its own component.
//
// Product types model "a process may access several objects of different
// types" at the granularity of a single object, and are used by the
// robustness experiments (E7): by Theorems 13/14, the consensus and
// recoverable consensus power of Product(a, b) must not exceed the maximum
// power of a and b when both are readable and deterministic.
//
// Response disambiguation: responses of b's operations are offset by
// ProductRespOffset so they cannot collide with responses of a's
// operations. (Within the deciders only per-process response comparisons
// matter, but keeping them disjoint also makes traces unambiguous.)
func Product(a, b *spec.FiniteType) *spec.FiniteType {
	bld := spec.NewBuilder(fmt.Sprintf("product(%s,%s)", a.Name(), b.Name()))

	// Each product value and operation is named once; value (va, vb) is
	// values[va*nb+vb], and b's operation o is ops[a.NumOps()+o].
	na, nb := a.NumValues(), b.NumValues()
	values := make([]string, 0, na*nb)
	for va := 0; va < na; va++ {
		for vb := 0; vb < nb; vb++ {
			values = append(values, "("+a.ValueName(spec.Value(va))+","+b.ValueName(spec.Value(vb))+")")
		}
	}
	ops := make([]string, 0, a.NumOps()+b.NumOps())
	for o := 0; o < a.NumOps(); o++ {
		ops = append(ops, "L."+a.OpName(spec.Op(o)))
	}
	for o := 0; o < b.NumOps(); o++ {
		ops = append(ops, "R."+b.OpName(spec.Op(o)))
	}
	bld.Values(values...)
	bld.Ops(ops...)

	for va := 0; va < na; va++ {
		for vb := 0; vb < nb; vb++ {
			from := values[va*nb+vb]
			for o := 0; o < a.NumOps(); o++ {
				e := a.Apply(spec.Value(va), spec.Op(o))
				bld.Transition(from, ops[o], e.Resp, values[int(e.Next)*nb+vb])
			}
			for o := 0; o < b.NumOps(); o++ {
				e := b.Apply(spec.Value(vb), spec.Op(o))
				bld.Transition(from, ops[a.NumOps()+o],
					ProductRespOffset+e.Resp, values[va*nb+int(e.Next)])
			}
		}
	}
	return bld.MustBuild()
}

// ProductRespOffset is added to every response of the second component of a
// Product type to keep the two components' response spaces disjoint.
const ProductRespOffset spec.Response = 1 << 16
