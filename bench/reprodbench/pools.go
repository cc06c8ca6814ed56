package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/registry"
)

// protocolPool is the /v1/check pool: the paper's T_{n,n'} algorithms, the
// CAS baselines and Golab's TAS+registers separation, at sizes whose
// state spaces expand in milliseconds. Its 72 (protocol, input vector)
// pairs are the unit of every check workload.
var protocolPool = []string{
	"cas-wf:2", "cas-wf:3", "cas-rec:2", "cas-rec:3", "tas-reg",
	"tnn-wf:3,2", "tnn-wf:4,2", "tnn-wf:5,2,3", "tnn-rec:4,2", "tnn-rec:5,3",
}

// pair is one (protocol, input vector) of the check pool: one exploration
// graph.
type pair struct {
	protocol string
	inputs   []int
}

// crashQuota is the crash quota of every process in every /v1/check item:
// one crash each, the crash-recovery setting of the paper's recoverable
// consensus. A walk at quota 1 also covers every crash-free schedule, and
// tas-reg and the tnn-wf protocols fail it on most inputs, so replies
// render violations as well as successes (at quota 0 every pair passes).
const crashQuota = 1

// pairs enumerates every input vector of every pool protocol, in pool
// order.
func pairs() ([]pair, error) {
	var out []pair
	for _, desc := range protocolPool {
		p, err := registry.ParseProtocol(desc)
		if err != nil {
			return nil, err
		}
		procs := p.Procs()
		for mask := 0; mask < 1<<procs; mask++ {
			in := make([]int, procs)
			for i := range in {
				in[i] = mask >> i & 1
			}
			out = append(out, pair{desc, in})
		}
	}
	return out, nil
}

// typePool is the /v1/analyze pool: every registry family at the sizes
// the level deciders finish in milliseconds at maxN 5, plus the unordered
// products of the types with at most 2 operations and at most 6 values.
// The products are the pool's heaviest analyses: a product's decider cost
// grows with its value count, up to 36 here.
func typePool() []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	for m := 2; m <= 24; m++ {
		add("faa:%d", m)
		add("counter:%d", m)
	}
	for n := 2; n <= 8; n++ {
		for np := 1; np < n; np++ {
			add("tnn:%d,%d", n, np)
		}
	}
	for n := 3; n <= 8; n++ {
		add("y:%d", n)
	}
	for c := 1; c <= 4; c++ {
		add("queue:%d", c)
		add("stack:%d", c)
		add("peekqueue:%d", c)
	}
	for k := 2; k <= 10; k++ {
		add("cas:%d", k)
	}
	for k := 1; k <= 3; k++ {
		add("register:%d", k)
		add("swap:%d", k)
	}
	out = append(out, "tas", "sticky", "x4", "x5", "trivial")
	parts := []string{"tas", "register:1", "swap:1", "trivial"}
	for m := 2; m <= 6; m++ {
		parts = append(parts, fmt.Sprintf("faa:%d", m), fmt.Sprintf("counter:%d", m))
	}
	for i, a := range parts {
		for _, b := range parts[i+1:] {
			add("product:%s,%s", a, b)
		}
	}
	return out
}

// Random streams. Every sampling decision draws from its own stream, so
// the inputs of one purpose do not shift when another purpose draws more.
const (
	streamPlan = iota + 1
	streamGeneration
	streamWarmup
)

// rng returns the seeded source of one stream; sub distinguishes
// generations within a stream.
func rng(seed int64, stream, sub uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream<<32|sub))
}
