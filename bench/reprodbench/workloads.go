package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workload is one layer probe: its set-up builds the state the timed
// phase starts from and is timed as setup_s. A workload is built to make
// one layer carry the work, not to imitate a measured traffic mix: no
// usage data of the service exists yet, so each one sends every entry of
// a fixed pool equally often, in seeded order.
type workload struct {
	name  string
	setup func(b *bench, in *inputs, rep int) (runner, error)
}

var workloads = []workload{
	{"check-warm", setupCheckWarm},
	{"check-cold", setupCheckCold},
	{"analyze-cold", setupAnalyzeCold},
	{"restart-warm", setupRestartWarm},
}

const (
	// minOps is the fewest ops a phase measures, so at least 20 samples
	// lie beyond latency_p99_ms. Only analyze-cold, the slowest workload,
	// runs past its deadline to reach it.
	minOps = 2000
	// analyzeWarmupOps is the length of analyze-cold's set-up generation:
	// enough to run the decider and the journal once, few enough that a
	// set-up stays far below a second.
	analyzeWarmupOps = 25
)

// inputs are a run's requests, built once before any set-up, so setup_s
// times only server work.
type inputs struct {
	// checkOps[i] checks pairs()[i] at crashQuota.
	checkOps []op
	// typeOps[i] analyzes typePool()[i]; coldTypeOps[i] is the same op
	// sent where it misses the decision cache.
	typeOps, coldTypeOps []op
}

func newInputs(b *bench) (*inputs, error) {
	in := &inputs{}
	ps, err := pairs()
	if err != nil {
		return nil, err
	}
	for _, p := range ps[:b.scaled(len(ps))] {
		o, err := checkOp(b.golden, p)
		if err != nil {
			return nil, err
		}
		in.checkOps = append(in.checkOps, o)
	}
	types := typePool()
	for _, desc := range types[:b.scaled(len(types))] {
		o, err := analyzeOp(b.golden, desc)
		if err != nil {
			return nil, err
		}
		in.typeOps = append(in.typeOps, o)
		o.cold = true
		in.coldTypeOps = append(in.coldTypeOps, o)
	}
	return in, nil
}

// refs points at every op of the lists, in order.
func refs(lists ...[]op) []*op {
	var out []*op
	for _, ops := range lists {
		for i := range ops {
			out = append(out, &ops[i])
		}
	}
	return out
}

// order is ops in the seeded order of generation g of a random stream.
func order(ops []*op, seed int64, stream, g uint64) []*op {
	out := make([]*op, len(ops))
	for pos, i := range rng(seed, stream, g).Perm(len(ops)) {
		out[pos] = ops[i]
	}
	return out
}

// check-warm: set-up primes one server's graph cache with every pair;
// the timed phase cycles through the same checks in seeded order, so
// every op is a warm walk.

type checkWarm struct {
	b    *bench
	plan []*op
	inst *instance
}

func setupCheckWarm(b *bench, in *inputs, rep int) (runner, error) {
	inst, err := b.open("", false, false, false)
	if err != nil {
		return nil, err
	}
	ops := refs(in.checkOps)
	b.drive(inst.srv, len(ops), func(i int) *op { return ops[i] }, time.Time{}, 0)
	return &checkWarm{b: b, plan: order(ops, b.seed, streamPlan, 0), inst: inst}, nil
}

func (w *checkWarm) phase(deadline time.Time) error {
	if w.b.tr != nil {
		before, err := scrape(w.inst.srv)
		if err != nil {
			return err
		}
		w.inst.before = before
	}
	w.inst.start, w.inst.span = time.Now(), w.b.tr.newID()
	w.b.drive(w.inst.srv, -1, func(i int) *op { return w.plan[i%len(w.plan)] }, deadline, w.inst.span)
	return nil
}

// endPhase closes the phase's books without stopping the server, which
// later phases reuse.
func (w *checkWarm) endPhase() error {
	ph := w.b.ph
	if w.b.tr != nil {
		after, err := scrape(w.inst.srv)
		if err != nil {
			return err
		}
		ph.scrapes.add(w.inst.before, after)
	}
	w.b.tr.add(w.inst.span, w.b.runSpan, "generation", w.inst.start, time.Since(w.inst.start))
	return nil
}

func (w *checkWarm) close() error { return w.inst.stop() }

// generations is the runner of the three workloads that start a server
// per generation. Every generation sends the same ops in its own order,
// so every phase ends on the same server state.
type generations struct {
	b     *bench
	start func(g int) (*instance, []*op, error)
	// open is the generation a phase left running.
	open *instance
	// cleanup releases set-up state.
	cleanup func() error
}

// phase runs whole generations, each through its graph flush, until one
// ends past the deadline with at least minOps ops measured, so a phase
// always ends on a full generation's durable state.
func (r *generations) phase(deadline time.Time) error {
	for g := 0; ; g++ {
		inst, ops, err := r.start(g)
		if err != nil {
			return err
		}
		r.open = inst
		r.b.drive(inst.srv, len(ops), func(i int) *op { return ops[i] }, time.Time{}, inst.span)
		if err := inst.flush(); err != nil {
			return err
		}
		if (!time.Now().Before(deadline) && r.b.ph.count() >= r.b.scaled(minOps)) || r.b.ctx.Err() != nil {
			return nil
		}
		r.open = nil
		if err := inst.stop(); err != nil {
			return err
		}
	}
}

func (r *generations) endPhase() error {
	inst := r.open
	r.open = nil
	if inst == nil {
		return nil
	}
	return inst.stop()
}

func (r *generations) close() error {
	if r.cleanup == nil {
		return nil
	}
	return r.cleanup()
}

// runGeneration serves ops on a server built by open and stops it: one
// set-up generation.
func (b *bench) runGeneration(inst *instance, ops []*op) error {
	b.drive(inst.srv, len(ops), func(i int) *op { return ops[i] }, time.Time{}, 0)
	return inst.stop()
}

// check-cold: per generation a fresh server over an empty graph
// directory checks every pair once, so every op expands a new graph and
// spills it. Set-up runs one such generation.

func setupCheckCold(b *bench, in *inputs, rep int) (runner, error) {
	ops := refs(in.checkOps)
	inst, err := b.open(filepath.Join(b.dir, fmt.Sprintf("warmup-%d", rep)), false, true, true)
	if err != nil {
		return nil, err
	}
	if err := b.runGeneration(inst, order(ops, b.seed, streamWarmup, 0)); err != nil {
		return nil, err
	}
	return &generations{b: b, start: func(g int) (*instance, []*op, error) {
		inst, err := b.open(filepath.Join(b.dir, fmt.Sprintf("gen-%d", g)), false, true, true)
		return inst, order(ops, b.seed, streamGeneration, uint64(g)), err
	}}, nil
}

// analyze-cold: per generation a fresh server over an empty journal
// analyzes every pool type once, so every level decision misses the
// cache. Set-up runs a generation of the first analyzeWarmupOps types.

func setupAnalyzeCold(b *bench, in *inputs, rep int) (runner, error) {
	ops := refs(in.coldTypeOps)
	inst, err := b.open(filepath.Join(b.dir, fmt.Sprintf("warmup-%d", rep)), true, false, true)
	if err != nil {
		return nil, err
	}
	if err := b.runGeneration(inst, order(ops[:b.scaled(analyzeWarmupOps)], b.seed, streamWarmup, 0)); err != nil {
		return nil, err
	}
	return &generations{b: b, start: func(g int) (*instance, []*op, error) {
		inst, err := b.open(filepath.Join(b.dir, fmt.Sprintf("gen-%d", g)), true, false, true)
		return inst, order(ops, b.seed, streamGeneration, uint64(g)), err
	}}, nil
}

// restart-warm: set-up analyzes every pool type into a journal and checks
// every pair into a graph directory. Each generation then restarts on
// both stores and reads back everything they hold once: every type's
// analysis, a decision-cache hit rendering witnesses, and every pair's
// check, a graph-store load, an import and a warm walk.

func setupRestartWarm(b *bench, in *inputs, rep int) (runner, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("state-%d", rep))
	ops := refs(in.typeOps, in.checkOps)
	inst, err := b.open(dir, true, true, false)
	if err != nil {
		return nil, err
	}
	if err := b.runGeneration(inst, order(ops, b.seed, streamWarmup, 0)); err != nil {
		return nil, err
	}
	return &generations{
		b: b,
		start: func(g int) (*instance, []*op, error) {
			inst, err := b.open(dir, true, true, false)
			if err != nil {
				return nil, nil, err
			}
			inst.warm = true
			return inst, order(ops, b.seed, streamGeneration, uint64(g)), nil
		},
		cleanup: func() error { return os.RemoveAll(dir) },
	}, nil
}
