package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/registry"
)

// CheckItem is one CheckBatch outcome: the model-checking result, or the
// per-request error that prevented it. Exactly one field is set.
type CheckItem struct {
	Result *model.Result
	Err    error
}

// OK reports whether the item completed and found no violations.
func (it CheckItem) OK() bool { return it.Err == nil && it.Result != nil && it.Result.OK() }

// inputsKey canonicalizes an input vector as a graph-group key.
func inputsKey(inputs []int) string {
	var b strings.Builder
	for _, in := range inputs {
		b.WriteString(strconv.Itoa(in))
		b.WriteByte(',')
	}
	return b.String()
}

// requestCtx resolves the context one request runs under: the engine
// context alone, or — when the request carries its own — a context that
// is done as soon as either is. The returned stop func must be called
// (deferred) to release the linkage.
func (e *Engine) requestCtx(reqCtx context.Context) (context.Context, func()) {
	if reqCtx == nil {
		return e.ctx, func() {}
	}
	ctx, cancel := context.WithCancelCause(reqCtx)
	stop := context.AfterFunc(e.ctx, func() { cancel(context.Cause(e.ctx)) })
	return ctx, func() { stop(); cancel(nil) }
}

// CheckBatch model-checks many requests against one protocol over shared
// exploration graphs: requests with the same input vector walk one
// canonical, singleflight-expanded state graph (see model.Graph), so
// common schedule prefixes and valency subtrees are expanded once and
// shared, while per-request crash quotas, node budgets and liveness
// settings are resolved as overlays during each walk. Requests run
// concurrently on the engine's worker pool. The graphs come from the
// engine's graph cache, so a later batch (or Check, or Theorem13) of the
// same protocol and inputs walks them warm and expands nothing.
//
// Results are positionally aligned with reqs and byte-identical to
// serial Engine.Check calls of the same requests. Errors are
// per-item — a malformed request (wrong inputs length) or a canceled
// per-request context (CheckRequest.Ctx) fails only its own item, and a
// protocol the graph cache cannot compile (one failing model.Validate)
// fails every item with the compile's error. The returned GraphStats
// aggregates reuse attributed to this batch: the counter deltas of its
// graphs over the call (a fully warm batch reports Expanded == 0;
// concurrent calls sharing a cached graph may blur the attribution,
// never the results). CheckBatch itself errors only when the engine
// context is done.
func (e *Engine) CheckBatch(p model.Protocol, reqs []CheckRequest) ([]CheckItem, model.GraphStats, error) {
	var agg model.GraphStats
	if err := e.ctx.Err(); err != nil {
		return nil, agg, err
	}
	start := time.Now()
	name := e.protoName(p)
	e.emit(Event{Kind: "checkbatch.start", Type: name, N: len(reqs)})
	items := make([]CheckItem, len(reqs))

	// Group requests by input vector; each group shares one graph, served
	// from the engine's graph cache. Graph resolution errors (an invalid
	// protocol, wrong inputs length) are per-item.
	graphs := make(map[string]*model.Graph)
	before := make(map[*model.Graph]model.GraphStats)
	graphFor := make([]*model.Graph, len(reqs))
	for i, req := range reqs {
		k := inputsKey(req.Inputs)
		g, ok := graphs[k]
		if !ok {
			var err error
			g, err = e.graphs.Get(p, req.Inputs)
			if err != nil {
				items[i].Err = err
				continue
			}
			graphs[k] = g
			if _, seen := before[g]; !seen {
				before[g] = g.Stats()
			}
		}
		graphFor[i] = g
	}

	fed, _ := pool.Run(e.ctx, len(reqs), e.parallelism, func(i int) error {
		g := graphFor[i]
		if g == nil {
			return nil // malformed item, already recorded
		}
		req := reqs[i]
		ctx, stop := e.requestCtx(req.Ctx)
		defer stop()
		itemBefore := g.Stats()
		itemStart := time.Now()
		res, err := g.Check(model.CheckOpts{
			Ctx:          ctx,
			Inputs:       req.Inputs,
			CrashQuota:   req.CrashQuota,
			MaxNodes:     req.MaxNodes,
			SkipLiveness: req.SkipLiveness,
		})
		if err != nil {
			items[i].Err = err
			return nil // per-item failure must not starve the batch
		}
		// Cold/warm attribution can blur when concurrent items share one
		// graph (see GraphCache, Phase histograms); durations stay exact.
		e.graphs.observeWalk(g, itemBefore, itemStart)
		items[i].Result = res
		e.emit(Event{Kind: "check.done", Type: name, N: i, OK: res.OK(),
			Elapsed: time.Since(itemStart), Nodes: res.Nodes})
		return nil
	})
	// Items the feed never reached (engine context fired) carry the
	// cancellation as their per-item error.
	for i := fed; i < len(reqs); i++ {
		if items[i].Err == nil && items[i].Result == nil {
			if err := e.ctx.Err(); err != nil {
				items[i].Err = err
			} else {
				items[i].Err = fmt.Errorf("engine: batch feed stopped early")
			}
		}
	}

	ok := true
	for _, it := range items {
		if !it.OK() {
			ok = false
			break
		}
	}
	for g, prev := range before {
		agg.Add(g.Stats().Sub(prev))
		e.graphs.Sync(g)
	}
	e.emit(Event{Kind: "checkbatch.done", Type: name, N: len(reqs), OK: ok,
		Elapsed: time.Since(start), Graphs: len(graphs), Graph: agg})
	return items, agg, nil
}

// ResolveProtocol parses a protocol registry descriptor such as
// "tnn-wf:3,2" or "cas-rec:3" into a model-checkable protocol. Unknown
// names error with the list of valid descriptors.
func (e *Engine) ResolveProtocol(desc string) (model.Protocol, error) {
	return registry.ParseProtocol(desc)
}
