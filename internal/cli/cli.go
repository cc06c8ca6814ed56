package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/report"
)

// EngineFlags is the parsed engine-related flag set of one tool.
type EngineFlags struct {
	// Parallel is the worker-pool width (-parallel).
	Parallel int
	// Timeout bounds the whole run; zero means none (-timeout).
	Timeout time.Duration
	// Progress enables per-level progress lines on stderr (-progress).
	Progress bool
	// ShardThreshold is the assignment count above which one level check
	// is split across idle workers (-shard-threshold; 0 = engine default,
	// negative = never shard).
	ShardThreshold int
	// CacheFile persists the decision cache at this path (-cache-file;
	// empty = in-memory only), so sweeps resume across runs.
	CacheFile string
	// GraphCacheBudget bounds the engine's exploration-graph cache in
	// total interned nodes (-graph-cache-budget; 0 = engine default,
	// negative = disable graph caching).
	GraphCacheBudget int
	// GraphDir persists expanded exploration graphs under this directory
	// (-graph-dir; empty = in-memory only), so model-checking runs
	// warm-start across processes. It needs graph caching enabled and is
	// ignored (with a warning) when -graph-cache-budget is negative.
	GraphDir string

	// Cache is the persistent cache opened for -cache-file; it is set by
	// OpenCache (and therefore by Engine) and nil when the flag is
	// unset. Tools that build their engines by hand read it for
	// WithCache and statistics.
	Cache *repro.PersistentCache
	// GraphStore is the exploration-graph store opened for -graph-dir;
	// set by OpenGraphStore (and therefore by Engine), nil when the flag
	// is unset.
	GraphStore *repro.GraphStore
}

// AddEngineFlags registers the shared engine flags on fs and returns the
// struct the parsed values land in.
func AddEngineFlags(fs *flag.FlagSet) *EngineFlags {
	f := &EngineFlags{}
	fs.IntVar(&f.Parallel, "parallel", runtime.NumCPU(),
		"worker count for this tool's parallel work (level checks, seed/size/experiment sweeps)")
	fs.DurationVar(&f.Timeout, "timeout", 0,
		"abort the run after this duration (e.g. 30s; 0 = no limit)")
	fs.BoolVar(&f.Progress, "progress", false,
		"print progress to stderr while the run advances")
	fs.IntVar(&f.ShardThreshold, "shard-threshold", 0,
		"assignment count above which one level check is sharded across idle workers (0 = engine default, negative = never shard)")
	fs.StringVar(&f.CacheFile, "cache-file", "",
		"persist the decision cache at this path (journal + snapshot), resuming prior runs' decisions")
	fs.IntVar(&f.GraphCacheBudget, "graph-cache-budget", 0,
		"node budget of the engine's exploration-graph cache (0 = engine default, negative = disable)")
	fs.StringVar(&f.GraphDir, "graph-dir", "",
		"persist expanded exploration graphs under this directory, warm-starting model checks across runs")
	return f
}

// Context returns the run context implied by the flags: background, or a
// deadline context when -timeout is set. The cancel func must be called
// (deferred) by the tool.
func (f *EngineFlags) Context() (context.Context, context.CancelFunc) {
	if f.Timeout > 0 {
		return context.WithTimeout(context.Background(), f.Timeout)
	}
	return context.WithCancel(context.Background())
}

// OpenGraphStore opens the -graph-dir exploration-graph store,
// memoizing it in f.GraphStore. With the flag unset it returns
// (nil, nil). The store has no close; callers persist dirty graphs by
// flushing the GraphCache it backs.
func (f *EngineFlags) OpenGraphStore() (*repro.GraphStore, error) {
	if f.GraphDir == "" {
		return nil, nil
	}
	if f.GraphStore != nil {
		return f.GraphStore, nil
	}
	gs, err := repro.OpenGraphStore(f.GraphDir)
	if err != nil {
		return nil, fmt.Errorf("-graph-dir: %w", err)
	}
	f.GraphStore = gs
	return gs, nil
}

// OpenCache opens the -cache-file persistent cache, memoizing the store
// in f.Cache. With the flag unset it returns (nil, nil). The caller (or
// Engine's cleanup) must Close the store to flush the journal; a caller
// closing the store itself should also clear f.Cache so a later open on
// the same flags does not reuse the closed store.
func (f *EngineFlags) OpenCache() (*repro.PersistentCache, error) {
	if f.CacheFile == "" {
		return nil, nil
	}
	if f.Cache != nil {
		return f.Cache, nil
	}
	pc, err := repro.OpenCache(f.CacheFile)
	if err != nil {
		return nil, fmt.Errorf("-cache-file: %w", err)
	}
	f.Cache = pc
	return pc, nil
}

// EngineOn builds a repro.Engine bound to a caller-supplied context —
// for tools that drive sweeps on a sub-context of their own (early-exit
// cancellation) or whose own progress rendering is the tool's voice, so
// the engine stays quiet (the -progress writer is NOT installed; pass
// repro.WithProgress in extra to opt in). The -cache-file persistent
// cache and the -graph-dir exploration-graph store are wired when set.
// The returned cleanup must be deferred: it flushes dirty exploration
// graphs to the -graph-dir store and closes the persistent cache
// (flushing its journal), reporting failures on stderr; canceling ctx
// remains the caller's job.
func (f *EngineFlags) EngineOn(ctx context.Context, extra ...repro.Option) (*repro.Engine, func(), error) {
	opts := []repro.Option{
		repro.WithContext(ctx),
		repro.WithParallelism(f.Parallel),
		repro.WithShardThreshold(f.ShardThreshold),
	}
	pc, err := f.OpenCache()
	if err != nil {
		return nil, nil, err
	}
	gs, err := f.OpenGraphStore()
	if err != nil {
		return nil, nil, err
	}
	var gc *repro.GraphCache
	switch {
	case gs != nil && f.GraphCacheBudget >= 0:
		gc = repro.NewGraphCache(f.GraphCacheBudget)
		gc.SetStore(gs)
		opts = append(opts, repro.WithGraphCache(gc))
	case gs != nil:
		fmt.Fprintln(os.Stderr, "-graph-dir: ignored, graph caching is disabled (-graph-cache-budget < 0)")
		fallthrough
	default:
		opts = append(opts, repro.WithGraphCacheBudget(f.GraphCacheBudget))
	}
	if pc != nil {
		opts = append(opts, repro.WithCache(pc.Cache()))
	}
	cleanup := func() {
		if gc != nil {
			if err := gc.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "graph-dir:", err)
			}
		}
		if pc != nil {
			if err := pc.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cache-file:", err)
			}
			// Drop the memo: a later Engine/OpenCache on these flags
			// must reopen the store, not reuse a closed one that would
			// silently persist nothing.
			if f.Cache == pc {
				f.Cache = nil
			}
		}
	}
	return repro.New(append(opts, extra...)...), cleanup, nil
}

// Engine builds a repro.Engine from the flags plus any extra options:
// EngineOn on the flags' own run context, with the -progress writer
// installed. The returned cleanup must be deferred by the caller; it
// cancels the run context and closes the -cache-file store.
func (f *EngineFlags) Engine(extra ...repro.Option) (*repro.Engine, func(), error) {
	ctx, cancel := f.Context()
	var opts []repro.Option
	if f.Progress {
		opts = append(opts, repro.WithProgress(report.ProgressWriter(os.Stderr)))
	}
	eng, closeStore, err := f.EngineOn(ctx, append(opts, extra...)...)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return eng, func() { cancel(); closeStore() }, nil
}

// Summary prints a decision cache's final statistics (and the
// persistent store's, when -cache-file is set) to stderr under
// -progress, as the run's closing line. Call it after the tool's main
// work, before cleanup, passing eng.Cache() — or any cache the tool
// runs on. The store is flushed first so the reported journal size
// covers this run's appends.
func (f *EngineFlags) Summary(c *repro.Cache) {
	if !f.Progress || c == nil {
		return
	}
	hits, misses, entries := c.Stats()
	fmt.Fprintf(os.Stderr, "[engine] cache: %d hits, %d misses, %d entries\n", hits, misses, entries)
	if f.Cache != nil {
		if err := f.Cache.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "cache-file:", err)
		}
		st := f.Cache.Stats()
		fmt.Fprintf(os.Stderr, "[engine] cache file %s: %d loaded, %d appended (journal %dB, snapshot %dB)\n",
			st.Path, st.Loaded, st.Appended, st.JournalBytes, st.SnapshotBytes)
	}
}
