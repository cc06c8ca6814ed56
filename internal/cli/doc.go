// Package cli carries the flag plumbing shared by the cmd tools and
// examples: every tool that drives the analysis engine registers the
// same -parallel, -timeout, -progress, -cache-file, -graph-cache-budget
// and -graph-dir flags and builds its engine (and a
// cancellable context) through EngineFlags.
//
// # Ownership contract
//
// EngineFlags.Engine/EngineOn return a cleanup func the tool must defer:
// it cancels the run context and closes the -cache-file persistent store,
// flushing its journal. The -cache-file path follows the store's
// one-process-at-a-time ownership rule — two tools pointed at the same
// path concurrently would corrupt the journal, so don't. Within one
// tool, OpenCache memoizes the opened store so Engine and hand-built
// engines share a single store instance; a caller closing the store
// itself must clear the memo (see OpenCache) so later opens do not reuse
// a closed store.
package cli
