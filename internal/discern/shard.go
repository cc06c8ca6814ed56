package discern

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/spec"
)

// ShardReport describes one finished worker of a sharded level search,
// for progress consumers. Reports are delivered from worker goroutines
// as each worker finishes; a consumer shared across workers must be safe
// for concurrent use.
type ShardReport struct {
	// Shard is the worker's index in [0, Shards).
	Shard int
	// Shards is the total worker count of the search.
	Shards int
	// Lo and Hi delimit the assignment ranks the worker touched: the
	// bounds of its first and last claimed chunks (the claimed set in
	// between belongs to whichever worker got there first). Both are -1
	// when the worker claimed nothing.
	Lo, Hi int64
	// Scanned counts the assignments the worker actually checked; early
	// exit (a lower-ranked witness elsewhere, or cancellation) may leave
	// it short of Hi-Lo.
	Scanned int64
	// Chunks counts the rank-queue chunks the worker claimed.
	Chunks int64
	// Found reports that the worker found a witnessing assignment.
	Found bool
	// Elapsed is the worker's wall-clock cost.
	Elapsed time.Duration
}

// noWitness is the best-rank sentinel meaning "no witness found yet".
const noWitness = math.MaxInt64

// atomicMin lowers a to at most v.
func atomicMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// SearchSharded scans space concurrently on `shards` workers of an
// internal/pool worker set, feeding them from a work-stealing chunk
// queue: the rank space is cut into fixed-size chunks and workers claim
// the next chunk with one atomic increment whenever they run dry, so an
// early-exiting or unlucky worker's leftover ranks are picked up by the
// others instead of idling a core — the scheduling weakness of fixed
// contiguous ranges on early-witness sweeps. newCheck is called once
// per worker that claims work, on that worker's goroutine, and returns
// the worker's check, so a check may own scratch state without locking.
// check is called once per assignment with the decoded tuple (the slice
// is reused within a worker; check must copy anything it keeps) and
// returns non-nil to report a witnessing assignment; it must be
// deterministic.
//
// The lowest-ranked witnessing assignment wins, which makes the outcome
// byte-identical to a serial lexicographic scan of the same space no
// matter how chunks interleave. The argument rests on two monotone
// facts: chunks are claimed in ascending rank order, and the global
// best-witness rank only ever decreases. A rank is skipped only when it
// provably exceeds an already-found witness rank (r > best at skip time
// implies r > final best), so every rank below the final best rank was
// actually scanned and rejected — the final best IS the serial scan's
// first witness. A worker that finds a witness stops (every rank it
// could still claim is higher); a worker whose next chunk starts above
// the best rank stops for the same reason.
//
// On cancellation the search returns ctx.Err() unless the winner was
// already determined: the lowest rank that went unscanned because of the
// cancellation (not because of pruning) is tracked, and the winning
// witness stands only if its rank is strictly below it.
func SearchSharded[W any](ctx context.Context, space TupleSpace, shards int, newCheck func() func(ops []spec.Op) *W, onShard func(ShardReport)) (*W, error) {
	total := space.Count()
	if total <= 0 {
		return nil, ctx.Err()
	}
	if shards < 1 {
		shards = 1
	}
	if int64(shards) > total {
		shards = int(total)
	}
	// Chunk size balances claim traffic against stealing granularity:
	// aim for ~8 claims per worker on a full scan, clamped so tiny spaces
	// still split and huge ones do not degenerate into one claim.
	chunk := total / (int64(shards) * 8)
	if chunk < 16 {
		chunk = 16
	}
	if chunk > 65536 {
		chunk = 65536
	}
	numChunks := (total + chunk - 1) / chunk

	var next atomic.Int64
	var best atomic.Int64
	best.Store(noWitness)
	// minCanceled is the lowest rank known unscanned for a reason OTHER
	// than pruning — the bound cancellation validity is judged against.
	var minCanceled atomic.Int64
	minCanceled.Store(noWitness)
	wits := make([]*W, shards)
	witRank := make([]int64, shards)
	for i := range witRank {
		witRank[i] = noWitness
	}
	done := ctx.Done()

	pool.Run(ctx, shards, shards, func(s int) error {
		start := time.Now()
		ops := make([]spec.Op, space.n)
		var check func([]spec.Op) *W
		var scanned, claimed int64
		firstLo, lastHi := int64(-1), int64(-1)
	claim:
		for {
			c := next.Add(1) - 1
			if c >= numChunks {
				break
			}
			lo := c * chunk
			hi := lo + chunk
			if hi > total {
				hi = total
			}
			if lo > best.Load() {
				// Ascending claims: this chunk and everything after it can
				// only hold ranks above an already-found witness.
				break
			}
			claimed++
			if firstLo < 0 {
				firstLo = lo
				check = newCheck()
			}
			lastHi = hi
			space.Unrank(lo, ops)
			for r := lo; r < hi; r++ {
				if r > best.Load() {
					break claim // no rank this worker can still reach can win
				}
				select {
				case <-done:
					atomicMin(&minCanceled, r)
					break claim
				default:
				}
				scanned++
				if w := check(ops); w != nil {
					if r < witRank[s] {
						wits[s], witRank[s] = w, r
					}
					atomicMin(&best, r)
					break claim // every unclaimed rank is higher
				}
				space.Next(ops)
			}
		}
		if onShard != nil {
			onShard(ShardReport{Shard: s, Shards: shards, Lo: firstLo, Hi: lastHi,
				Scanned: scanned, Chunks: claimed, Found: wits[s] != nil,
				Elapsed: time.Since(start)})
		}
		return nil
	})

	// Chunks never claimed by anyone (cancellation mid-queue, or workers
	// that never started) are unscanned; if their ranks are not provably
	// above the best witness they count as canceled. Prune-stopped
	// leftovers start above the best rank and change nothing.
	if nc := next.Load(); nc < numChunks {
		if lo := nc * chunk; lo <= best.Load() {
			atomicMin(&minCanceled, lo)
		}
	}

	bestRank := best.Load()
	if bestRank != noWitness && bestRank < minCanceled.Load() {
		for s := range wits {
			if witRank[s] == bestRank {
				return wits[s], nil
			}
		}
	}
	if minCanceled.Load() != noWitness {
		return nil, ctx.Err()
	}
	return nil, nil
}
