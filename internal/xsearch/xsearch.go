package xsearch

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/decider"
	"repro/internal/discern"
	"repro/internal/record"
	"repro/internal/spec"
)

// Candidate is one sampled type together with its verified signature.
type Candidate struct {
	Type *spec.FiniteType
	// Seed reproduces the candidate via Sample(seed, numValues).
	Seed      int64
	NumValues int
}

// Sample deterministically generates a candidate type from a seed: two
// mutating operations with random transitions over numValues values, plus
// a Read. Response codes are distinct per (value, op), which is the most
// favourable response structure for discerning.
func Sample(seed int64, numValues int) *spec.FiniteType {
	rng := rand.New(rand.NewSource(seed))
	b := spec.NewBuilder(fmt.Sprintf("x4-candidate[%d,%d]", numValues, seed))
	names := make([]string, numValues)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	b.Values(names...)
	b.Ops("a", "b", "read")
	resp := spec.Response(0)
	for v := 0; v < numValues; v++ {
		for _, op := range []string{"a", "b"} {
			next := names[rng.Intn(numValues)]
			b.Transition(names[v], op, resp, next)
			resp++
		}
	}
	// Read responses use the same base as the type zoo (types.RespReadBase)
	// so frozen candidates can be compared transition-for-transition.
	b.ReadOp("read", 2000)
	return b.MustBuild()
}

// HasXSignature checks the X_n signature on t: readable, (n-2)-recording,
// not (n-1)-recording, n-discerning. For a readable deterministic type
// this pins both hierarchy positions exactly: cons = n (Ruppert plus DFFR
// Theorem 5) and rcons = n-2 (the paper's Theorem 14). The checks are
// ordered cheapest-first. n must be at least 4.
func HasXSignature(t *spec.FiniteType, n int) bool {
	ok, _ := HasXSignatureShardedCtx(context.Background(), t, n, 1)
	return ok
}

// HasXSignatureShardedCtx is HasXSignature with cancellation and with the
// two dominant level checks — (n-1)-recording and n-discerning — sharded
// across `shards` workers of the production level decider
// (internal/decider). The cheap (n-2)-recording pre-filter stays serial.
// Sharding never changes the verdict, only the core count one candidate
// occupies. n above decider.BitsetMaxN is rejected with decider.CheckN's
// error before any work.
func HasXSignatureShardedCtx(ctx context.Context, t *spec.FiniteType, n, shards int) (bool, error) {
	if n < 4 {
		panic(fmt.Sprintf("xsearch: X_n signature needs n >= 4, got %d", n))
	}
	if err := decider.CheckN(n); err != nil {
		return false, err
	}
	if !t.Readable() {
		return false, nil
	}
	if ok, _, err := decider.IsNRecording(ctx, t, n-1, shards, nil); err != nil || ok {
		return false, err
	}
	if ok, _, err := decider.IsNRecording(ctx, t, n-2, 1, nil); err != nil || !ok {
		return false, err
	}
	ok, _, err := decider.IsNDiscerning(ctx, t, n, shards, nil)
	return ok, err
}

// HasX4Signature checks the X_4 signature (see HasXSignature).
func HasX4Signature(t *spec.FiniteType) bool { return HasXSignature(t, 4) }

// LevelDecider is the slice of the analysis engine's API the signature
// check needs: decide one level of one property, however the
// implementation wants to (memoized, sharded, persistent).
// *engine.Engine satisfies it.
type LevelDecider interface {
	Discerning(t *spec.FiniteType, n int) (bool, *discern.Witness, error)
	Recording(t *spec.FiniteType, n int) (bool, *record.Witness, error)
}

// HasXSignatureDecider is HasXSignature with every level check routed
// through d. Driven by an engine, the checks are cached by type
// fingerprint — a re-run over the same seeds (for instance resuming an
// interrupted sweep against a persistent -cache-file) skips straight
// through already-decided candidates — and large enumerations shard
// across the engine's idle workers automatically. The check order stays
// cheapest-first; cancellation arrives via d's own context as an error.
func HasXSignatureDecider(d LevelDecider, t *spec.FiniteType, n int) (bool, error) {
	if n < 4 {
		panic(fmt.Sprintf("xsearch: X_n signature needs n >= 4, got %d", n))
	}
	if !t.Readable() {
		return false, nil
	}
	if ok, _, err := d.Recording(t, n-1); err != nil || ok {
		return false, err
	}
	if ok, _, err := d.Recording(t, n-2); err != nil || !ok {
		return false, err
	}
	ok, _, err := d.Discerning(t, n)
	return ok, err
}

// SearchDecider is SearchCtx with each candidate's signature checks
// routed through d (see HasXSignatureDecider). The context is polled
// once per attempt; d is additionally expected to honor its own context
// mid-check, as an engine does.
func SearchDecider(ctx context.Context, d LevelDecider, n int, seedStart int64, attempts int, sizes []int, progressEvery int, progress func(done int)) []Candidate {
	return searchWith(ctx, func(t *spec.FiniteType) (bool, error) {
		return HasXSignatureDecider(d, t, n)
	}, seedStart, attempts, sizes, progressEvery, progress)
}

// Search samples candidates with seeds [seedStart, seedStart+attempts) and
// value-set sizes in sizes, returning every candidate with the X_n
// signature (possibly none). progress, if non-nil, is called every
// progressEvery attempts with the attempt count.
func Search(n int, seedStart int64, attempts int, sizes []int, progressEvery int, progress func(done int)) []Candidate {
	return SearchCtx(context.Background(), n, seedStart, attempts, sizes, progressEvery, progress)
}

// SearchCtx is Search with cancellation: the context is polled once per
// attempt, and the candidates found so far are returned when it fires.
func SearchCtx(ctx context.Context, n int, seedStart int64, attempts int, sizes []int, progressEvery int, progress func(done int)) []Candidate {
	return SearchShardedCtx(ctx, n, seedStart, attempts, sizes, 1, progressEvery, progress)
}

// SearchShardedCtx is SearchCtx with each candidate's dominant signature
// checks sharded across `shards` workers (1 = serial, the SearchCtx
// behavior). Use it when the sweep has fewer independent sample spaces
// than workers, so the spare cores ride along inside each check instead
// of idling.
func SearchShardedCtx(ctx context.Context, n int, seedStart int64, attempts int, sizes []int, shards, progressEvery int, progress func(done int)) []Candidate {
	return searchWith(ctx, func(t *spec.FiniteType) (bool, error) {
		return HasXSignatureShardedCtx(ctx, t, n, shards)
	}, seedStart, attempts, sizes, progressEvery, progress)
}

// searchWith is the one sweep loop behind every Search variant: sample
// seeds [seedStart, seedStart+attempts) at each size, keep candidates
// the check accepts, poll ctx once per attempt, and return the partial
// result when ctx fires or the check errors (a canceled mid-check).
func searchWith(ctx context.Context, check func(*spec.FiniteType) (bool, error), seedStart int64, attempts int, sizes []int, progressEvery int, progress func(done int)) []Candidate {
	var found []Candidate
	cdone := ctx.Done()
	done := 0
	for i := 0; i < attempts; i++ {
		select {
		case <-cdone:
			return found
		default:
		}
		for _, sz := range sizes {
			t := Sample(seedStart+int64(i), sz)
			ok, err := check(t)
			if err != nil {
				return found // canceled mid-check; report what we have
			}
			if ok {
				found = append(found, Candidate{Type: t, Seed: seedStart + int64(i), NumValues: sz})
			}
		}
		done++
		if progress != nil && progressEvery > 0 && done%progressEvery == 0 {
			progress(done)
		}
	}
	return found
}
