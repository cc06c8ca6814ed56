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
// Theorem 5) and rcons = n-2 (the paper's Theorem 14). It is
// HasXSignatureDecider on the production level decider
// (internal/decider), run serially with no cache; n must be at least 4,
// and n above decider.BitsetMaxN reads as false.
func HasXSignature(t *spec.FiniteType, n int) bool {
	ok, _ := HasXSignatureDecider(serialDecider{}, t, n)
	return ok
}

// serialDecider is the LevelDecider HasXSignature runs: the production
// level decider on one worker.
type serialDecider struct{}

func (serialDecider) Discerning(t *spec.FiniteType, n int) (bool, *discern.Witness, error) {
	return decider.IsNDiscerning(context.Background(), t, n, 1, nil)
}

func (serialDecider) Recording(t *spec.FiniteType, n int) (bool, *record.Witness, error) {
	return decider.IsNRecording(context.Background(), t, n, 1, nil)
}

// LevelDecider is the slice of the analysis engine's API the signature
// check needs: decide one level of one property, however the
// implementation wants to (memoized, sharded, persistent).
// *engine.Engine satisfies it.
type LevelDecider interface {
	Discerning(t *spec.FiniteType, n int) (bool, *discern.Witness, error)
	Recording(t *spec.FiniteType, n int) (bool, *record.Witness, error)
}

// HasXSignatureDecider checks the X_n signature (see HasXSignature) with
// every level check routed through d. Driven by an engine, the checks are
// cached by type fingerprint — a re-run over the same seeds (for instance
// resuming an interrupted sweep against a persistent -cache-file) skips
// straight through already-decided candidates — and large enumerations
// shard across the engine's idle workers automatically. The checks are
// ordered cheapest-first; cancellation arrives via d's own context as an
// error. n must be at least 4; n above decider.BitsetMaxN is rejected
// with decider.CheckN's error before any level runs.
func HasXSignatureDecider(d LevelDecider, t *spec.FiniteType, n int) (bool, error) {
	if n < 4 {
		panic(fmt.Sprintf("xsearch: X_n signature needs n >= 4, got %d", n))
	}
	if err := decider.CheckN(n); err != nil {
		return false, err
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

// SearchDecider samples candidates with seeds [seedStart,
// seedStart+attempts) and value-set sizes in sizes, returning every
// candidate with the X_n signature (possibly none), with each candidate's
// signature checks routed through d (see HasXSignatureDecider).
// progress, if non-nil, is called every progressEvery attempts with the
// attempt count. The context is polled once per attempt, and d is
// expected to honor its own context mid-check, as an engine does; once
// ctx is done, the candidates found so far are returned with no error.
// Any other signature-check error (n above the decider's cap, say) stops
// the sweep and is returned.
func SearchDecider(ctx context.Context, d LevelDecider, n int, seedStart int64, attempts int, sizes []int, progressEvery int, progress func(done int)) ([]Candidate, error) {
	var found []Candidate
	cdone := ctx.Done()
	done := 0
	for i := 0; i < attempts; i++ {
		select {
		case <-cdone:
			return found, nil
		default:
		}
		for _, sz := range sizes {
			t := Sample(seedStart+int64(i), sz)
			ok, err := HasXSignatureDecider(d, t, n)
			if err != nil {
				if ctx.Err() != nil {
					return found, nil // canceled mid-check; report what we have
				}
				return found, err
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
	return found, nil
}
