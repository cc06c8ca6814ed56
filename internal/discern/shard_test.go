package discern

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/spec"
)

// TestSearchSharded pins the shard scheduler on its own, driving it with
// a synthetic check that reports a witness at planted ranks of a
// 6435-rank space: at every shard count from 1 to 8 the lowest planted
// rank wins, every worker reports once with its index below the worker
// count and Lo <= Hi, a witness-free scan checks each rank once (the
// Scanned counts sum to Count), and a canceled context returns its error
// and no witness.
func TestSearchSharded(t *testing.T) {
	space := NewTupleSpace(8, 8)
	total := space.Count()
	if total != 6435 {
		t.Fatalf("Count = %d, want C(15, 8) = 6435", total)
	}
	plants := [][]int64{nil, {0}, {total - 1}, {4000, 17}, {5000, 1111, 3210}, {6400, 6401, 6402}}
	for _, planted := range plants {
		for shards := 1; shards <= 8; shards++ {
			var mu sync.Mutex
			var reports []ShardReport
			w, err := SearchSharded(context.Background(), space, shards, plantedCheck(space, planted), func(r ShardReport) {
				mu.Lock()
				reports = append(reports, r)
				mu.Unlock()
			})
			if err != nil {
				t.Fatalf("planted %v shards=%d: %v", planted, shards, err)
			}
			switch {
			case len(planted) == 0 && w != nil:
				t.Fatalf("shards=%d: witness %d with nothing planted", shards, *w)
			case len(planted) > 0 && (w == nil || *w != slices.Min(planted)):
				t.Fatalf("planted %v shards=%d: witness %v, want rank %d", planted, shards, w, slices.Min(planted))
			}
			if len(reports) != shards {
				t.Fatalf("planted %v shards=%d: %d reports", planted, shards, len(reports))
			}
			seen := make(map[int]bool)
			var scanned int64
			found := false
			for _, r := range reports {
				if r.Shards != shards || r.Shard < 0 || r.Shard >= r.Shards || seen[r.Shard] || r.Lo > r.Hi {
					t.Fatalf("planted %v shards=%d: bad report %+v", planted, shards, r)
				}
				seen[r.Shard] = true
				scanned += r.Scanned
				found = found || r.Found
			}
			if found != (len(planted) > 0) {
				t.Errorf("planted %v shards=%d: a report says found=%v", planted, shards, found)
			}
			if len(planted) == 0 && scanned != total {
				t.Errorf("shards=%d: witness-free scan checked %d of %d ranks", shards, scanned, total)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for shards := 1; shards <= 8; shards++ {
		w, err := SearchSharded(ctx, space, shards, plantedCheck(space, []int64{0, 100}), nil)
		if !errors.Is(err, context.Canceled) || w != nil {
			t.Fatalf("canceled, shards=%d: (%v, %v), want no witness and context.Canceled", shards, w, err)
		}
	}
}

// plantedCheck is a SearchSharded check over space that reports the rank
// of each planted assignment as its witness.
func plantedCheck(space TupleSpace, planted []int64) func() func([]spec.Op) *int64 {
	return func() func([]spec.Op) *int64 {
		return func(ops []spec.Op) *int64 {
			if r := space.Rank(ops); slices.Contains(planted, r) {
				return &r
			}
			return nil
		}
	}
}

// shardedSearch decides one level on the shard scheduler: shards workers
// scan the level's symmetry-reduced space with check, which must be safe
// for concurrent use.
func shardedSearch(ctx context.Context, ft *spec.FiniteType, n, shards int, check func([]spec.Op) *Witness, onShard func(ShardReport)) (*Witness, error) {
	return SearchSharded(ctx, NewTupleSpace(ft.NumOps(), n), shards, func() func([]spec.Op) *Witness { return check }, onShard)
}

// serialScan is shardedSearch on one worker: a serial scan in the
// reference's order.
func serialScan(ft *spec.FiniteType, n int, check func([]spec.Op) *Witness) *Witness {
	w, _ := shardedSearch(context.Background(), ft, n, 1, check, nil)
	return w
}

// referenceCheck is the reference's per-assignment decision.
func referenceCheck(ft *spec.FiniteType, n int) func([]spec.Op) *Witness {
	return func(ops []spec.Op) *Witness { return checkAssignment(ft, n, ops) }
}

// TestShardedMatchesSerial is the determinism gate of the shard scheduler
// under the reference's own check: across seeded random types, n=2..4
// and shard counts {1,2,7}, the sharded scan must return the exact
// (verdict, witness) pair of the serial recursive search. Run under -race
// in CI, this also exercises the shard workers' sharing discipline.
func TestShardedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(90125))
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		ft := randomType(rng, 3+rng.Intn(3), 2+rng.Intn(2))
		for n := 2; n <= 4; n++ {
			wantOK, wantW, err := IsNDiscerningCtx(ctx, ft, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 7} {
				w, err := shardedSearch(ctx, ft, n, shards, referenceCheck(ft, n), nil)
				if err != nil {
					t.Fatal(err)
				}
				if (w != nil) != wantOK || !reflect.DeepEqual(w, wantW) {
					t.Fatalf("type %d n=%d shards=%d: got %v, serial (%v, %v)",
						i, n, shards, w, wantOK, wantW)
				}
			}
		}
	}
}

// TestShardedWitnessVerifies: sharded witnesses pass the brute-force
// verifier, exactly like serial ones.
func TestShardedWitnessVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	found := 0
	for i := 0; i < 80 && found < 10; i++ {
		ft := randomType(rng, 4, 2)
		w, err := shardedSearch(context.Background(), ft, 3, 4, referenceCheck(ft, 3), nil)
		if err != nil {
			t.Fatal(err)
		}
		if w != nil {
			found++
			verifyWitness(t, ft, w)
		}
	}
	if found == 0 {
		t.Skip("no 3-discerning random types in the sample")
	}
}

// TestShardedReports checks the per-shard progress reports of a full
// scan of a non-discerning level: every shard reports exactly once and
// the scanned counts add up to the whole space.
func TestShardedReports(t *testing.T) {
	ft := buildRegisterLike(t)
	const n, shards = 3, 4
	var mu sync.Mutex
	var reports []ShardReport
	w, err := shardedSearch(context.Background(), ft, n, shards, referenceCheck(ft, n), func(r ShardReport) {
		mu.Lock()
		reports = append(reports, r)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Fatal("a register-like type must not be 3-discerning")
	}
	space := NewTupleSpace(ft.NumOps(), n)
	if len(reports) != shards {
		t.Fatalf("got %d shard reports, want %d", len(reports), shards)
	}
	var covered, scanned int64
	for _, r := range reports {
		if r.Shards != shards || r.Hi < r.Lo {
			t.Errorf("bad report %+v", r)
		}
		covered += r.Hi - r.Lo
		scanned += r.Scanned
	}
	if covered != space.Count() || scanned != space.Count() {
		t.Errorf("shards covered %d and scanned %d of %d assignments",
			covered, scanned, space.Count())
	}
}

// TestShardedCancellation: a canceled context surfaces as an error, and a
// pre-canceled context does not scan at all.
func TestShardedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(5))
	ft := randomType(rng, 4, 3)
	w, err := shardedSearch(ctx, ft, 4, 4, referenceCheck(ft, 4), nil)
	if err == nil {
		t.Fatal("canceled sharded search must error")
	}
	if w != nil {
		t.Fatalf("canceled search leaked a witness: %v", w)
	}
}

// buildRegisterLike returns a small type with consensus number 1 (a
// read/write register), so every discerning level >= 2 is a full sweep.
func buildRegisterLike(t *testing.T) *spec.FiniteType {
	t.Helper()
	b := spec.NewBuilder("reg2")
	b.Values("v0", "v1")
	b.Ops("w0", "w1", "read")
	b.Transition("v0", "w0", 0, "v0")
	b.Transition("v1", "w0", 0, "v0")
	b.Transition("v0", "w1", 1, "v1")
	b.Transition("v1", "w1", 1, "v1")
	b.ReadOp("read", 100)
	return b.MustBuild()
}
