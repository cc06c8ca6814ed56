package record

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/discern"
	"repro/internal/spec"
)

// shardedSearch decides one level on discern's shard scheduler: shards
// workers scan the level's symmetry-reduced space with check, which must
// be safe for concurrent use.
func shardedSearch(ctx context.Context, ft *spec.FiniteType, n, shards int, check func([]spec.Op) *Witness) (*Witness, error) {
	return discern.SearchSharded(ctx, discern.NewTupleSpace(ft.NumOps(), n), shards, func() func([]spec.Op) *Witness { return check }, nil)
}

// serialScan is shardedSearch on one worker: a serial scan in the
// reference's order.
func serialScan(ft *spec.FiniteType, n int, check func([]spec.Op) *Witness) *Witness {
	w, _ := shardedSearch(context.Background(), ft, n, 1, check)
	return w
}

// referenceCheck is the reference's per-assignment decision.
func referenceCheck(ft *spec.FiniteType, n int) func([]spec.Op) *Witness {
	return func(ops []spec.Op) *Witness { return checkAssignment(ft, n, ops) }
}

// TestShardedMatchesSerial mirrors the discerning-side determinism gate
// for the recording check on the shard scheduler: seeded random types,
// n=2..4, shard counts {1,2,7}, byte-identical (verdict, witness) against
// the serial recursive search. Run under -race in CI.
func TestShardedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(60607))
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		ft := randomType(rng, 3+rng.Intn(3), 2+rng.Intn(2))
		for n := 2; n <= 4; n++ {
			wantOK, wantW, err := IsNRecordingCtx(ctx, ft, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 7} {
				w, err := shardedSearch(ctx, ft, n, shards, referenceCheck(ft, n))
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

// TestShardedWitnessVerifies: sharded recording witnesses pass the
// brute-force verifier.
func TestShardedWitnessVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	found := 0
	for i := 0; i < 100 && found < 10; i++ {
		ft := randomType(rng, 4, 2)
		w, err := shardedSearch(context.Background(), ft, 3, 4, referenceCheck(ft, 3))
		if err != nil {
			t.Fatal(err)
		}
		if w != nil {
			found++
			verifyWitness(t, ft, w)
		}
	}
	if found == 0 {
		t.Skip("no 3-recording random types in the sample")
	}
}

// TestShardedCancellation: a pre-canceled context errors without leaking
// a result.
func TestShardedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(5))
	ft := randomType(rng, 4, 3)
	w, err := shardedSearch(ctx, ft, 4, 4, referenceCheck(ft, 4))
	if err == nil {
		t.Fatal("canceled sharded search must error")
	}
	if w != nil {
		t.Fatalf("canceled search leaked a witness: %v", w)
	}
}
