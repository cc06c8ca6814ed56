package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/discern"
	"repro/internal/record"
	"repro/internal/spec"
	"repro/internal/types"
)

// sharding lowers e's shard threshold to 1, so every level of more than
// one assignment shards whenever workers are idle.
func sharding(e *Engine) *Engine {
	e.shardThreshold = 1
	return e
}

// TestShardedEngineMatchesSerial: an engine forced to shard every level
// (threshold 1) produces the same Analysis as the serial core facade on
// the full zoo.
func TestShardedEngineMatchesSerial(t *testing.T) {
	const maxN = 4
	eng := sharding(New(WithParallelism(4), WithMaxN(maxN)))
	for _, ft := range zoo() {
		want, err := core.Analyze(ft, maxN)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Analyze(ft)
		if err != nil {
			t.Fatal(err)
		}
		sameAnalysis(t, ft.Name(), got, want)
	}
}

// TestLevelAPI: the single-level Discerning/Recording calls agree with
// the serial deciders, shard when the space is large, and feed the same
// cache Analyze consults.
func TestLevelAPI(t *testing.T) {
	cache := NewCache()
	eng := sharding(New(WithParallelism(4), WithCache(cache)))
	ft := types.Tnn(4, 2)

	ok, w, err := eng.Discerning(ft, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantOK, wantW := discern.IsNDiscerning(ft, 4)
	if ok != wantOK || (w == nil) != (wantW == nil) {
		t.Fatalf("Discerning(tnn42, 4) = (%v, %v), serial (%v, %v)", ok, w, wantOK, wantW)
	}
	if w != nil && w.String() != wantW.String() {
		t.Fatalf("sharded witness %s, serial %s", w, wantW)
	}

	rok, rw, err := eng.Recording(ft, 2)
	if err != nil {
		t.Fatal(err)
	}
	rWantOK, rWantW := record.IsNRecording(ft, 2)
	if rok != rWantOK || (rw == nil) != (rWantW == nil) {
		t.Fatalf("Recording(tnn42, 2) = (%v, %v), serial (%v, %v)", rok, rw, rWantOK, rWantW)
	}

	// The level decisions must land in the shared cache: an Analyze over
	// the same type re-serves them.
	_, misses0, _ := cache.Stats()
	if _, err := eng.AnalyzeTo(ft, 4); err != nil {
		t.Fatal(err)
	}
	_, misses1, _ := cache.Stats()
	if misses1-misses0 != 2*3-2 {
		t.Errorf("Analyze after level calls recomputed %d levels, want %d new only",
			misses1-misses0, 2*3-2)
	}

	if _, _, err := eng.Discerning(ft, 1); err == nil {
		t.Error("Discerning with n=1 must error, not panic")
	}
	if _, _, err := eng.Recording(ft, 0); err == nil {
		t.Error("Recording with n=0 must error, not panic")
	}
}

// TestShardEvents: a dedicated large-level call on a sharding engine
// emits per-shard progress events bracketed by the usual level event.
func TestShardEvents(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	eng := sharding(New(WithParallelism(4), WithProgress(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})))
	ft := types.Tnn(4, 2)
	if _, _, err := eng.Discerning(ft, 3); err != nil {
		t.Fatal(err)
	}
	var shardEvents, levelEvents int
	for _, ev := range events {
		switch ev.Kind {
		case "shard.done":
			shardEvents++
			if ev.Property != Discerning || ev.N != 3 || ev.Shard < 0 || ev.Shard >= ev.Shards {
				t.Errorf("malformed shard event %+v", ev)
			}
		case "level.done":
			levelEvents++
		}
	}
	if shardEvents == 0 {
		t.Error("no shard.done events from a sharded level check")
	}
	if levelEvents != 1 {
		t.Errorf("got %d level.done events, want 1", levelEvents)
	}
}

// TestShardsFor pins the auto-sharding policy: one-worker and busy pools
// and small levels stay serial; an otherwise-idle pool claims every
// worker.
func TestShardsFor(t *testing.T) {
	big := types.Tnn(5, 2) // plenty of ops: a large assignment space at n=5
	small := types.Register(2)
	for _, tc := range []struct {
		name   string
		eng    *Engine
		t      *typeArg
		active int
		want   int
	}{
		// The default threshold must activate for a real huge level
		// (Tnn(5,2) at n=6 is the benchmark workload: 28 assignments,
		// ~80ms serial) while keeping genuinely small levels serial.
		{"default-huge-level", New(WithParallelism(8)), &typeArg{big, 6}, 1, 8},
		{"serial-pool", New(WithParallelism(1)), &typeArg{big, 5}, 1, 1},
		{"small-level", New(WithParallelism(8)), &typeArg{small, 2}, 1, 1},
		{"idle-pool", sharding(New(WithParallelism(8))), &typeArg{big, 5}, 1, 8},
		{"busy-pool", sharding(New(WithParallelism(8))), &typeArg{big, 5}, 8, 1},
		{"half-busy", sharding(New(WithParallelism(8))), &typeArg{big, 5}, 4, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.eng.active.Store(int32(tc.active))
			if got := tc.eng.shardsFor(tc.t.ft, tc.t.n); got != tc.want {
				t.Errorf("shardsFor=%d, want %d", got, tc.want)
			}
		})
	}
}

type typeArg struct {
	ft *spec.FiniteType
	n  int
}

// TestShardedCancellationThroughEngine: a deadline interrupts a sharded
// huge-level search promptly. XFive's n=15 discerning level takes about
// 2.5s sharded four ways on a 2-vCPU Xeon VM, over 400x the deadline.
func TestShardedCancellationThroughEngine(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	eng := sharding(New(WithContext(ctx), WithParallelism(4)))
	start := time.Now()
	_, _, err := eng.Discerning(types.XFive(), 15)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadlined sharded level: err=%v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %s, want well under the full search time", elapsed)
	}
}
