package decider

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/discern"
	"repro/internal/record"
	"repro/internal/spec"
	"repro/internal/types"
)

func TestBitsetRejectsLargeN(t *testing.T) {
	ctx := context.Background()
	want := CheckN(BitsetMaxN + 1)
	if want == nil || !strings.Contains(want.Error(), fmt.Sprint(BitsetMaxN)) {
		t.Fatalf("CheckN(%d) = %v, want an error naming the cap", BitsetMaxN+1, want)
	}
	if _, _, err := IsNDiscerning(ctx, types.Register(2), BitsetMaxN+1, 1, nil); err == nil || err.Error() != want.Error() {
		t.Fatalf("discerning n=%d: err = %v, want %v", BitsetMaxN+1, err, want)
	}
	if _, _, err := IsNRecording(ctx, types.Register(2), BitsetMaxN+1, 1, nil); err == nil || err.Error() != want.Error() {
		t.Fatalf("recording n=%d: err = %v, want %v", BitsetMaxN+1, err, want)
	}
	if err := CheckN(BitsetMaxN); err != nil {
		t.Fatalf("CheckN(%d) = %v, want nil", BitsetMaxN, err)
	}
}

func TestBitsetPanicsBelowTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=1 did not panic")
		}
	}()
	IsNDiscerning(context.Background(), types.Register(2), 1, 1, nil)
}

// zoo is the reference-equivalence corpus: a spread of object types
// whose level structure the repository already knows from the reference
// deciders' own tests.
func zoo() map[string]*spec.FiniteType {
	return map[string]*spec.FiniteType{
		"register2":   types.Register(2),
		"tas":         types.TestAndSet(),
		"swap2":       types.Swap(2),
		"fa3":         types.FetchAdd(3),
		"cas2":        types.CompareAndSwap(2),
		"sticky":      types.StickyBit(),
		"counter3":    types.Counter(3),
		"maxreg3":     types.MaxRegister(3),
		"queue2":      types.Queue(2),
		"stack2":      types.Stack(2),
		"trivial":     types.Trivial(),
		"tnn32":       types.Tnn(3, 2),
		"tnn42":       types.Tnn(4, 2),
		"swapXsticky": types.Product(types.Swap(2), types.StickyBit()),
	}
}

// TestBitsetMatchesSearch asserts the byte-identity contract directly on
// the zoo: the sweep returns the recursive reference's decision and a
// DeepEqual witness for both properties, serial and sharded.
func TestBitsetMatchesSearch(t *testing.T) {
	ctx := context.Background()
	for name, ft := range zoo() {
		for n := 2; n <= 4; n++ {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				sOK, sDW, err := discern.IsNDiscerningCtx(ctx, ft, n, discern.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sOK2, sRW, err := record.IsNRecordingCtx(ctx, ft, n, record.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{1, 2, 7} {
					bOK, bDW, err := IsNDiscerning(ctx, ft, n, shards, nil)
					if err != nil {
						t.Fatal(err)
					}
					if sOK != bOK || !reflect.DeepEqual(sDW, bDW) {
						t.Errorf("shards=%d discerning diverged: reference=(%v,%v) bitset=(%v,%v)", shards, sOK, sDW, bOK, bDW)
					}
					bOK2, bRW, err := IsNRecording(ctx, ft, n, shards, nil)
					if err != nil {
						t.Fatal(err)
					}
					if sOK2 != bOK2 || !reflect.DeepEqual(sRW, bRW) {
						t.Errorf("shards=%d recording diverged: reference=(%v,%v) bitset=(%v,%v)", shards, sOK2, sRW, bOK2, bRW)
					}
				}
			})
		}
	}
}

// TestBitsetHonorsCancellation mirrors the reference deciders'
// contract: a canceled context aborts the sweep with ctx.Err().
func TestBitsetHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := IsNDiscerning(ctx, types.Tnn(4, 2), 4, 1, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, _, err := IsNRecording(ctx, types.Tnn(4, 2), 4, 1, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
