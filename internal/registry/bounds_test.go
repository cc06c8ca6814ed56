package registry

import (
	"strings"
	"testing"
	"time"
)

// protocolPool is the /v1/check protocol pool of bench/reprodbench.
var protocolPool = []string{
	"cas-wf:2", "cas-wf:3", "cas-rec:2", "cas-rec:3", "tas-reg",
	"tnn-wf:3,2", "tnn-wf:4,2", "tnn-wf:5,2,3", "tnn-rec:4,2", "tnn-rec:5,3",
}

// fastest runs fn a few times and returns its fastest run, so a stray
// GC pause or preemption does not decide a timing assertion.
func fastest(fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		start := time.Now()
		fn()
		best = min(best, time.Since(start))
	}
	return best
}

// TestOversizedDescriptorsFailFast checks that the descriptor bounds
// reject oversized input before anything is built: each of these took
// seconds and hundreds of megabytes to build before the bounds existed.
func TestOversizedDescriptorsFailFast(t *testing.T) {
	long := "product:" + strings.Repeat("tas,", 40) + "tas"
	cases := []struct {
		desc     string
		protocol bool
		bound    string
	}{
		{"faa:1000000", false, "maximum of 128"},
		{"register:1000", false, "maximum of 128"},
		{"product:faa:1000,faa:1000", false, "maximum of 128"},
		{long, false, "maximum of 128"},
		{"tnn-wf:100000,1", true, "maximum of 128"},
		{"cas-rec:" + strings.Repeat("1", 200), true, "maximum of 128"},
	}
	for _, c := range cases {
		t.Run(c.desc[:min(len(c.desc), 32)], func(t *testing.T) {
			var err error
			elapsed := fastest(func() {
				if c.protocol {
					_, err = ParseProtocol(c.desc)
				} else {
					_, err = Parse(c.desc)
				}
			})
			if err == nil || !strings.Contains(err.Error(), c.bound) {
				t.Fatalf("error %v, want one naming the bound (%q)", err, c.bound)
			}
			if elapsed > time.Millisecond {
				t.Errorf("rejected after %v, want within a millisecond", elapsed)
			}
		})
	}
}

// TestProductCellBound checks that a product whose table would exceed
// MaxProductCells is rejected, and that one exactly at the bound builds.
func TestProductCellBound(t *testing.T) {
	_, err := Parse("product:y:128,faa:128")
	if err == nil || !strings.Contains(err.Error(), "maximum of 65536") {
		t.Fatalf("y:128 × faa:128 (163840 cells): error %v, want the cell bound", err)
	}
	ft, err := Parse("product:faa:128,counter:128")
	if err != nil {
		t.Fatal(err)
	}
	if cells := ft.NumValues() * ft.NumOps(); cells != MaxProductCells {
		t.Fatalf("faa:128 × counter:128 has %d cells, want exactly the bound %d", cells, MaxProductCells)
	}
}

// TestBoundsAdmitRepoDescriptors checks that every protocol descriptor
// the repository uses — the bench pool and the README's — still parses
// under the bounds. TestFingerprintsGolden does the same for types.
func TestBoundsAdmitRepoDescriptors(t *testing.T) {
	protocols := append(append([]string(nil), protocolPool...),
		"tnn-rec:3,2", "tnn-rec:3,2,2", "tnn-wf:5,2", "tnn-wf:3,1", "cas-rec:2")
	for _, desc := range protocols {
		if _, err := ParseProtocol(desc); err != nil {
			t.Errorf("ParseProtocol(%q): %v", desc, err)
		}
	}
}
