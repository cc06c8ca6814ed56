package graphstore_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/graphstore"
	"repro/internal/model"
	"repro/internal/registry"
)

// TestStoreOtherKeysProceed holds key A's lock, as a spill of A holds it
// inside its fsync, and requires a load and a spill of key B to return
// meanwhile, and a load of A to return only after the release.
func TestStoreOtherKeysProceed(t *testing.T) {
	prA, fpA, inA, walksA := testProtocol(t, "cas-wf:2")
	prB, fpB, inB, walksB := testProtocol(t, "cas-rec:2")
	s, err := graphstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gA, _ := expand(t, prA, inA, walksA)
	snapA := gA.Export()
	if _, err := s.Spill(fpA, inA, snapA); err != nil {
		t.Fatal(err)
	}
	gB, _ := expand(t, prB, inB, walksB)
	snapB := gB.Export()

	release := s.HoldKey(fpA, inA)
	loadedA := make(chan error, 1)
	go func() {
		got, err := s.Load(fpA, inA)
		if err == nil && !reflect.DeepEqual(got, snapA) {
			err = errors.New("key A does not load back to its export")
		}
		loadedA <- err
	}()
	doneB := make(chan error, 1)
	go func() {
		if snap, err := s.Load(fpB, inB); err != nil || snap != nil {
			doneB <- fmt.Errorf("load of key B: snapshot %v, err %v; want a miss", snap != nil, err)
			return
		}
		n, err := s.Spill(fpB, inB, snapB)
		if err == nil && n != len(snapB.Nodes) {
			err = fmt.Errorf("spill of key B wrote %d of %d records", n, len(snapB.Nodes))
		}
		doneB <- err
	}()

	select {
	case err := <-doneB:
		if err != nil {
			release()
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		release()
		t.Fatal("load and spill of key B blocked while key A was held")
	}
	select {
	case err := <-loadedA:
		t.Fatalf("load of key A returned while its key was held (err %v)", err)
	default:
	}
	release()
	if err := <-loadedA; err != nil {
		t.Fatal(err)
	}
	if got, err := s.Load(fpB, inB); err != nil || !reflect.DeepEqual(got, snapB) {
		t.Fatalf("key B does not load back to its export (err %v)", err)
	}
	if st := s.Stats(); st.Errors != 0 || st.Spills != 2 || st.Loads != 2 || st.Misses != 1 {
		t.Fatalf("unexpected counters %+v", st)
	}
}

// TestStoreConcurrentKeys spills growing exports of eight distinct keys
// from one goroutine each — a crash-free walk, then a crash-quota walk —
// while other goroutines load the same keys and read the counters. A
// fresh Open must then load every key back equal to its last export, and
// the counters must add up to what the spills returned.
func TestStoreConcurrentKeys(t *testing.T) {
	type key struct {
		pr     model.Protocol
		fp     string
		inputs []int
	}
	var keys []key
	for _, desc := range []string{"cas-wf:3", "cas-rec:3"} {
		pr, err := registry.ParseProtocol(desc)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := model.Fingerprint(pr)
		if err != nil {
			t.Fatal(err)
		}
		for _, inputs := range [][]int{{0, 0, 1}, {0, 1, 0}, {1, 0, 1}, {1, 1, 0}} {
			keys = append(keys, key{pr, fp, inputs})
		}
	}
	dir := t.TempDir()
	s, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Every goroutine starts at once, so the first loads race the first
	// spills and find no file yet.
	start := make(chan struct{})
	last := make([]*model.GraphSnapshot, len(keys))
	spills := make([]uint64, len(keys))
	records := make([]uint64, len(keys))
	var spillers sync.WaitGroup
	for i, k := range keys {
		spillers.Add(1)
		go func() {
			defer spillers.Done()
			<-start
			g, err := model.NewGraph(k.pr, k.inputs)
			if err != nil {
				t.Error(err)
				return
			}
			for _, opts := range []model.CheckOpts{
				{Inputs: k.inputs},
				{Inputs: k.inputs, CrashQuota: []int{1, 1, 1}},
			} {
				if _, err := g.Check(opts); err != nil {
					t.Error(err)
					return
				}
				snap := g.Export()
				n, err := s.Spill(k.fp, k.inputs, snap)
				if err != nil {
					t.Errorf("spill of key %d: %v", i, err)
					return
				}
				if n > 0 {
					spills[i]++
					records[i] += uint64(n)
				}
				last[i] = snap
			}
		}()
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			<-start
			for {
				for _, k := range keys {
					if _, err := s.Load(k.fp, k.inputs); err != nil {
						t.Errorf("concurrent load: %v", err)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		<-start
		var prev graphstore.Stats
		for {
			st := s.Stats()
			if st.Spills < prev.Spills || st.SpilledNodes < prev.SpilledNodes || st.Loads < prev.Loads || st.Misses < prev.Misses {
				t.Errorf("counters went backwards: %+v after %+v", st, prev)
				return
			}
			prev = st
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	close(start)
	spillers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	var wantSpills, wantRecords uint64
	for i := range keys {
		wantSpills += spills[i]
		wantRecords += records[i]
	}
	if st := s.Stats(); st.Errors != 0 || st.Spills != wantSpills || st.SpilledNodes != wantRecords {
		t.Fatalf("counters %+v, want no errors, %d spills and %d spilled nodes", st, wantSpills, wantRecords)
	}
	fresh, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		got, err := fresh.Load(k.fp, k.inputs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, last[i]) {
			t.Fatalf("key %d (inputs %v) does not load back to its last export", i, k.inputs)
		}
	}
}
