package graphstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
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

// commitKeys returns eight keys: cas-wf:2 and cas-rec:2 at each of
// their input vectors, each with its complete crash-quota-1 expansion.
func commitKeys(t *testing.T) []commitKey {
	t.Helper()
	var keys []commitKey
	for _, desc := range []string{"cas-wf:2", "cas-rec:2"} {
		pr, fp, _, _ := testProtocol(t, desc)
		for _, inputs := range [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
			g, _ := expand(t, pr, inputs, []model.CheckOpts{{Inputs: inputs, CrashQuota: []int{1, 1}}})
			keys = append(keys, commitKey{pr: pr, fp: fp, inputs: inputs, g: g})
		}
	}
	return keys
}

// commitKey is one graph of the group-commit tests.
type commitKey struct {
	pr     model.Protocol
	fp     string
	inputs []int
	g      *model.Graph
}

// TestStoreGroupCommit holds one spill's fsync once the log exists and
// spills seven other keys meanwhile: each writes its page but returns
// only after that fsync, and after the release one more fsync covers
// all seven. Each spill returns its record count, and a fresh Open
// loads all eight keys back whole.
func TestStoreGroupCommit(t *testing.T) {
	keys := commitKeys(t)
	dir := t.TempDir()
	s, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The first key's capped walk creates the log; its completion is the
	// spill whose fsync is held.
	first := keys[0]
	capped, err := model.NewGraph(first.pr, first.inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := capped.Check(model.CheckOpts{Inputs: first.inputs, MaxNodes: 4}); err != nil {
		t.Fatal(err)
	}
	partial := capped.Export()
	if _, err := s.Spill(first.fp, first.inputs, partial); err != nil {
		t.Fatal(err)
	}
	full := first.g.Export()
	wantFirst := len(full.Nodes) - len(partial.Nodes)
	for i, nd := range partial.Nodes {
		if !nd.Done && full.Nodes[i].Done {
			wantFirst++
		}
	}

	// The seven spills' pages, measured in a store of their own: a key's
	// page is the same bytes whichever log it lands in.
	scratch, err := graphstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[1:] {
		if _, err := scratch.Spill(k.fp, k.inputs, k.g.Export()); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(filepath.Join(scratch.Dir(), graphstore.LogName))
	if err != nil {
		t.Fatal(err)
	}
	sevenPages := fi.Size() - logHeaderLen

	var fsyncs atomic.Int32
	held, release := make(chan struct{}), make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	s.HookSync(func(fsync func() error) error {
		if fsyncs.Add(1) == 1 {
			close(held)
			<-release
		}
		return fsync()
	})
	type result struct {
		i, n int
		err  error
	}
	done := make(chan result, len(keys))
	go func() {
		n, err := s.Spill(first.fp, first.inputs, full)
		done <- result{0, n, err}
	}()
	select {
	case <-held:
	case <-time.After(time.Minute):
		t.Fatal("the first key's spill did not reach its fsync within a minute")
	}
	path := filepath.Join(dir, graphstore.LogName)
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	want := fi.Size() + sevenPages
	for i := 1; i < len(keys); i++ {
		go func() {
			n, err := s.Spill(keys[i].fp, keys[i].inputs, keys[i].g.Export())
			done <- result{i, n, err}
		}()
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == want {
			break
		}
		if fi.Size() > want || time.Now().After(deadline) {
			t.Fatalf("the log holds %d bytes, want %d once the seven spills wrote", fi.Size(), want)
		}
	}
	// Give a spill time to return before the held fsync if it would.
	select {
	case r := <-done:
		t.Fatalf("the spill of key %d returned (n %d, err %v) while the fsync was held", r.i, r.n, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	released = true
	for range keys {
		select {
		case r := <-done:
			wantN := len(keys[r.i].g.Export().Nodes)
			if r.i == 0 {
				wantN = wantFirst
			}
			if r.err != nil || r.n != wantN {
				t.Fatalf("the spill of key %d wrote %d records (err %v), want %d", r.i, r.n, r.err, wantN)
			}
		case <-time.After(time.Minute):
			t.Fatal("a spill did not return within a minute of the release")
		}
	}
	if n := fsyncs.Load(); n != 2 {
		t.Fatalf("%d fsyncs, want the held one and one covering the seven spills", n)
	}

	fresh, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if got, err := fresh.Load(k.fp, k.inputs); err != nil || !reflect.DeepEqual(got, k.g.Export()) {
			t.Fatalf("key %d does not load back whole (err %v)", i, err)
		}
	}
}

// TestStoreSyncErrorFailsLaterSpills fails one fsync of the log: the
// spill it was to cover fails with it, and every later spill of the
// store fails too, without writing, though fsync works again.
func TestStoreSyncErrorFailsLaterSpills(t *testing.T) {
	keys := commitKeys(t)
	dir := t.TempDir()
	s, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spill(keys[0].fp, keys[0].inputs, keys[0].g.Export()); err != nil {
		t.Fatal(err)
	}
	errDisk := errors.New("injected fsync failure")
	s.HookSync(func(func() error) error { return errDisk })
	if n, err := s.Spill(keys[1].fp, keys[1].inputs, keys[1].g.Export()); !errors.Is(err, errDisk) || n != 0 {
		t.Fatalf("spill whose fsync failed: %d records, err %v; want 0 and the fsync's error", n, err)
	}
	path := filepath.Join(dir, graphstore.LogName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.HookSync(func(fsync func() error) error { return fsync() })
	for _, k := range keys[2:4] {
		if n, err := s.Spill(k.fp, k.inputs, k.g.Export()); !errors.Is(err, errDisk) || n != 0 {
			t.Fatalf("spill after the failed fsync: %d records, err %v; want 0 and the fsync's error", n, err)
		}
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("a spill after the failed fsync wrote to the log")
	}
	if st := s.Stats(); st.Spills != 1 || st.Errors != 3 {
		t.Fatalf("counters %+v, want one spill and three errors", st)
	}
	fresh, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fresh.Load(keys[0].fp, keys[0].inputs); err != nil || !reflect.DeepEqual(got, keys[0].g.Export()) {
		t.Fatalf("the key spilled before the failure does not load back whole (err %v)", err)
	}
}
