package engine

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/graphstore"
	"repro/internal/model"
	"repro/internal/proto"
)

// TestGraphCacheWarmRestart is the persistence acceptance criterion at
// the engine layer: a second process (fresh cache, fresh store over the
// same directory) serves a previously-checked protocol with zero new
// node expansions and byte-identical results.
func TestGraphCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	p := proto.NewCASRecoverable(2)
	reqs := []CheckRequest{
		{Inputs: []int{0, 1}},
		{Inputs: []int{0, 1}, CrashQuota: []int{1, 1}},
	}

	// First life: expand, then flush on "shutdown".
	s1, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewGraphCache(0)
	c1.SetStore(s1)
	e1 := New(WithGraphCache(c1))
	var want []batchObservable
	for _, req := range reqs {
		r, err := e1.Check(p, req)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, observe(r))
	}
	if err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	st1 := c1.Stats()
	if st1.Store == nil || st1.Store.Spills == 0 || st1.Store.SpilledNodes == 0 {
		t.Fatalf("first life spilled nothing: %+v", st1.Store)
	}

	// Second life: the same directory through fresh everything.
	s2, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewGraphCache(0)
	c2.SetStore(s2)
	e2 := New(WithGraphCache(c2))
	g, err := c2.Get(p, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	before := g.Stats()
	if before.Expanded == 0 {
		t.Fatal("warm load imported no expansions")
	}
	for i, req := range reqs {
		r, err := e2.Check(p, req)
		if err != nil {
			t.Fatal(err)
		}
		if got := observe(r); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("restarted check %d diverged:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	if after := g.Stats(); after.Expanded != before.Expanded {
		t.Fatalf("restarted checks expanded %d new nodes, want 0", after.Expanded-before.Expanded)
	}
	st2 := c2.Stats()
	if st2.Store == nil || st2.Store.Loads != 1 || st2.Store.LoadedNodes == 0 {
		t.Fatalf("second life did not warm-load: %+v", st2.Store)
	}
}

// TestGraphCacheSyncSpillsAsync: Sync alone (no Flush) persists a dirty
// graph, and a clean graph re-Synced spills nothing new.
func TestGraphCacheSyncSpillsAsync(t *testing.T) {
	dir := t.TempDir()
	s, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewGraphCache(0)
	c.SetStore(s)
	e := New(WithGraphCache(c))
	p := proto.NewCASWaitFree(2)
	if _, err := e.Check(p, CheckRequest{Inputs: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	// The spill is asynchronous; wait for its counters.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := c.Stats(); st.Store != nil && st.Store.Spills > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async spill never landed: %+v", c.Stats().Store)
		}
		time.Sleep(time.Millisecond)
	}
	spilled := c.Stats().Store.SpilledNodes
	// Warm repeat: nothing new to spill.
	if _, err := e.Check(p, CheckRequest{Inputs: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Store.SpilledNodes != spilled {
		t.Fatalf("clean graph spilled %d more nodes", st.Store.SpilledNodes-spilled)
	}
}

// TestGraphCacheEvictionSpills: evicting a dirty graph persists it, so
// the next Get of that key warm-loads instead of re-expanding. Flush
// waits for the eviction's spill, so the warm load follows it at once.
func TestGraphCacheEvictionSpills(t *testing.T) {
	dir := t.TempDir()
	s, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewGraphCache(1) // one-node budget: every new graph evicts the last
	c.SetStore(s)
	e := New(WithGraphCache(c))
	pA := proto.NewCASWaitFree(2)
	pB := proto.NewTASConsensus()
	if _, err := e.Check(pA, CheckRequest{Inputs: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	// Checking B evicts A (budget 1); the eviction must spill A.
	if _, err := e.Check(pB, CheckRequest{Inputs: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evicted == 0 || st.Store == nil || st.Store.SpilledNodes == 0 {
		t.Fatalf("evicted graph never spilled: %+v", st)
	}
	g, err := c.Get(pA, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats().Expanded == 0 {
		t.Fatalf("re-Get of the evicted graph expanded cold: %+v", g.Stats())
	}
}

// heldStore holds every Spill until release is closed, counts the
// spills in flight and signals each spill's start and end.
type heldStore struct {
	inner          GraphStore
	release        chan struct{}
	started, ended chan struct{}

	mu             sync.Mutex
	inflight, peak int
}

func (s *heldStore) Load(fp string, inputs []int) (*model.GraphSnapshot, error) {
	return s.inner.Load(fp, inputs)
}

func (s *heldStore) Spill(fp string, inputs []int, snap *model.GraphSnapshot) (int, error) {
	s.mu.Lock()
	s.inflight++
	s.peak = max(s.peak, s.inflight)
	s.mu.Unlock()
	s.started <- struct{}{}
	<-s.release
	n, err := s.inner.Spill(fp, inputs, snap)
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
	s.ended <- struct{}{}
	return n, err
}

// TestGraphCacheSpillerOneAtATime: Sync queues dirty graphs for one
// background spiller. While the spill of the first graph is held inside
// the store, the Gets (store loads included), walks and Syncs of eight
// graphs return and no second spill starts; after the release the
// spiller writes every graph, one at a time, and a fresh store loads
// each back whole.
func TestGraphCacheSpillerOneAtATime(t *testing.T) {
	dir := t.TempDir()
	raw, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hs := &heldStore{inner: raw, release: make(chan struct{}),
		started: make(chan struct{}, 32), ended: make(chan struct{}, 32)}
	released := false
	defer func() {
		if !released {
			close(hs.release)
		}
	}()
	c := NewGraphCache(0)
	c.SetStore(hs)
	recv := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(time.Minute):
			t.Fatalf("no %s within a minute", what)
		}
	}

	type key struct {
		p      model.Protocol
		inputs []int
		nodes  uint64
	}
	var keys []key
	for _, p := range []model.Protocol{proto.NewCASRecoverable(2), proto.NewCASWaitFree(2)} {
		for _, inputs := range [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
			keys = append(keys, key{p: p, inputs: inputs})
		}
	}
	for i := range keys {
		k := &keys[i]
		g, err := c.Get(k.p, k.inputs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Check(model.CheckOpts{Inputs: k.inputs}); err != nil {
			t.Fatal(err)
		}
		k.nodes = g.Stats().Interned
		c.Sync(g)
		if i == 0 {
			recv(hs.started, "spill of the first graph")
		}
	}
	if n := len(hs.started); n != 0 {
		t.Fatalf("%d more spills started while the first was held", n)
	}
	close(hs.release)
	released = true
	for range keys {
		recv(hs.ended, "spill")
	}
	hs.mu.Lock()
	peak := hs.peak
	hs.mu.Unlock()
	if peak != 1 {
		t.Fatalf("%d spills ran at once, want 1", peak)
	}
	// The store counts each spill before its end signal; the cache's
	// counters may land after it.
	var want uint64
	for _, k := range keys {
		want += k.nodes
	}
	if st := raw.Stats(); st.Errors != 0 || st.Spills != uint64(len(keys)) || st.SpilledNodes != want {
		t.Fatalf("store counters %+v, want %d spills of %d nodes and no errors", st, len(keys), want)
	}

	fresh, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		fp, err := model.Fingerprint(k.p)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := fresh.Load(fp, k.inputs)
		if err != nil || snap == nil || uint64(len(snap.Nodes)) != k.nodes {
			t.Fatalf("key %d: fresh store loads %v (err %v), want %d nodes", i, snap != nil, err, k.nodes)
		}
	}
}

// TestGraphCacheFlushWaitsForSpill: Flush called while the spiller's
// spill of a graph is held inside the store waits for that spill instead
// of exporting and spilling the graph a second time. The store sees one
// Spill of the key, and Flush returns only after it ended.
func TestGraphCacheFlushWaitsForSpill(t *testing.T) {
	raw, err := graphstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hs := &heldStore{inner: raw, release: make(chan struct{}),
		started: make(chan struct{}, 4), ended: make(chan struct{}, 4)}
	released := false
	defer func() {
		if !released {
			close(hs.release)
		}
	}()
	c := NewGraphCache(0)
	c.SetStore(hs)
	p, inputs := proto.NewCASRecoverable(2), []int{0, 1}
	g, err := c.Get(p, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Check(model.CheckOpts{Inputs: inputs, CrashQuota: []int{1, 1}}); err != nil {
		t.Fatal(err)
	}
	c.Sync(g)
	select {
	case <-hs.started:
	case <-time.After(time.Minute):
		t.Fatal("the spiller did not start within a minute")
	}

	flushed := make(chan error, 1)
	go func() { flushed <- c.Flush() }()
	// Give Flush time to reach the store if it were going to.
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned (err %v) while the spill was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(hs.release)
	released = true
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Flush did not return within a minute of the release")
	}
	if n := len(hs.ended); n != 1 {
		t.Fatalf("Flush returned after %d ended spills, want 1", n)
	}
	if n := len(hs.started); n != 0 {
		t.Fatalf("%d more spills of the key started, want the spiller's one alone", n)
	}
	if st := c.Stats().Store; st.Spills != 1 || st.SpilledNodes != g.Stats().Interned || st.Errors != 0 {
		t.Fatalf("store counters %+v, want one spill of %d nodes", st, g.Stats().Interned)
	}
}

// TestGraphCacheFlushWaitsForEvictionSpill: Flush waits for the spill
// an eviction started, though the evicted graph has left the cache. With
// the store holding the first Spill and a one-node budget, a walked
// graph is evicted by the Get of another; Flush returns only after the
// held spill ended, and the store then serves the evicted graph whole.
func TestGraphCacheFlushWaitsForEvictionSpill(t *testing.T) {
	raw, err := graphstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hs := &heldStore{inner: raw, release: make(chan struct{}),
		started: make(chan struct{}, 4), ended: make(chan struct{}, 4)}
	released := false
	defer func() {
		if !released {
			close(hs.release)
		}
	}()
	c := NewGraphCache(1)
	c.SetStore(hs)
	pA, pB, inputs := proto.NewCASWaitFree(2), proto.NewTASConsensus(), []int{0, 1}
	gA, err := c.Get(pA, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gA.Check(model.CheckOpts{Inputs: inputs}); err != nil {
		t.Fatal(err)
	}
	// No Sync: the eviction alone spills A.
	if _, err := c.Get(pB, inputs); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hs.started:
	case <-time.After(time.Minute):
		t.Fatal("the eviction did not spill the evicted graph within a minute")
	}

	flushed := make(chan error, 1)
	go func() { flushed <- c.Flush() }()
	// Give Flush time to return if it were going to.
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned (err %v) while the eviction's spill was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(hs.release)
	released = true
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Flush did not return within a minute of the release")
	}
	if n := len(hs.ended); n != 1 {
		t.Fatalf("Flush returned after %d ended spills, want the eviction's", n)
	}
	fp, err := model.Fingerprint(pA)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := raw.Load(fp, inputs); err != nil || snap == nil || uint64(len(snap.Nodes)) != gA.Stats().Interned {
		t.Fatalf("right after Flush the store loads %v (err %v), want the evicted graph's %d nodes", snap != nil, err, gA.Stats().Interned)
	}
}

// TestGraphCacheFlushSpillsConcurrently: Flush spills the graphs it
// finds dirty flushSpillers at a time, without first waiting for the
// spiller's spill in flight. With every Spill held inside the store and
// the spiller holding the first of twelve graphs, flushSpillers more
// spills start and no others; after the release Flush returns with each
// graph written once, and a fresh store loads each back whole.
func TestGraphCacheFlushSpillsConcurrently(t *testing.T) {
	dir := t.TempDir()
	raw, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hs := &heldStore{inner: raw, release: make(chan struct{}),
		started: make(chan struct{}, 32), ended: make(chan struct{}, 32)}
	released := false
	defer func() {
		if !released {
			close(hs.release)
		}
	}()
	c := NewGraphCache(0)
	c.SetStore(hs)
	recv := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(time.Minute):
			t.Fatalf("no %s within a minute", what)
		}
	}

	type key struct {
		p      model.Protocol
		inputs []int
		nodes  uint64
	}
	var keys []key
	for _, p := range []model.Protocol{proto.NewCASRecoverable(2), proto.NewCASWaitFree(2), proto.NewTASConsensus()} {
		for _, inputs := range [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
			keys = append(keys, key{p: p, inputs: inputs})
		}
	}
	for i := range keys {
		k := &keys[i]
		g, err := c.Get(k.p, k.inputs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Check(model.CheckOpts{Inputs: k.inputs}); err != nil {
			t.Fatal(err)
		}
		k.nodes = g.Stats().Interned
		if i == 0 {
			// The spiller takes the first graph; the rest stay dirty for
			// Flush.
			c.Sync(g)
			recv(hs.started, "spill of the first graph")
		}
	}

	flushed := make(chan error, 1)
	go func() { flushed <- c.Flush() }()
	for range flushSpillers {
		recv(hs.started, "Flush spill beside the spiller's")
	}
	// Give Flush time to start a spill past the bound if it were going to.
	time.Sleep(50 * time.Millisecond)
	if n := len(hs.started); n != 0 {
		t.Fatalf("%d spills past the bound of %d started", n, flushSpillers)
	}
	close(hs.release)
	released = true
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Flush did not return within a minute of the release")
	}
	if n, want := len(hs.started), len(keys)-1-flushSpillers; n != want {
		t.Fatalf("%d spills started after the release, want %d (one per graph)", n, want)
	}
	hs.mu.Lock()
	peak := hs.peak
	hs.mu.Unlock()
	if peak != 1+flushSpillers {
		t.Fatalf("%d spills ran at once, want %d", peak, 1+flushSpillers)
	}
	var want uint64
	for _, k := range keys {
		want += k.nodes
	}
	if st := raw.Stats(); st.Errors != 0 || st.Spills != uint64(len(keys)) || st.SpilledNodes != want {
		t.Fatalf("store counters %+v, want %d spills of %d nodes and no errors", st, len(keys), want)
	}

	fresh, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		fp, err := model.Fingerprint(k.p)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := fresh.Load(fp, k.inputs)
		if err != nil || snap == nil || uint64(len(snap.Nodes)) != k.nodes {
			t.Fatalf("key %d: fresh store loads %v (err %v), want %d nodes", i, snap != nil, err, k.nodes)
		}
	}
}
