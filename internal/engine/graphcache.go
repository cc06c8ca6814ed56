package engine

import (
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// DefaultGraphCacheBudget is the node budget NewGraphCache selects for a
// budget <= 0, an engine's private cache included: the total number of
// interned exploration-graph nodes retained across all cached graphs
// (roughly two default-sized model-checker explorations).
const DefaultGraphCacheBudget = 4_000_000

// GraphStore is the persistence backend a GraphCache can spill to and
// warm-load from (internal/graphstore.Store implements it). Load
// returns (nil, nil) on a clean miss; Spill persists a snapshot's
// growth beyond what the store already holds and reports the node
// records written. Implementations must be safe for concurrent use.
type GraphStore interface {
	Load(fp string, inputs []int) (*model.GraphSnapshot, error)
	Spill(fp string, inputs []int, snap *model.GraphSnapshot) (int, error)
}

// GraphCache is a bounded LRU of live exploration graphs, keyed by
// protocol identity plus input vector, shared by Engine.Check,
// Engine.CheckBatch and Engine.Theorem13 — and, via WithGraphCache, by
// any number of engines (the reprod service installs one server-wide
// cache into its per-request engines). A cached graph keeps every node
// expansion it has ever performed, so repeated checks of the same
// protocol and inputs walk a warm graph and expand nothing.
//
// A protocol value is compiled once per cache: model.Compile validates
// it, builds its transition tables (the closure over its reachable
// local states) and hashes its fingerprint, off the cache lock, and the
// cache keeps the compiled machine for every later Get of that value.
// Every graph of the value, one per input vector, is built from that one
// machine and shares its tables. A miss builds only the graph's shell
// under the cache lock, and with a store the disk load and import run
// there too; expansion stays lazy, in the graph. The lock doubles as
// singleflight: concurrent requests for the same key always share one
// graph.
//
// # Protocol identity
//
// Two Get calls share a graph exactly when their protocols have equal
// structural fingerprints (model.Fingerprint — a canonical hash of the
// reachable state machine) and their input vectors are equal.
// Protocol.Name never enters the key: a registry-built protocol and a
// user-submitted descriptor compilation that are structurally identical
// share one cached graph, and two protocols that differ in any
// transition can never alias each other no matter what they are called.
// Nodes of a shared graph carry the local-state strings of whichever
// structurally-equal protocol built it first; traces rendered from them
// may therefore use that protocol's state names.
//
// # Eviction
//
// The cache is bounded by total interned nodes, not graph count: cached
// graphs keep growing as walks expand them, so the budget is re-checked
// against live node counts on every Get and least-recently-used graphs
// are dropped until the total fits (the entry just served is never
// evicted, and a single over-budget graph is tolerated until a newer one
// displaces it). Eviction only forgets the cache's reference — walks
// holding the evicted graph finish unharmed; the next Get of that key
// rebuilds cold.
//
// # Persistence
//
// With SetStore installed, the cache is the graph store's owner: a Get
// miss tries a warm load from disk before expanding cold, Sync (called
// by the engine after walks) queues a dirty graph for the background
// spiller — walks never block on the disk — eviction spills a dirty
// victim before forgetting it, and Flush, for shutdown, spills every
// graph still dirty, up to flushSpillers at once, and waits for the
// spills in flight, evictions' included. The spiller is one goroutine
// that writes the queued graphs one at a time and exits when the queue
// is empty, so a burst of cold checks leaves one spill competing with
// the requests for CPU and disk, not one per graph. A key whose load or
// spill errored is marked store-less and served purely in memory from
// then on.
//
// # Phase histograms
//
// The cache times where graph time goes, for every engine it serves:
// each Get that returns a graph, and each walk an engine reports on one
// of its graphs, split into walks that expanded the graph and walks that
// reused it whole (PhaseSnapshots). Walks are told apart by the graph's
// Expanded counter over the walk, so concurrent walks sharing one graph
// can blur the split (one walk's expansion lands in a neighbor's delta),
// never the durations. Observing costs two atomic adds and allocates
// nothing.
type GraphCache struct {
	mu      sync.Mutex
	budget  uint64
	entries map[string]*gcEntry
	// byGraph indexes live entries by their graph, the Sync lookup.
	byGraph map[*model.Graph]*gcEntry
	// head is the most-recently-used entry, tail the eviction candidate.
	head, tail *gcEntry

	store GraphStore

	// keyBuf is the reusable key-composition scratch (guarded by mu);
	// warm Gets probe entries via an allocation-free string(keyBuf) map
	// lookup and only materialize a key string on a miss.
	keyBuf []byte
	// machines memoizes model.Compile by the Protocol interface value
	// itself (guarded by mu), so a caller re-checking the same protocol
	// value (the server's resolved registry descriptors, compiled
	// descriptors held by jobs, bench loops) pays the compile and the
	// fingerprint's SHA-256 once, not per Get, and every graph of the
	// value shares one machine. The map retains its protocol keys, which
	// is what makes interface-value keying sound: a key can never be
	// collected and have its address reused by a different protocol while
	// the memo still maps it. It holds at most fpMemoCap entries, never
	// evicted, and dies with the cache.
	machines map[model.Protocol]*model.Machine

	hits, misses, evicted uint64
	st                    GraphStoreStats

	// queue[qhead:] holds the entries Sync queued for the spiller, oldest
	// first; draining reports whether the spiller goroutine runs. An
	// entry taken over by an eviction or Flush stays in the queue with
	// its queued flag cleared, and the spiller skips it.
	queue    []*gcEntry
	qhead    int
	draining bool
	// spills counts the background spills in flight, the spiller's and
	// evictions'; spillEnded is broadcast, under mu, when one ends. Flush
	// waits on it until none is left, evicted graphs' included.
	spills     int
	spillEnded sync.Cond

	// resolve, expand and walk are the phase histograms (lock-free).
	resolve, expand, walk obs.Histogram
}

// gcEntry is one cached graph on the intrusive LRU list.
type gcEntry struct {
	key        string
	g          *model.Graph
	prev, next *gcEntry

	// fp and inputs are the graph's store identity (the two halves of
	// key).
	fp     string
	inputs []int
	// spilledNodes/spilledExpanded are the snapshot counts known durable;
	// the entry is dirty while the live graph is ahead of them.
	spilledNodes    uint64
	spilledExpanded uint64
	// queued marks an entry waiting in the spiller's queue; spilling
	// gates the one async spill in flight per entry.
	queued, spilling bool
	// noStore marks an entry the store cannot serve (load/spill error or
	// import validation failure): it lives purely in memory.
	noStore bool
}

// dirty reports whether the live graph has grown past the durable
// snapshot (lock held).
func (e *gcEntry) dirty() bool {
	st := e.g.Stats()
	return st.Interned > e.spilledNodes || st.Expanded > e.spilledExpanded
}

// GraphCacheStats is a snapshot of a GraphCache's counters.
type GraphCacheStats struct {
	// Hits and Misses count Get calls served from / building a graph.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evicted counts graphs dropped to fit the node budget.
	Evicted uint64 `json:"evicted"`
	// Graphs is the number of graphs currently cached.
	Graphs int `json:"graphs"`
	// Nodes is the total interned node count across cached graphs — the
	// quantity the budget bounds.
	Nodes uint64 `json:"nodes"`
	// Store holds the persistence counters; nil when no graph store is
	// installed.
	Store *GraphStoreStats `json:"store,omitempty"`
}

// GraphStoreStats counts the cache's traffic against its GraphStore.
type GraphStoreStats struct {
	// Loads counts Get misses served by a warm load from disk;
	// LoadedNodes their total imported node records. Misses counts Get
	// misses the store had no file for (cold expansions).
	Loads       uint64 `json:"loads"`
	LoadedNodes uint64 `json:"loadedNodes"`
	Misses      uint64 `json:"misses"`
	// Spills counts spills that wrote at least one node record;
	// SpilledNodes their total records (appends plus in-place
	// completions).
	Spills       uint64 `json:"spills"`
	SpilledNodes uint64 `json:"spilledNodes"`
	// Errors counts load failures, import validation failures and spill
	// failures; each marks its key store-less.
	Errors uint64 `json:"errors"`
}

// HitRate returns Hits / (Hits + Misses), or 0 before any Get.
func (s GraphCacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// NewGraphCache builds an empty cache with the given total-node budget
// (<= 0 selects DefaultGraphCacheBudget).
func NewGraphCache(budget int) *GraphCache {
	if budget <= 0 {
		budget = DefaultGraphCacheBudget
	}
	c := &GraphCache{
		budget:   uint64(budget),
		entries:  make(map[string]*gcEntry),
		byGraph:  make(map[*model.Graph]*gcEntry),
		machines: make(map[model.Protocol]*model.Machine),
	}
	c.spillEnded.L = &c.mu
	return c
}

// SetStore installs the persistence backend. Install before serving
// traffic; entries cached earlier never associate with the store.
func (c *GraphCache) SetStore(s GraphStore) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = s
}

// fpMemoCap bounds a GraphCache's memo of compiled protocols.
const fpMemoCap = 4096

// appendGraphKey canonicalizes the (protocol identity, inputs) cache key
// into dst: the protocol's structural fingerprint plus the input vector.
// Nothing nominal — in particular not Protocol.Name — enters the key.
func appendGraphKey(dst []byte, fp string, inputs []int) []byte {
	dst = append(dst, fp...)
	dst = append(dst, ";in="...)
	for _, in := range inputs {
		dst = strconv.AppendInt(dst, int64(in), 10)
		dst = append(dst, ',')
	}
	return dst
}

// Get returns the cached live graph for (p, inputs), building and caching
// it on a miss. Construction errors (invalid protocol, wrong inputs
// length, fingerprint budget exceeded) are returned without caching
// anything. A protocol value the memo holds is not compiled again; one
// whose type cannot be a map key is compiled once per Get.
//
// With a store installed, a miss first tries a warm load: a snapshot on
// disk imports into the fresh graph before it is served, so the first
// check after a restart walks previously-expanded nodes instead of
// re-expanding them. The disk read runs under the cache lock —
// deliberately: it doubles as load singleflight, and the read it blocks
// concurrent Gets on is far cheaper than the re-expansion they would
// otherwise race into. The store locks only the key being read, so the
// read never waits on a spill of another graph; it waits only for a
// spill of its own key still running (a graph re-fetched while its
// eviction spill writes), and then reads the complete file. A load or
// import failure degrades to a cold graph and marks the key store-less,
// never an error for the caller. A Get that returns a graph is timed
// into the resolve histogram.
func (c *GraphCache) Get(p model.Protocol, inputs []int) (*model.Graph, error) {
	start := time.Now()
	g, err := c.get(p, inputs)
	if err == nil {
		c.resolve.Observe(time.Since(start))
	}
	return g, err
}

// get is Get untimed.
func (c *GraphCache) get(p model.Protocol, inputs []int) (*model.Graph, error) {
	// Protocols whose dynamic type is not comparable (slice/map/func
	// fields) cannot be map keys and are compiled every time.
	t := reflect.TypeOf(p)
	memo := t != nil && t.Comparable()
	c.mu.Lock()
	var m *model.Machine
	if memo {
		m = c.machines[p]
	}
	if m == nil {
		// A memo miss compiles and hashes the protocol off the lock.
		// Concurrent misses of one value may each compile; the memo
		// keeps the last machine, and each graph keeps its own.
		c.mu.Unlock()
		var err error
		if m, err = model.Compile(p); err != nil {
			return nil, err
		}
		c.mu.Lock()
		if memo && len(c.machines) < fpMemoCap {
			c.machines[p] = m
		}
	}
	defer c.mu.Unlock()
	fp := m.Fingerprint()
	c.keyBuf = appendGraphKey(c.keyBuf[:0], fp, inputs)
	if e, ok := c.entries[string(c.keyBuf)]; ok {
		c.hits++
		c.moveFront(e)
		c.enforce(e)
		return e.g, nil
	}
	g, err := m.NewGraph(inputs)
	if err != nil {
		return nil, err
	}
	c.misses++
	key := string(c.keyBuf)
	e := &gcEntry{key: key, g: g, fp: fp, inputs: append([]int(nil), inputs...)}
	if c.store != nil {
		switch snap, err := c.store.Load(fp, e.inputs); {
		case err != nil:
			c.st.Errors++
			e.noStore = true
		case snap == nil:
			c.st.Misses++
		default:
			if impErr := g.ImportSnapshot(snap); impErr != nil {
				// Structurally invalid on-disk data that slipped past the
				// container checksums: expand cold and leave the file alone.
				c.st.Errors++
				e.noStore = true
			} else {
				c.st.Loads++
				c.st.LoadedNodes += uint64(len(snap.Nodes))
				e.spilledNodes = uint64(len(snap.Nodes))
				e.spilledExpanded = uint64(snap.NumExpanded())
			}
		}
	}
	c.entries[key] = e
	c.byGraph[g] = e
	c.pushFront(e)
	c.enforce(e)
	return g, nil
}

// observeWalk times a walk on g, a graph of the cache, that started at
// start with g's counters at before: into the expand histogram when the
// walk expanded nodes, into the walk histogram when it reused the graph
// whole.
func (c *GraphCache) observeWalk(g *model.Graph, before model.GraphStats, start time.Time) {
	h := &c.walk
	if g.Stats().Sub(before).Expanded > 0 {
		h = &c.expand
	}
	h.Observe(time.Since(start))
}

// PhaseSnapshots snapshots the phase histograms: how long Gets took to
// resolve a graph (a cache hit, a warm load from the store, or building
// the graph's shell), and how long the walks engines reported took,
// split into walks that expanded the graph and walks that reused it
// whole.
func (c *GraphCache) PhaseSnapshots() (resolve, expand, walk obs.Snapshot) {
	return c.resolve.Snapshot(), c.expand.Snapshot(), c.walk.Snapshot()
}

// Sync notes that walks on g just completed and queues the graph for
// the background spiller if it is dirty, starting the spiller if it is
// idle. It never blocks on the disk and is a no-op for an uncached
// graph, a clean entry, a store-less key, or an entry already queued or
// whose previous spill is still in flight. Engines call it after
// Check/CheckBatch/Theorem13.
func (c *GraphCache) Sync(g *model.Graph) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byGraph[g]
	if !ok || c.store == nil || e.noStore || e.queued || e.spilling || !e.dirty() {
		return
	}
	e.queued = true
	c.queue = append(c.queue, e)
	if !c.draining {
		c.draining = true
		go c.drain()
	}
}

// drain is the spiller: it spills the queued entries one at a time,
// oldest first, and exits when the queue is empty. An entry's spill
// exports the graph as it is when its turn comes, so growth from walks
// that ran while it waited rides along. Entries an eviction or Flush
// took over, and entries clean by their turn, are skipped.
func (c *GraphCache) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.qhead < len(c.queue) {
		e := c.queue[c.qhead]
		c.queue[c.qhead] = nil
		c.qhead++
		if !e.queued {
			continue
		}
		e.queued = false
		if e.noStore || !e.dirty() {
			continue
		}
		e.spilling = true
		c.spills++
		c.mu.Unlock()
		c.spill(e, true)
		c.mu.Lock()
	}
	c.queue, c.qhead = c.queue[:0], 0
	c.draining = false
}

// spill exports e's graph, persists the delta and records the result:
// counters, the entry's durable markers, or a store-less entry on error,
// which it returns. It runs off the cache lock; the store serializes
// it with loads and spills of the same key only. async marks the one
// background spill the spiller or an eviction started, whose end
// reopens the entry to the next.
func (c *GraphCache) spill(e *gcEntry, async bool) error {
	snap := e.g.Export()
	n, err := c.store.Spill(e.fp, e.inputs, snap)
	c.mu.Lock()
	defer c.mu.Unlock()
	if async {
		e.spilling = false
		c.spills--
		c.spillEnded.Broadcast()
	}
	if err != nil {
		c.st.Errors++
		e.noStore = true
		return err
	}
	if n > 0 {
		c.st.Spills++
		c.st.SpilledNodes += uint64(n)
	}
	e.spilledNodes = max(e.spilledNodes, uint64(len(snap.Nodes)))
	e.spilledExpanded = max(e.spilledExpanded, uint64(snap.NumExpanded()))
	return nil
}

// flushSpillers bounds the spills Flush runs at once. Each holds only
// its own key's lock in the store, and fsyncs that run together can
// share the file system's journal commits, so a shutdown that finds
// many graphs dirty does not wait for one fsync per graph in a row.
const flushSpillers = 8

// Flush synchronously spills every dirty entry — the shutdown path,
// called after request and job traffic has drained. Up to flushSpillers
// goroutines spill the dirty entries no background spill is writing.
// Meanwhile Flush waits until no background spill is in flight, an
// evicted graph's included, and spills an entry whose spill was in
// flight again only if it is still dirty after that spill, so it never
// exports a graph the spiller is writing. It returns the first spill
// error; keys that already failed are skipped.
func (c *GraphCache) Flush() error {
	c.mu.Lock()
	if c.store == nil {
		c.mu.Unlock()
		return nil
	}
	var dirty, inFlight []*gcEntry
	for _, e := range c.entries {
		switch {
		case e.noStore:
		case e.spilling:
			inFlight = append(inFlight, e)
		case e.dirty():
			// Flush spills it now; the spiller skips it.
			e.queued = false
			dirty = append(dirty, e)
		}
	}
	c.mu.Unlock()

	errs := make([]error, len(dirty))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(len(dirty), flushSpillers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(dirty)); i = next.Add(1) - 1 {
				errs[i] = c.spill(dirty[i], false)
			}
		}()
	}

	c.mu.Lock()
	for c.spills > 0 {
		c.spillEnded.Wait()
	}
	inFlight = slices.DeleteFunc(inFlight, func(e *gcEntry) bool { return e.noStore || !e.dirty() })
	c.mu.Unlock()
	var first error
	for _, e := range inFlight {
		if err := c.spill(e, false); err != nil && first == nil {
			first = err
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats snapshots the cache's counters.
func (c *GraphCache) Stats() GraphCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := GraphCacheStats{Hits: c.hits, Misses: c.misses, Evicted: c.evicted, Graphs: len(c.entries)}
	for _, e := range c.entries {
		st.Nodes += e.g.Stats().Interned
	}
	if c.store != nil {
		s := c.st
		st.Store = &s
	}
	return st
}

// Purge empties the cache, keeping the statistics (in-flight walks on
// formerly cached graphs are unaffected).
func (c *GraphCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*gcEntry)
	c.byGraph = make(map[*model.Graph]*gcEntry)
	c.head, c.tail = nil, nil
}

// enforce evicts least-recently-used entries (never keep) until the live
// node total fits the budget, spilling a dirty victim's growth to the
// store first so eviction never discards expansions a restart could
// have reused. Called with the lock held.
func (c *GraphCache) enforce(keep *gcEntry) {
	for len(c.entries) > 1 {
		var total uint64
		for _, e := range c.entries {
			total += e.g.Stats().Interned
		}
		if total <= c.budget {
			return
		}
		victim := c.tail
		if victim == nil || victim == keep {
			return
		}
		if c.store != nil && !victim.noStore && !victim.spilling && victim.dirty() {
			// Fire-and-forget, without waiting for the spiller's queue:
			// the goroutine keeps the evicted graph alive exactly as an
			// in-flight walk would, and the store serializes it against a
			// load or spill of the same key only: a Get that re-fetches
			// the victim while it writes waits for it, and Gets of other
			// keys do not.
			victim.queued = false
			victim.spilling = true
			c.spills++
			go c.spill(victim, true)
		}
		c.unlink(victim)
		delete(c.entries, victim.key)
		delete(c.byGraph, victim.g)
		c.evicted++
	}
}

// pushFront links e as the most-recently-used entry (lock held).
func (c *GraphCache) pushFront(e *gcEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// moveFront promotes e to most-recently-used (lock held).
func (c *GraphCache) moveFront(e *gcEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// unlink removes e from the LRU list (lock held).
func (c *GraphCache) unlink(e *gcEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
