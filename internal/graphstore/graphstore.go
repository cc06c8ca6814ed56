package graphstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/logfile"
	"repro/internal/model"
)

// Magic is the 8-byte tag opening every graph-store file.
const Magic = "RPRGRAPH"

// Version is the newest file-format version this package writes. Files
// with a newer version are refused (not silently truncated): they hold
// valid data from a newer build, which must not be destroyed. Files with
// an older version (v1 carried strings and a state dictionary, v2 a
// hand-checksummed header) are a cache miss: the next spill rewrites
// them from offset 0.
const Version = 3

// format frames every graph file: the meta frame holds the file's key,
// and each later frame one page.
var format = logfile.Format{Magic: Magic, Version: Version, Name: "graph-store"}

const (
	// pageMaxRecords bounds the node records of one page; a spill larger
	// than this splits into several pages, each its own frame.
	pageMaxRecords = 4096
	// succNone encodes an absent successor reference (-1).
	succNone = ^uint32(0)
)

// Store is an open graph-store directory. It is safe for concurrent
// use: the loads and spills of one key are serialized, and those of
// different keys run concurrently. Construct with Open; the zero value
// is not usable.
type Store struct {
	dir string

	// mu guards files and stats only; no file I/O runs under it.
	mu    sync.Mutex
	files map[string]*fileState
	stats Stats
}

// fileState tracks the durable good prefix of one key's file, the
// bookkeeping delta spills extend from. A key's fileState lives as long
// as its Store: a load resets it field by field, so a goroutine waiting
// on mu never holds a stale copy.
type fileState struct {
	// mu serializes the load, spill and write of this key and guards
	// every field below.
	mu sync.Mutex
	// read reports whether the fields describe the file: set by the
	// key's first Load or Spill.
	read bool
	// nodes counts the node records of the good prefix; goodLen is its
	// byte length.
	nodes   int
	goodLen int64
	// unexpanded holds the persisted indices whose records are not Done
	// yet; a spill completes them with in-place update records.
	unexpanded map[int]struct{}
	// words holds the persisted nodes' packed identities back to back,
	// the exact prefix-compatibility check for spills of graphs this
	// process never loaded.
	words []uint64
	// bad marks a key whose file hit a write error or an incompatible
	// in-memory graph; further spills are skipped until a Load rereads
	// the file or the next Open.
	bad bool
}

// Stats counts a store's traffic since Open.
type Stats struct {
	// Loads counts successful warm loads; LoadedNodes their total node
	// records. Misses counts loads that found no file.
	Loads       uint64 `json:"loads"`
	LoadedNodes uint64 `json:"loadedNodes"`
	Misses      uint64 `json:"misses"`
	// Spills counts successful spills that wrote at least one page;
	// SpilledNodes their total node records (appends plus updates).
	Spills       uint64 `json:"spills"`
	SpilledNodes uint64 `json:"spilledNodes"`
	// Errors counts refused loads and failed or skipped-as-bad spills.
	Errors uint64 `json:"errors"`
}

// Open opens (creating if absent) the graph store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("graphstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, files: make(map[string]*fileState)}, nil
}

// Dir returns the directory the store was opened with.
func (s *Store) Dir() string { return s.dir }

// Stats reports the store's traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// fileName maps a (fingerprint, inputs) key to its file. The
// fingerprint is already a 64-char hex string; inputs join with '_'
// after a "-in" separator, so distinct keys cannot collide.
func fileName(fp string, inputs []int) string {
	var b strings.Builder
	b.WriteString(fp)
	b.WriteString("-in")
	for i, in := range inputs {
		if i > 0 {
			b.WriteByte('_')
		}
		fmt.Fprintf(&b, "%d", in)
	}
	b.WriteString(".graph")
	return b.String()
}

func (s *Store) path(fp string, inputs []int) string {
	return filepath.Join(s.dir, fileName(fp, inputs))
}

// state returns the key's fileState, adding an unread one on the key's
// first touch. It holds s.mu only for the map lookup.
func (s *Store) state(fp string, inputs []int) *fileState {
	key := fileName(fp, inputs)
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.files[key]
	if !ok {
		st = &fileState{}
		s.files[key] = st
	}
	return st
}

// Load reads the good prefix of the key's file as a snapshot. A missing
// file is a miss: (nil, nil). A file with an alien header or a newer
// format version is an error, and the key is marked bad so spills never
// touch the foreign file. A corrupted tail silently shortens the
// snapshot — the caller imports whatever loaded and re-expands the
// rest. Load waits only for a load or spill of the same key.
func (s *Store) Load(fp string, inputs []int) (*model.GraphSnapshot, error) {
	st := s.state(fp, inputs)
	st.mu.Lock()
	defer st.mu.Unlock()
	snap, err := s.load(st, fp, inputs)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err != nil:
		s.stats.Errors++
		return nil, err
	case snap == nil:
		s.stats.Misses++
		return nil, nil
	}
	s.stats.Loads++
	s.stats.LoadedNodes += uint64(len(snap.Nodes))
	return snap, nil
}

// load resets st to the key's file without touching counters; callers
// hold st.mu. A missing file leaves st empty and returns (nil, nil); an
// error leaves it empty and bad.
func (s *Store) load(st *fileState, fp string, inputs []int) (*model.GraphSnapshot, error) {
	st.read, st.nodes, st.goodLen, st.words, st.bad = true, 0, 0, nil, false
	st.unexpanded = make(map[int]struct{})
	path := s.path(fp, inputs)
	lg, err := format.Read(path)
	if err != nil {
		st.bad = true
		return nil, fmt.Errorf("graphstore: %w", err)
	}
	if lg == nil {
		// Missing, torn or an older format: a miss either way. The next
		// spill writes the file from offset 0.
		return nil, nil
	}
	// The meta frame holds the process and object counts, then the key.
	var want [96]byte
	m := lg.Meta
	if key := appendMeta(want[:0], fp, inputs, 0, 0)[8:]; len(m) < 8 || string(m[8:]) != string(key) {
		st.bad = true
		return nil, fmt.Errorf("graphstore: %s holds the graph of another key", path)
	}
	snap := &model.GraphSnapshot{
		Procs:   int(binary.LittleEndian.Uint32(m[0:])),
		Objects: int(binary.LittleEndian.Uint32(m[4:])),
		Inputs:  append([]int(nil), inputs...),
	}
	st.goodLen = lg.Scan(func(page []byte) bool { return applyPage(snap, st, page) })
	if len(snap.Nodes) == 0 {
		// A bare header (or one whose first page tore) carries no nodes;
		// load it as a miss so the caller expands cold, but keep the
		// header's good prefix so the next spill appends after it.
		return nil, nil
	}
	return snap, nil
}

// appendMeta appends the meta frame's payload, the file's key: the
// process and object counts, the fingerprint and the inputs.
func appendMeta(dst []byte, fp string, inputs []int, procs, objects int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(procs))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(objects))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(fp)))
	dst = append(dst, fp...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(inputs)))
	for _, in := range inputs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(in)))
	}
	return dst
}

// recordSize is the fixed width of one node record: its index, packed
// words, check value, Done byte and step and crash successor indices.
func recordSize(procs, words int) int {
	return 4 + 8*words + 8 + 1 + 4*procs + 4*procs
}

// applyPage parses one checksummed payload and applies it to the
// snapshot under construction. It is all-or-nothing: on any structural
// inconsistency it applies nothing and returns false, ending the scan
// at the previous page — so a loaded snapshot never holds a dangling
// successor reference from a half-applied batch.
func applyPage(snap *model.GraphSnapshot, st *fileState, page []byte) bool {
	procs, nw := snap.Procs, model.NodeWords(snap.Procs, snap.Objects)
	if len(page) < 4 {
		return false
	}
	nRec := int(binary.LittleEndian.Uint32(page[0:4]))
	page = page[4:]
	rs := recordSize(procs, nw)
	if nRec == 0 || nRec > len(page)/rs || len(page) != nRec*rs {
		return false // the division guards nRec*rs against overflow
	}

	type parsed struct {
		idx int
		nd  model.SnapshotNode
	}
	recs := make([]parsed, nRec)
	words := make([]uint64, nRec*nw)
	succ := make([]int32, nRec*2*procs)
	nodes := len(snap.Nodes)
	for r := range recs {
		b := page[r*rs : (r+1)*rs]
		idx := int(binary.LittleEndian.Uint32(b[0:4]))
		switch {
		case idx == nodes:
			nodes++
		case idx >= len(snap.Nodes):
			// Beyond the tail, or an update of a node this very page
			// appends: no spill writes either.
			return false
		}
		nd := model.SnapshotNode{
			Words:     words[r*nw : (r+1)*nw : (r+1)*nw],
			StepSucc:  succ[2*procs*r : 2*procs*r+procs : 2*procs*r+procs],
			CrashSucc: succ[2*procs*r+procs : 2*procs*(r+1) : 2*procs*(r+1)],
		}
		o := 4
		for i := range nd.Words {
			nd.Words[i] = binary.LittleEndian.Uint64(b[o:])
			o += 8
		}
		if idx < len(snap.Nodes) && !slices.Equal(nd.Words, snap.Nodes[idx].Words) {
			return false // an update must complete the node it names
		}
		nd.Check = binary.LittleEndian.Uint64(b[o:])
		o += 8
		if b[o] > 1 {
			return false
		}
		nd.Done = b[o] == 1
		o++
		for _, dst := range [][]int32{nd.StepSucc, nd.CrashSucc} {
			for p := range dst {
				v := binary.LittleEndian.Uint32(b[o:])
				if v == succNone {
					dst[p] = -1
				} else if v >= 1<<31 {
					return false
				} else {
					dst[p] = int32(v)
				}
				o += 4
			}
		}
		recs[r] = parsed{idx: idx, nd: nd}
	}

	// Whole page parsed: apply.
	for _, r := range recs {
		if r.idx == len(snap.Nodes) {
			snap.Nodes = append(snap.Nodes, r.nd)
			st.words = append(st.words, r.nd.Words...)
		} else {
			snap.Nodes[r.idx] = r.nd
		}
		if r.nd.Done {
			delete(st.unexpanded, r.idx)
		} else {
			st.unexpanded[r.idx] = struct{}{}
		}
	}
	st.nodes = len(snap.Nodes)
	return true
}

// encodeRecord appends one node record for position idx.
func encodeRecord(dst []byte, idx int, nd *model.SnapshotNode) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(idx))
	for _, w := range nd.Words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	dst = binary.LittleEndian.AppendUint64(dst, nd.Check)
	if nd.Done {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	for _, succ := range [][]int32{nd.StepSucc, nd.CrashSucc} {
		for _, si := range succ {
			if si < 0 {
				dst = binary.LittleEndian.AppendUint32(dst, succNone)
			} else {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(si))
			}
		}
	}
	return dst
}

// Spill persists the snapshot's growth beyond the key's durable prefix:
// update records completing previously unexpanded nodes and append
// records for new nodes, batched into CRC'd pages and fsynced. It returns the number of node records
// written (0 when the file is already current, the key is marked bad,
// or the snapshot is not an extension of the persisted prefix). A write
// error marks the key bad — later spills skip it — and is returned.
// Spill holds only the key's own lock through its writes and fsync, so
// loads and spills of other keys proceed meanwhile.
func (s *Store) Spill(fp string, inputs []int, snap *model.GraphSnapshot) (int, error) {
	st := s.state(fp, inputs)
	st.mu.Lock()
	defer st.mu.Unlock()
	n, err := s.spill(st, fp, inputs, snap)
	s.mu.Lock()
	defer s.mu.Unlock()
	// A refused first read, a skipped bad key, a divergent prefix and a
	// write error each leave the key bad, and each counts one error.
	if st.bad {
		s.stats.Errors++
	} else if n > 0 {
		s.stats.Spills++
		s.stats.SpilledNodes += uint64(n)
	}
	return n, err
}

// spill is Spill without the counters; callers hold st.mu.
func (s *Store) spill(st *fileState, fp string, inputs []int, snap *model.GraphSnapshot) (int, error) {
	if !st.read {
		// First touch of this key in this process: establish the durable
		// prefix from the file (usually a miss; the file may exist if an
		// earlier process wrote it and this one expanded cold).
		if _, err := s.load(st, fp, inputs); err != nil {
			return 0, err
		}
	}
	if st.bad {
		return 0, nil
	}
	// The snapshot must extend the persisted prefix node for node. A
	// shorter snapshot (a concurrent export raced a longer spill) or a
	// node whose words differ (the in-memory graph grew in a different
	// order, e.g. it never warm-loaded this file) is a safe no-op /
	// permanent skip respectively.
	if len(snap.Nodes) < st.nodes {
		return 0, nil
	}
	nw := model.NodeWords(snap.Procs, snap.Objects)
	for i := 0; i < st.nodes; i++ {
		if !slices.Equal(snap.Nodes[i].Words, st.words[i*nw:(i+1)*nw]) {
			st.bad = true
			return 0, nil
		}
	}

	// One record stream: updates first, in index order (they complete
	// nodes already on disk), then the new tail.
	var stream []int
	for idx := range st.unexpanded {
		if snap.Nodes[idx].Done {
			stream = append(stream, idx)
		}
	}
	slices.Sort(stream)
	updates := len(stream)
	for i := st.nodes; i < len(snap.Nodes); i++ {
		stream = append(stream, i)
	}
	if len(stream) == 0 {
		return 0, nil
	}

	if err := s.write(fp, inputs, snap, st, stream); err != nil {
		st.bad = true
		return 0, err
	}
	// Commit the new durable prefix.
	for _, idx := range stream[:updates] {
		delete(st.unexpanded, idx)
	}
	for i := st.nodes; i < len(snap.Nodes); i++ {
		st.words = append(st.words, snap.Nodes[i].Words...)
		if !snap.Nodes[i].Done {
			st.unexpanded[i] = struct{}{}
		}
	}
	st.nodes = len(snap.Nodes)
	return len(stream), nil
}

// write performs the file I/O of one spill: truncate to the good
// prefix, (re)write the header if none is durable, append the records
// of stream (snapshot positions) in pages, fsync, and advance goodLen.
// A spill that writes the header also syncs the directory (best
// effort), so the entry of a file it just created survives a power
// loss. Callers hold st.mu and no other lock.
func (s *Store) write(fp string, inputs []int, snap *model.GraphSnapshot, st *fileState, stream []int) error {
	f, err := logfile.OpenAppend(s.path(fp, inputs), st.goodLen)
	if err != nil {
		return err
	}
	defer f.Close()
	// One buffer, sized up front: the header (when none is durable),
	// then one frame per page of a record count and records.
	rs := recordSize(snap.Procs, model.NodeWords(snap.Procs, snap.Objects))
	pages := (len(stream) + pageMaxRecords - 1) / pageMaxRecords
	size := pages*logfile.FrameLen(4) + len(stream)*rs
	var mb [96]byte
	var meta []byte
	newHeader := st.goodLen == 0
	if newHeader {
		meta = appendMeta(mb[:0], fp, inputs, snap.Procs, snap.Objects)
		size += logfile.HeaderLen(len(meta))
	}
	out := make([]byte, 0, size)
	if newHeader {
		out = format.AppendHeader(out, meta)
	}
	for start := 0; start < len(stream); start += pageMaxRecords {
		batch := stream[start:min(start+pageMaxRecords, len(stream))]
		var page int
		out, page = logfile.StartFrame(out)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(batch)))
		for _, idx := range batch {
			out = encodeRecord(out, idx, &snap.Nodes[idx])
		}
		logfile.EndFrame(out, page)
	}
	if _, err := f.Write(out); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if newHeader {
		logfile.SyncDir(s.dir)
	}
	// The header (when freshly written) is part of out, so one advance
	// covers both.
	st.goodLen += int64(len(out))
	return nil
}
