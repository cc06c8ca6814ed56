package graphstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/logfile"
	"repro/internal/model"
)

// Magic is the 8-byte tag opening a graph store's log.
const Magic = "RPRGRAPH"

// Version is the newest format version this package writes: version 4
// keeps every graph of a directory in one log. A log of a newer version
// makes Open fail (it holds a newer build's data, which must not be
// destroyed); one of an older version holds nothing, and the next spill
// rewrites it from offset 0. Versions 1 to 3 kept one file per key under
// other names, which this version never reads, changes or deletes.
const Version = 4

// logName names the log in the store's directory.
const logName = "graphs.rprgraph"

// format frames the log: an empty meta frame, then one frame per page.
var format = logfile.Format{Magic: Magic, Version: Version, Name: "graph-store"}

// header opens the log.
var header = format.AppendHeader(nil, nil)

const (
	// pageMaxRecords bounds the node records of one page; a spill larger
	// than this splits into several pages, each its own frame.
	pageMaxRecords = 4096
	// succNone encodes an absent successor reference (-1).
	succNone = ^uint32(0)
	// keyBufLen holds the key of a 64-character fingerprint and 16
	// inputs, and countsLen the process and object counts before it.
	keyBufLen = 2 + 64 + 2 + 4*16
	countsLen = 8
)

// Store is an open graph-store directory. It is safe for concurrent
// use: the loads and spills of one key are serialized, and those of
// different keys run concurrently, their appends to the log one at a
// time and their fsyncs shared. Construct with Open; the zero value is
// not usable. A Store holds no file open between calls.
type Store struct {
	dir, path string

	// mu guards keys and stats only; no file I/O runs under it.
	mu    sync.Mutex
	keys  map[string]*keyState
	stats Stats

	// appendMu serializes appends to the log and guards size, the log's
	// good length, where every append starts: a failed write leaves size
	// where it was, and the next append truncates what the write left.
	appendMu sync.Mutex
	size     int64

	// syncMu guards the group commit below, and synced is broadcast on it
	// when an fsync ends. written is the end of the last append written,
	// durable the end of the log that completed fsyncs cover; syncing
	// reports an fsync in flight, and syncErr is the first fsync error,
	// which fails every later spill.
	syncMu           sync.Mutex
	synced           sync.Cond
	written, durable int64
	syncing          bool
	syncErr          error
	// fsync syncs the log through one of its open files: (*os.File).Sync,
	// which tests wrap to hold or fail it.
	fsync func(*os.File) error
}

// keyState tracks one key: where its pages lie in the log, and the
// durable prefix they hold, the bookkeeping delta spills extend from. A
// key's keyState lives as long as its Store: a load resets it field by
// field, so a goroutine waiting on mu never holds a stale copy.
type keyState struct {
	// mu serializes the loads and spills of this key and guards every
	// field below.
	mu sync.Mutex
	// frames locates the key's pages in the log, in log order: Open
	// finds them, and each spill adds its own once they are durable.
	frames []frame
	// read reports whether the fields below describe the key's pages:
	// set by the key's first Load or Spill.
	read bool
	// nodes counts the node records of the durable prefix.
	nodes int
	// unexpanded holds the persisted indices whose records are not Done
	// yet; a spill completes them with in-place update records.
	unexpanded map[int]struct{}
	// words holds the persisted nodes' packed identities back to back,
	// the exact prefix-compatibility check for spills of graphs this
	// process never loaded.
	words []uint64
	// bad marks a key whose spill failed, whose in-memory graph is not an
	// extension of its pages, or one of whose pages failed its checks;
	// further spills are skipped until a Load rereads the pages or the
	// next Open.
	bad bool
}

// frame locates one page in the log: the frame's offset and length.
type frame struct {
	off int64
	n   int
}

// Stats counts a store's traffic since Open.
type Stats struct {
	// Loads counts successful warm loads; LoadedNodes their total node
	// records. Misses counts loads that found no page of the key.
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

// Open opens the graph store rooted at dir, creating the directory if
// absent. It walks the log once, checking every frame's checksum, and
// finds each key's pages; a torn or corrupted tail is left for the
// next spill to truncate. A log with a foreign magic or a newer version
// makes Open fail, and the file is left as it is.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("graphstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, path: filepath.Join(dir, logName), keys: make(map[string]*keyState), fsync: (*os.File).Sync}
	s.synced.L = &s.syncMu
	size, err := format.Walk(s.path, func(off int64, payload []byte) bool {
		key, _, ok := splitPage(payload)
		if !ok {
			// No key's page, though it checks out: skip it rather than
			// let the next append cut off the frames after it.
			return true
		}
		st := s.stateLocked(key)
		st.frames = append(st.frames, frame{off, logfile.FrameLen(len(payload))})
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("graphstore: %w", err)
	}
	s.size, s.written, s.durable = size, size, size
	return s, nil
}

// Dir returns the directory the store was opened with.
func (s *Store) Dir() string { return s.dir }

// Stats reports the store's traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// appendKey appends a key's encoding: the fingerprint and the inputs,
// each behind its length.
func appendKey(dst []byte, fp string, inputs []int) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(fp)))
	dst = append(dst, fp...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(inputs)))
	for _, in := range inputs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(in)))
	}
	return dst
}

// splitPage splits a page's payload, which opens with the process and
// object counts and the key, into the key and the body after it: the
// record count and the records.
func splitPage(payload []byte) (key, body []byte, ok bool) {
	if len(payload) < countsLen+2 {
		return nil, nil, false
	}
	end := countsLen + 2 + int(binary.LittleEndian.Uint16(payload[countsLen:]))
	if len(payload) < end+2 {
		return nil, nil, false
	}
	end += 2 + 4*int(binary.LittleEndian.Uint16(payload[end:]))
	if len(payload) < end {
		return nil, nil, false
	}
	return payload[countsLen:end], payload[end:], true
}

// state returns the key's keyState, adding an unread one on the key's
// first touch. It holds s.mu only for the map lookup.
func (s *Store) state(fp string, inputs []int) *keyState {
	var kb [keyBufLen]byte
	key := appendKey(kb[:0], fp, inputs)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stateLocked(key)
}

// stateLocked is state for an encoded key; callers hold s.mu, or own s
// alone as Open does.
func (s *Store) stateLocked(key []byte) *keyState {
	st, ok := s.keys[string(key)]
	if !ok {
		st = &keyState{}
		s.keys[string(key)] = st
	}
	return st
}

// Load reads the key's pages as a snapshot. A key with no page is a
// miss: (nil, nil). A page that fails its checks ends the snapshot
// before it — the caller imports whatever loaded and re-expands the
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

// load resets st to the key's pages without touching counters; callers
// hold st.mu. A key without pages leaves st empty and returns (nil,
// nil); a log that cannot be opened leaves it empty and bad. Each page
// is read back and checked again: a page that fails its checksum, names
// another key, changes the process or object count or fails applyPage
// ends the snapshot before it and marks the key bad, since the shared
// log cannot drop that page, and no later page of the key applies
// without it.
func (s *Store) load(st *keyState, fp string, inputs []int) (*model.GraphSnapshot, error) {
	st.read, st.nodes, st.words, st.bad = true, 0, nil, false
	st.unexpanded = make(map[int]struct{})
	if len(st.frames) == 0 {
		return nil, nil
	}
	f, err := os.Open(s.path)
	if err != nil {
		st.bad = true
		return nil, fmt.Errorf("graphstore: %w", err)
	}
	defer f.Close()
	var kb [keyBufLen]byte
	key := appendKey(kb[:0], fp, inputs)
	var snap *model.GraphSnapshot
	var buf []byte
	for _, fr := range st.frames {
		buf = slices.Grow(buf[:0], fr.n)[:fr.n]
		ok := false
		if _, err := f.ReadAt(buf, fr.off); err == nil {
			snap, ok = applyFrame(snap, st, buf, key, inputs)
		}
		if !ok {
			st.bad = true
			break
		}
	}
	if snap == nil || len(snap.Nodes) == 0 {
		return nil, nil
	}
	return snap, nil
}

// applyFrame checks one frame of the key and applies its page to snap,
// which the key's first page starts with its process and object counts.
// It reports false when the frame fails its checksum, names another key,
// changes the counts or fails applyPage.
func applyFrame(snap *model.GraphSnapshot, st *keyState, frame, key []byte, inputs []int) (*model.GraphSnapshot, bool) {
	payload, ok := logfile.Payload(frame)
	if !ok {
		return snap, false
	}
	k, body, ok := splitPage(payload)
	if !ok || !bytes.Equal(k, key) {
		return snap, false
	}
	procs := int(binary.LittleEndian.Uint32(payload[0:]))
	objects := int(binary.LittleEndian.Uint32(payload[4:]))
	if snap == nil {
		snap = &model.GraphSnapshot{Procs: procs, Objects: objects, Inputs: append([]int(nil), inputs...)}
	} else if procs != snap.Procs || objects != snap.Objects {
		return snap, false
	}
	return snap, applyPage(snap, st, body)
}

// recordSize is the fixed width of one node record: its index, packed
// words, check value, Done byte and step and crash successor indices.
func recordSize(procs, words int) int {
	return 4 + 8*words + 8 + 1 + 4*procs + 4*procs
}

// applyPage parses one checksummed page body and applies it to the
// snapshot under construction. It is all-or-nothing: on any structural
// inconsistency it applies nothing and returns false, ending the key's
// load at the previous page — so a loaded snapshot never holds a
// dangling successor reference from a half-applied batch.
func applyPage(snap *model.GraphSnapshot, st *keyState, page []byte) bool {
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
// records for new nodes, batched into checksummed pages appended to the
// log. It returns the number of node records written (0 when the pages
// are already current, the key is marked bad, or the snapshot is not an
// extension of the persisted prefix) once they are durable. A write or
// fsync error marks the key bad — later spills skip it — and is
// returned; an fsync error also fails every later spill of the store.
// Spill holds the key's own lock throughout, and the store's append
// lock only while it writes, so loads and spills of other keys proceed
// meanwhile.
func (s *Store) Spill(fp string, inputs []int, snap *model.GraphSnapshot) (int, error) {
	st := s.state(fp, inputs)
	st.mu.Lock()
	defer st.mu.Unlock()
	n, err := s.spill(st, fp, inputs, snap)
	s.mu.Lock()
	defer s.mu.Unlock()
	// A refused first read, a skipped bad key, a divergent prefix and a
	// write or fsync error each leave the key bad, and each counts one
	// error.
	if st.bad {
		s.stats.Errors++
	} else if n > 0 {
		s.stats.Spills++
		s.stats.SpilledNodes += uint64(n)
	}
	return n, err
}

// spill is Spill without the counters; callers hold st.mu.
func (s *Store) spill(st *keyState, fp string, inputs []int, snap *model.GraphSnapshot) (int, error) {
	if !st.read {
		// First touch of this key in this process: establish the durable
		// prefix from the pages Open found (usually none; an earlier
		// process may have spilled the key while this one expanded it
		// cold).
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
	// order, e.g. it never warm-loaded these pages) is a safe no-op /
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

	pages := len(st.frames)
	buf, frames := encode(st.frames, fp, inputs, snap, stream)
	base, err := s.write(buf)
	if err != nil {
		st.bad = true
		return 0, err
	}
	// Commit the new durable prefix.
	for i := pages; i < len(frames); i++ {
		frames[i].off += base
	}
	st.frames = frames
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

// encode builds one spill's pages in one buffer, behind room for the
// log header: a frame per page, whose payload is the process and object
// counts and the key, then the record count and the records of stream
// (snapshot positions). It runs under the key's lock alone, and appends
// each page's frame to frames at its offset in the buffer.
func encode(frames []frame, fp string, inputs []int, snap *model.GraphSnapshot, stream []int) ([]byte, []frame) {
	var hb [countsLen + keyBufLen]byte
	head := binary.LittleEndian.AppendUint32(hb[:0], uint32(snap.Procs))
	head = binary.LittleEndian.AppendUint32(head, uint32(snap.Objects))
	head = appendKey(head, fp, inputs)
	rs := recordSize(snap.Procs, model.NodeWords(snap.Procs, snap.Objects))
	pages := (len(stream) + pageMaxRecords - 1) / pageMaxRecords
	buf := make([]byte, len(header), len(header)+pages*logfile.FrameLen(len(head)+4)+len(stream)*rs)
	for start := 0; start < len(stream); start += pageMaxRecords {
		batch := stream[start:min(start+pageMaxRecords, len(stream))]
		var page int
		buf, page = logfile.StartFrame(buf)
		buf = append(buf, head...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(batch)))
		for _, idx := range batch {
			buf = encodeRecord(buf, idx, &snap.Nodes[idx])
		}
		logfile.EndFrame(buf, page)
		frames = append(frames, frame{int64(page), len(buf) - page})
	}
	return buf, frames
}

// write appends buf's pages at the log's end, truncating first whatever
// a failed write left there, and returns the log offset that buf[0]
// stands for once an fsync that began after the write has completed.
// buf opens with room for the log header, which only the log's first
// append writes; that append also fsyncs the file and then its
// directory before it lets any other append in. Every later append
// releases the append lock once written and shares its fsync (commit).
// A write error leaves the log's good length where it was.
func (s *Store) write(buf []byte) (int64, error) {
	s.syncMu.Lock()
	err := s.syncErr
	s.syncMu.Unlock()
	if err != nil {
		return 0, err
	}
	s.appendMu.Lock()
	first := s.size == 0
	base, out := s.size-int64(len(header)), buf[len(header):]
	if first {
		base, out = 0, buf
		copy(buf, header)
	}
	f, err := logfile.OpenAppend(s.path, s.size)
	if err == nil {
		if _, err = f.Write(out); err != nil {
			f.Close()
		}
	}
	if err != nil {
		s.appendMu.Unlock()
		return 0, err
	}
	s.size += int64(len(out))
	end := s.size
	s.syncMu.Lock()
	s.written = end
	s.syncMu.Unlock()
	if !first {
		// The next append may write while this one waits for its fsync.
		s.appendMu.Unlock()
	}
	err = s.commit(f, end)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if first {
		if err == nil {
			logfile.SyncDir(s.dir)
		}
		s.appendMu.Unlock()
	}
	return base, err
}

// commit returns once an fsync that began after the append ending at end
// was written has completed. An fsync in flight may have begun before
// that write, so commit waits for it and then, when no other append
// started the next one, runs one itself through f. One fsync covers
// every append written before it began, so the spills that write while
// an fsync runs share the next. An fsync error fails every append it
// was to cover, and every later one.
func (s *Store) commit(f *os.File, end int64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	for s.durable < end {
		switch {
		case s.syncErr != nil:
			return s.syncErr
		case s.syncing:
			s.synced.Wait()
		default:
			s.syncing = true
			target := s.written
			s.syncMu.Unlock()
			err := s.fsync(f)
			s.syncMu.Lock()
			s.syncing = false
			if err != nil {
				s.syncErr = fmt.Errorf("graphstore: syncing %s: %w", s.path, err)
			} else {
				s.durable = target
			}
			s.synced.Broadcast()
		}
	}
	return nil
}
