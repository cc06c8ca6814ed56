package graphstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/model"
)

// Magic is the 8-byte tag opening every graph-store file.
const Magic = "RPRGRAPH"

// Version is the newest file-format version this package writes. Files
// with a newer version are refused (not silently truncated): they hold
// valid data from a newer build, which must not be destroyed. Files with
// an older version (v1 carried strings and a state dictionary) are a
// cache miss: the next spill rewrites them from offset 0.
const Version = 2

const (
	// pageMaxRecords bounds the node records of one page; a spill larger
	// than this splits into several pages, each independently CRC'd.
	pageMaxRecords = 4096
	// maxPayload is the sanity cap on one page's payload length; a
	// corrupted length field beyond it reads as a torn page.
	maxPayload = 1 << 26
	// succNone encodes an absent successor reference (-1).
	succNone = ^uint32(0)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store is an open graph-store directory. It is safe for concurrent
// use; all file access is serialized internally. Construct with Open;
// the zero value is not usable.
type Store struct {
	dir string

	mu    sync.Mutex
	files map[string]*fileState
	stats Stats
}

// fileState tracks the durable good prefix of one key's file, the
// bookkeeping delta spills extend from.
type fileState struct {
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
	// in-memory graph; further spills are skipped until the next Open.
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

// Load reads the good prefix of the key's file as a snapshot. A missing
// file is a miss: (nil, nil). A file with an alien header or a newer
// format version is an error, and the key is marked bad so spills never
// touch the foreign file. A corrupted tail silently shortens the
// snapshot — the caller imports whatever loaded and re-expands the
// rest.
func (s *Store) Load(fp string, inputs []int) (*model.GraphSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, st, err := s.load(fp, inputs)
	if err != nil {
		s.stats.Errors++
		s.files[fileName(fp, inputs)] = &fileState{bad: true}
		return nil, err
	}
	s.files[fileName(fp, inputs)] = st
	if snap == nil {
		s.stats.Misses++
		return nil, nil
	}
	s.stats.Loads++
	s.stats.LoadedNodes += uint64(len(snap.Nodes))
	return snap, nil
}

// load reads the file without touching counters or the state map;
// callers hold s.mu. A missing file returns (nil, zero-state, nil).
func (s *Store) load(fp string, inputs []int) (*model.GraphSnapshot, *fileState, error) {
	path := s.path(fp, inputs)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, &fileState{unexpanded: make(map[int]struct{})}, nil
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()

	hdr, hdrLen, err := readHeader(f, path)
	if err != nil {
		return nil, nil, err
	}
	st := &fileState{unexpanded: make(map[int]struct{})}
	if hdr == nil || hdr.version < Version {
		// Torn header (nothing was ever durably stored) or an older
		// format: a miss either way. The next spill rewrites the file
		// from offset 0.
		return nil, st, nil
	}
	if err := hdr.matches(fp, inputs); err != nil {
		return nil, nil, fmt.Errorf("graphstore: %s: %w", path, err)
	}

	snap := &model.GraphSnapshot{
		Procs:   int(hdr.procs),
		Objects: int(hdr.objects),
		Inputs:  append([]int(nil), inputs...),
	}
	st.goodLen = hdrLen
	off := hdrLen
	var page []byte
	for {
		var pfx [8]byte
		if _, err := io.ReadFull(f, pfx[:]); err != nil {
			break // clean end or torn page-length prefix
		}
		plen := binary.LittleEndian.Uint32(pfx[0:4])
		want := binary.LittleEndian.Uint32(pfx[4:8])
		if plen == 0 || plen > maxPayload {
			break
		}
		if cap(page) < int(plen) {
			page = make([]byte, plen)
		}
		page = page[:plen]
		if _, err := io.ReadFull(f, page); err != nil {
			break
		}
		if crc32.Checksum(page, castagnoli) != want {
			break
		}
		if !applyPage(snap, st, page) {
			break
		}
		off += 8 + int64(plen)
		st.goodLen = off
	}
	if len(snap.Nodes) == 0 {
		// A bare header (or one whose first page tore) carries no nodes;
		// load it as a miss so the caller expands cold, but keep the
		// header's good prefix so the next spill appends after it.
		return nil, st, nil
	}
	return snap, st, nil
}

// header is the decoded file header.
type fileHeader struct {
	version uint32
	procs   uint32
	objects uint32
	fp      string
	inputs  []int32
}

func (h *fileHeader) matches(fp string, inputs []int) error {
	if h.fp != fp {
		return fmt.Errorf("file holds fingerprint %.12s…, key is %.12s…", h.fp, fp)
	}
	if len(h.inputs) != len(inputs) {
		return fmt.Errorf("file holds %d inputs, key has %d", len(h.inputs), len(inputs))
	}
	for i, in := range h.inputs {
		if int(in) != inputs[i] {
			return fmt.Errorf("file built for inputs %v, key is %v", h.inputs, inputs)
		}
	}
	return nil
}

// readHeader decodes and verifies the file header. A short (torn)
// header returns (nil, 0, nil): nothing durable. An alien magic or a
// newer version is an error — the file must not be truncated or
// overwritten. A checksum-failing header with our magic reads as torn:
// the file never held durable pages a truncation could destroy, because
// every write path makes the header durable before the first page.
func readHeader(f *os.File, path string) (*fileHeader, int64, error) {
	var fixed [24]byte
	if _, err := io.ReadFull(f, fixed[:]); err != nil {
		return nil, 0, nil
	}
	if string(fixed[0:8]) != Magic {
		return nil, 0, fmt.Errorf("graphstore: %s has no graph-store header (refusing to overwrite; move the file aside to start fresh)", path)
	}
	version := binary.LittleEndian.Uint32(fixed[8:12])
	if version > Version {
		return nil, 0, fmt.Errorf("graphstore: %s is format version %d, newer than this build's %d", path, version, Version)
	}
	h := &fileHeader{
		version: version,
		procs:   binary.LittleEndian.Uint32(fixed[12:16]),
		objects: binary.LittleEndian.Uint32(fixed[16:20]),
	}
	varLen := binary.LittleEndian.Uint32(fixed[20:24])
	if varLen > 1<<16 {
		return nil, 0, nil
	}
	varPart := make([]byte, varLen+4) // variable section + CRC
	if _, err := io.ReadFull(f, varPart); err != nil {
		return nil, 0, nil
	}
	crc := binary.LittleEndian.Uint32(varPart[varLen:])
	sum := crc32.Checksum(fixed[:], castagnoli)
	sum = crc32.Update(sum, castagnoli, varPart[:varLen])
	if sum != crc {
		return nil, 0, nil
	}
	v := varPart[:varLen]
	if len(v) < 2 {
		return nil, 0, nil
	}
	fpLen := int(binary.LittleEndian.Uint16(v[0:2]))
	v = v[2:]
	if len(v) < fpLen+2 {
		return nil, 0, nil
	}
	h.fp = string(v[:fpLen])
	v = v[fpLen:]
	nIn := int(binary.LittleEndian.Uint16(v[0:2]))
	v = v[2:]
	if len(v) != 4*nIn {
		return nil, 0, nil
	}
	for i := 0; i < nIn; i++ {
		h.inputs = append(h.inputs, int32(binary.LittleEndian.Uint32(v[4*i:])))
	}
	return h, 24 + int64(varLen) + 4, nil
}

// encodeHeader renders the header for (fp, inputs, procs, objects).
func encodeHeader(fp string, inputs []int, procs, objects int) []byte {
	var varPart []byte
	varPart = binary.LittleEndian.AppendUint16(varPart, uint16(len(fp)))
	varPart = append(varPart, fp...)
	varPart = binary.LittleEndian.AppendUint16(varPart, uint16(len(inputs)))
	for _, in := range inputs {
		varPart = binary.LittleEndian.AppendUint32(varPart, uint32(int32(in)))
	}
	out := make([]byte, 0, 24+len(varPart)+4)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(procs))
	out = binary.LittleEndian.AppendUint32(out, uint32(objects))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(varPart)))
	out = append(out, varPart...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
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
func (s *Store) Spill(fp string, inputs []int, snap *model.GraphSnapshot) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := fileName(fp, inputs)
	st, ok := s.files[key]
	if !ok {
		// First touch of this key in this process: establish the durable
		// prefix from the file (usually a miss; the file may exist if an
		// earlier process wrote it and this one expanded cold).
		_, fresh, err := s.load(fp, inputs)
		if err != nil {
			s.stats.Errors++
			s.files[key] = &fileState{bad: true}
			return 0, err
		}
		st = fresh
		s.files[key] = st
	}
	if st.bad {
		s.stats.Errors++
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
			s.stats.Errors++
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
		s.stats.Errors++
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
	s.stats.Spills++
	s.stats.SpilledNodes += uint64(len(stream))
	return len(stream), nil
}

// write performs the file I/O of one spill: truncate to the good
// prefix, (re)write the header if none is durable, append the records
// of stream (snapshot positions) in pages, fsync, and advance goodLen.
// A spill that writes the header also syncs the directory (best
// effort), so the entry of a file it just created survives a power
// loss.
func (s *Store) write(fp string, inputs []int, snap *model.GraphSnapshot, st *fileState, stream []int) error {
	f, err := os.OpenFile(s.path(fp, inputs), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil {
		return err
	} else if fi.Size() != st.goodLen {
		if err := f.Truncate(st.goodLen); err != nil {
			return err
		}
	}
	if _, err := f.Seek(st.goodLen, io.SeekStart); err != nil {
		return err
	}
	var out []byte
	newHeader := st.goodLen == 0
	if newHeader {
		out = encodeHeader(fp, inputs, snap.Procs, snap.Objects)
	}
	rs := recordSize(snap.Procs, model.NodeWords(snap.Procs, snap.Objects))
	out = slices.Grow(out, (len(stream)/pageMaxRecords+1)*12+len(stream)*rs)
	for start := 0; start < len(stream); start += pageMaxRecords {
		batch := stream[start:min(start+pageMaxRecords, len(stream))]
		// Page: payload length and CRC (patched in below), then the
		// payload — its record count and records.
		page := len(out)
		out = append(out, make([]byte, 8)...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(batch)))
		for _, idx := range batch {
			out = encodeRecord(out, idx, &snap.Nodes[idx])
		}
		payload := out[page+8:]
		binary.LittleEndian.PutUint32(out[page:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(out[page+4:], crc32.Checksum(payload, castagnoli))
	}
	if _, err := f.Write(out); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if newHeader {
		syncDir(s.dir)
	}
	// The header (when freshly written) is part of out, so one advance
	// covers both.
	st.goodLen += int64(len(out))
	return nil
}

// syncDir fsyncs a directory so a just-created file's directory entry is
// durable. Best effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
