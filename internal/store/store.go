package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/discern"
	"repro/internal/engine"
	"repro/internal/logfile"
	"repro/internal/record"
)

// Magic is the 8-byte tag opening every decision-store file.
const Magic = "RPRDECIS"

// Version is the newest file-format version this package writes:
// version 2 holds one binary frame per decision. Files with a newer
// version are refused (not silently truncated): they hold valid data
// from a newer build, which must not be destroyed. Version 1 files (JSON
// lines) load as zero decisions: the journal is rewritten at Open, the
// snapshot at the next Compact.
const Version = 2

// format frames both store files. Legacy is how every version 1 file
// begins.
var format = logfile.Format{Magic: Magic, Version: Version, Name: "decision-store",
	Legacy: `{"format":"repro-decision-store"`}

// header opens every snapshot and journal; its meta frame is empty.
var header = format.AppendHeader(nil, nil)

// journalSuffix names the journal file beside the snapshot path.
const journalSuffix = ".journal"

// Property codes of a decision frame.
const (
	propDiscerning = 1
	propRecording  = 2
)

// entryFixed is the width of a decision frame's fixed fields: the
// fingerprint (uint64), the property code, the level and the verdict
// (one byte each). A positive decision's witness JSON follows them.
const entryFixed = 11

// appendEntry appends e to dst as one decision frame.
func appendEntry(dst []byte, e engine.Entry) ([]byte, error) {
	var code byte
	var w json.Marshaler
	switch e.Prop {
	case engine.Discerning:
		code = propDiscerning
		if e.DiscernWitness != nil {
			w = e.DiscernWitness
		}
	case engine.Recording:
		code = propRecording
		if e.RecordWitness != nil {
			w = e.RecordWitness
		}
	default:
		return dst, fmt.Errorf("store: unknown property %q", e.Prop)
	}
	if e.N < 2 || e.N > 255 || e.OK != (w != nil) {
		return dst, fmt.Errorf("store: cannot encode decision %s n=%d ok=%v", e.Prop, e.N, e.OK)
	}
	var wb []byte
	if w != nil {
		var err error
		if wb, err = w.MarshalJSON(); err != nil {
			return dst, err
		}
	}
	dst, off := logfile.StartFrame(dst)
	dst = binary.LittleEndian.AppendUint64(dst, e.FP)
	verdict := byte(0)
	if e.OK {
		verdict = 1
	}
	dst = append(dst, code, byte(e.N), verdict)
	dst = append(dst, wb...)
	logfile.EndFrame(dst, off)
	return dst, nil
}

// decodeEntry parses one decision frame's payload, verifying the
// decision's internal consistency: a positive decision must carry a
// witness of the right kind and level, a negative one nothing.
func decodeEntry(p []byte) (engine.Entry, error) {
	if len(p) < entryFixed {
		return engine.Entry{}, fmt.Errorf("store: decision frame of %d bytes", len(p))
	}
	e := engine.Entry{FP: binary.LittleEndian.Uint64(p), N: int(p[9]), OK: p[10] == 1}
	if e.N < 2 || p[10] > 1 {
		return engine.Entry{}, fmt.Errorf("store: bad level n=%d or verdict %d", e.N, p[10])
	}
	w := p[entryFixed:]
	if !e.OK && len(w) > 0 {
		return engine.Entry{}, errors.New("store: negative decision carries a witness")
	}
	var err error
	wn := e.N
	switch p[8] {
	case propDiscerning:
		e.Prop = engine.Discerning
		if e.OK {
			e.DiscernWitness = &discern.Witness{}
			err = e.DiscernWitness.UnmarshalJSON(w)
			wn = e.DiscernWitness.N
		}
	case propRecording:
		e.Prop = engine.Recording
		if e.OK {
			e.RecordWitness = &record.Witness{}
			err = e.RecordWitness.UnmarshalJSON(w)
			wn = e.RecordWitness.N
		}
	default:
		return engine.Entry{}, fmt.Errorf("store: unknown property code %d", p[8])
	}
	if err != nil {
		return engine.Entry{}, err
	}
	if wn != e.N {
		return engine.Entry{}, fmt.Errorf("store: witness level %d does not match entry level %d", wn, e.N)
	}
	return e, nil
}

// readDecisions loads the decisions of one store file, tolerating
// corruption: it returns every decision up to (excluding) the first bad
// frame, plus the byte length of that good prefix. A missing, empty or
// version 1 file, or a torn header, is zero decisions. A foreign file
// and a file from a newer Version are errors — such files must not be
// truncated or overwritten.
func readDecisions(path string) (entries []engine.Entry, goodLen int64, err error) {
	goodLen, err = format.Walk(path, func(_ int64, p []byte) bool {
		e, err := decodeEntry(p)
		if err != nil {
			return false
		}
		entries = append(entries, e)
		return true
	})
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	return entries, goodLen, nil
}

// request kinds served by the flusher goroutine.
const (
	reqFlush = iota
	reqCompact
)

type request struct {
	kind int
	err  chan error
}

// Store is an open persistent decision store. It is safe for concurrent
// use. Construct with Open; the zero value is not usable.
type Store struct {
	path  string // snapshot file
	jpath string // journal file
	cache *engine.Cache

	queue chan engine.Entry
	reqs  chan request
	done  chan struct{} // closed when the flusher has exited

	// lifeMu guards closed. Sink sends and flusher requests hold it for
	// reading across their whole channel interaction, so Close (which
	// takes it for writing) cannot tear the channels down under them.
	lifeMu sync.RWMutex
	closed bool

	mu       sync.Mutex // guards the mutable fields below
	loaded   int
	appended int
	err      error // first journal I/O error, sticky

	// Owned by the flusher goroutine after Open returns.
	journal *os.File
	bw      *bufio.Writer
}

// Open opens (creating if absent) the decision store at path and
// warm-loads every previously persisted decision into a fresh cache,
// reachable via Cache. Corrupted tails of the snapshot or journal are
// skipped, and the journal is physically truncated to its last good
// record so appends resume cleanly. The returned store appends every
// decision the cache computes from now on, asynchronously, until Close.
func Open(path string) (*Store, error) {
	if path == "" {
		return nil, errors.New("store: empty path")
	}
	s := &Store{
		path:  path,
		jpath: path + journalSuffix,
		cache: engine.NewCache(),
		queue: make(chan engine.Entry, 256),
		reqs:  make(chan request),
		done:  make(chan struct{}),
	}

	snap, _, err := readDecisions(s.path)
	if err != nil {
		return nil, err
	}
	for _, e := range snap {
		s.cache.Insert(e)
	}
	jrnl, goodLen, err := readDecisions(s.jpath)
	if err != nil {
		return nil, err
	}
	// Journal entries overwrite snapshot entries: they are newer (and,
	// the deciders being deterministic, identical for identical keys).
	for _, e := range jrnl {
		s.cache.Insert(e)
	}
	// Count distinct decisions, not records: after a crash between
	// compact's snapshot rename and its journal reset, journal records
	// duplicate snapshot ones and collapse on Insert.
	_, _, s.loaded = s.cache.Stats()

	f, err := logfile.OpenAppend(s.jpath, goodLen)
	if err != nil {
		return nil, err
	}
	s.journal = f
	s.bw = bufio.NewWriterSize(f, 1<<16)
	if goodLen == 0 {
		if err := s.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
	}

	s.cache.SetSink(s.enqueue)
	go s.flusher()
	return s, nil
}

// Cache returns the warm-loaded decision cache backed by this store.
// Install it on engines with engine.WithCache (repro.WithCache); every
// decision they compute is persisted automatically.
func (s *Store) Cache() *engine.Cache { return s.cache }

// Path returns the snapshot path the store was opened with.
func (s *Store) Path() string { return s.path }

// enqueue is the cache sink: it hands one newly computed decision to the
// flusher. It blocks only while the flusher is behind by a full queue.
func (s *Store) enqueue(e engine.Entry) {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if s.closed {
		return
	}
	s.queue <- e
}

// writeHeader writes the format header at the journal's current
// position and pushes it to the OS.
func (s *Store) writeHeader() error {
	if _, err := s.bw.Write(header); err != nil {
		return err
	}
	return s.bw.Flush()
}

// setErr records the first journal I/O error.
func (s *Store) setErr(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Err returns the store's sticky journal I/O error, if any. Appends are
// best-effort after the first error; Close and Flush also report it.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// flusher owns the journal file: it drains the append queue and serves
// Flush/Compact requests until Close shuts the queue, then syncs and
// closes the file. Whenever the queue goes idle it pushes the write
// buffer to the OS, so a killed process (OOM, SIGKILL) loses at most
// the appends of one busy burst — only an OS crash can lose an idle
// tail, and Flush/Close close even that window with an fsync.
func (s *Store) flusher() {
	defer close(s.done)
	for {
		var (
			e      engine.Entry
			ok     bool
			req    request
			gotReq bool
		)
		select {
		case e, ok = <-s.queue:
		case req = <-s.reqs:
			gotReq = true
		default:
			// Queue idle: make the buffered appends visible to the OS
			// before blocking.
			if s.bw.Buffered() > 0 {
				s.setErr(s.bw.Flush())
			}
			select {
			case e, ok = <-s.queue:
			case req = <-s.reqs:
				gotReq = true
			}
		}
		if gotReq {
		drain:
			// Cover everything enqueued before the request.
			for {
				select {
				case e, ok := <-s.queue:
					if !ok {
						break drain
					}
					s.append(e)
				default:
					break drain
				}
			}
			switch req.kind {
			case reqFlush:
				req.err <- s.sync()
			case reqCompact:
				req.err <- s.compact()
			}
			continue
		}
		if !ok {
			s.setErr(s.bw.Flush())
			s.setErr(s.journal.Sync())
			s.setErr(s.journal.Close())
			return
		}
		s.append(e)
	}
}

// append journals one decision (buffered; errors are sticky). The frame
// is encoded straight into the write buffer's free space.
func (s *Store) append(e engine.Entry) {
	frame, err := appendEntry(s.bw.AvailableBuffer(), e)
	if err == nil {
		_, err = s.bw.Write(frame)
	}
	if err != nil {
		s.setErr(err)
		return
	}
	s.mu.Lock()
	s.appended++
	s.mu.Unlock()
}

// sync pushes the write buffer to the OS and the OS cache to disk.
func (s *Store) sync() error {
	if err := s.bw.Flush(); err != nil {
		s.setErr(err)
		return err
	}
	if err := s.journal.Sync(); err != nil {
		s.setErr(err)
		return err
	}
	return s.Err()
}

// compact rewrites the snapshot with the cache's current contents and
// resets the journal. Runs on the flusher goroutine. Crash-safety: the
// snapshot replacement is atomic (temp file + rename), and the journal
// is only reset afterwards — a crash between the two leaves journal
// entries that duplicate snapshot entries, which the next Open absorbs
// (Insert overwrites).
func (s *Store) compact() error {
	if err := s.sync(); err != nil {
		return err
	}
	var entries []engine.Entry
	s.cache.Range(func(e engine.Entry) bool {
		entries = append(entries, e)
		return true
	})
	// Deterministic snapshots: identical caches produce identical bytes.
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.FP != b.FP {
			return a.FP < b.FP
		}
		if a.Prop != b.Prop {
			return a.Prop < b.Prop
		}
		return a.N < b.N
	})

	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	out := append([]byte(nil), header...)
	for i := 0; err == nil && i < len(entries); i++ {
		out, err = appendEntry(out, entries[i])
	}
	if err == nil {
		_, err = tmp.Write(out)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path)
	}
	if err != nil {
		return err
	}
	logfile.SyncDir(dir)

	// Reset the journal to a bare header; appends continue after it.
	if err := s.journal.Truncate(0); err != nil {
		s.setErr(err)
		return err
	}
	if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
		s.setErr(err)
		return err
	}
	s.bw.Reset(s.journal)
	if err := s.writeHeader(); err != nil {
		s.setErr(err)
		return err
	}
	if err := s.journal.Sync(); err != nil {
		s.setErr(err)
		return err
	}
	return nil
}

// request round-trips one control request to the flusher.
func (s *Store) do(kind int) error {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if s.closed {
		return errors.New("store: closed")
	}
	req := request{kind: kind, err: make(chan error, 1)}
	s.reqs <- req
	return <-req.err
}

// Flush drains pending appends and syncs the journal to disk.
func (s *Store) Flush() error { return s.do(reqFlush) }

// Compact folds the journal (and any prior snapshot) into a freshly
// written snapshot — atomically, via temp file + rename — and resets the
// journal to empty. Load time and disk use shrink to one record per
// distinct decision.
func (s *Store) Compact() error { return s.do(reqCompact) }

// Close stops persisting, drains and syncs the journal, and closes it.
// Decisions the cache computes after Close are not persisted. Close is
// idempotent; it returns the store's sticky I/O error, if any.
func (s *Store) Close() error {
	s.lifeMu.Lock()
	if s.closed {
		s.lifeMu.Unlock()
		return s.Err()
	}
	s.closed = true
	s.lifeMu.Unlock()
	s.cache.SetSink(nil)
	close(s.queue)
	<-s.done
	return s.Err()
}

// Stats describes the store's persistence state.
type Stats struct {
	// Path is the snapshot path (the journal is Path + ".journal").
	Path string `json:"path"`
	// Loaded counts the decisions warm-loaded at Open.
	Loaded int `json:"loaded"`
	// Appended counts the decisions journaled since Open.
	Appended int `json:"appended"`
	// SnapshotBytes and JournalBytes are the current file sizes (0 when
	// the file does not exist yet).
	SnapshotBytes int64 `json:"snapshotBytes"`
	JournalBytes  int64 `json:"journalBytes"`
}

// Stats reports the store's current persistence counters and file sizes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{Path: s.path, Loaded: s.loaded, Appended: s.appended}
	s.mu.Unlock()
	if fi, err := os.Stat(s.path); err == nil {
		st.SnapshotBytes = fi.Size()
	}
	if fi, err := os.Stat(s.jpath); err == nil {
		st.JournalBytes = fi.Size()
	}
	return st
}
