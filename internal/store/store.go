package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
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
// from a newer build, which must not be destroyed. A version 1 journal
// (JSON lines) loads as zero decisions and is rewritten at Open.
const Version = 2

// format frames the journal. Legacy is how every version 1 file begins.
var format = logfile.Format{Magic: Magic, Version: Version, Name: "decision-store",
	Legacy: `{"format":"repro-decision-store"`}

// header opens every journal; its meta frame is empty.
var header = format.AppendHeader(nil, nil)

// journalSuffix names the journal file: the store at path P is the one
// file P + journalSuffix.
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

// readDecisions loads the decisions of a journal file, tolerating
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

// Store is an open persistent decision store. It is safe for concurrent
// use. Construct with Open; the zero value is not usable.
type Store struct {
	path  string // as given to Open
	jpath string // the journal, the store's one file
	cache *engine.Cache

	queue chan engine.Entry
	syncs chan chan error // Flush requests, each answered on its channel
	done  chan struct{}   // closed when the flusher has exited

	// lifeMu guards closed. Sink sends and Flush requests hold it for
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

// Open opens (creating if absent) the decision store at path, whose one
// file is the journal path + ".journal", and warm-loads every previously
// persisted decision into a fresh cache, reachable via Cache. A corrupted
// journal tail is skipped, and the journal is physically truncated to
// its last good record so appends resume cleanly. The returned store
// appends every decision the cache computes from now on, asynchronously,
// until Close.
func Open(path string) (*Store, error) {
	if path == "" {
		return nil, errors.New("store: empty path")
	}
	s := &Store{
		path:  path,
		jpath: path + journalSuffix,
		cache: engine.NewCache(),
		queue: make(chan engine.Entry, 256),
		syncs: make(chan chan error),
		done:  make(chan struct{}),
	}

	jrnl, goodLen, err := readDecisions(s.jpath)
	if err != nil {
		return nil, err
	}
	for _, e := range jrnl {
		s.cache.Insert(e)
	}
	// Count distinct decisions, not records: a purged cache re-journals
	// what it recomputes, and such duplicates collapse on Insert.
	_, _, s.loaded = s.cache.Stats()

	f, err := logfile.OpenAppend(s.jpath, goodLen)
	if err != nil {
		return nil, err
	}
	s.journal = f
	s.bw = bufio.NewWriterSize(f, 1<<16)
	if goodLen == 0 {
		_, err := s.bw.Write(header)
		if err == nil {
			err = s.bw.Flush()
		}
		if err != nil {
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

// Path returns the path the store was opened with. The store's one file,
// its journal, is Path() + ".journal".
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
// Flush requests until Close shuts the queue, then syncs and
// closes the file. Whenever the queue goes idle it pushes the write
// buffer to the OS, so a killed process (OOM, SIGKILL) loses at most
// the appends of one busy burst — only an OS crash can lose an idle
// tail, and Flush/Close close even that window with an fsync.
func (s *Store) flusher() {
	defer close(s.done)
	for {
		var (
			e     engine.Entry
			ok    bool
			reply chan error
		)
		select {
		case e, ok = <-s.queue:
		case reply = <-s.syncs:
		default:
			// Queue idle: make the buffered appends visible to the OS
			// before blocking.
			if s.bw.Buffered() > 0 {
				s.setErr(s.bw.Flush())
			}
			select {
			case e, ok = <-s.queue:
			case reply = <-s.syncs:
			}
		}
		if reply != nil {
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
			reply <- s.sync()
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

// Flush drains pending appends and syncs the journal to disk.
func (s *Store) Flush() error {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if s.closed {
		return errors.New("store: closed")
	}
	reply := make(chan error, 1)
	s.syncs <- reply
	return <-reply
}

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
	// Path is the path the store was opened with. The store's one file,
	// its journal, is Path + ".journal".
	Path string `json:"path"`
	// Loaded counts the decisions warm-loaded at Open.
	Loaded int `json:"loaded"`
	// Appended counts the decisions journaled since Open.
	Appended int `json:"appended"`
	// JournalBytes is the journal's current size (0 when the file does
	// not exist yet).
	JournalBytes int64 `json:"journalBytes"`
	// SnapshotBytes is always 0: a store writes no file but its journal.
	//
	// Deprecated: there is no snapshot file; read JournalBytes.
	SnapshotBytes int64 `json:"-"`
}

// Stats reports the store's current persistence counters and journal
// size.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{Path: s.path, Loaded: s.loaded, Appended: s.appended}
	s.mu.Unlock()
	if fi, err := os.Stat(s.jpath); err == nil {
		st.JournalBytes = fi.Size()
	}
	return st
}
