package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/logfile"
	"repro/internal/spec"
	"repro/internal/types"
)

// zoo is the type population the tests analyze: cheap at maxN 4, and
// mixing positive and negative decisions, discerning and recording
// witnesses, readable and non-readable types.
func zoo() []*spec.FiniteType {
	return []*spec.FiniteType{
		types.TestAndSet(),
		types.Tnn(3, 1),
		types.TnnReadable(3),
		types.Register(2),
	}
}

// analyzeInto runs the zoo through an engine backed by st's cache and
// returns the marshaled witnesses of every analysis, keyed by type name
// and level, for byte-identity comparison.
func analyzeInto(t *testing.T, st *Store, maxN int) map[string][]byte {
	t.Helper()
	eng := engine.New(engine.WithCache(st.Cache()), engine.WithParallelism(2), engine.WithMaxN(maxN))
	out := map[string][]byte{}
	as, err := eng.AnalyzeAll(zoo())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range as {
		for n := 2; n <= maxN; n++ {
			if w := a.DiscerningWitness[n]; w != nil {
				b, err := json.Marshal(w)
				if err != nil {
					t.Fatal(err)
				}
				out[a.Type.Name()+"/discerning/"+string(rune('0'+n))] = b
			}
			if w := a.RecordingWitness[n]; w != nil {
				b, err := json.Marshal(w)
				if err != nil {
					t.Fatal(err)
				}
				out[a.Type.Name()+"/recording/"+string(rune('0'+n))] = b
			}
		}
	}
	return out
}

// TestRoundTripWarmStart is the core persistence property for levels
// n=2..4: run 1 computes and persists decisions; run 2 against the same
// path warm-loads them, recomputes nothing (zero misses), and serves
// byte-identical witnesses.
func TestRoundTripWarmStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")

	st1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	w1 := analyzeInto(t, st1, 4)
	_, misses1, entries1 := st1.Cache().Stats()
	if misses1 == 0 || entries1 == 0 {
		t.Fatalf("cold run computed nothing: misses=%d entries=%d", misses1, entries1)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Loaded; got != entries1 {
		t.Fatalf("warm-loaded %d decisions, want %d", got, entries1)
	}
	w2 := analyzeInto(t, st2, 4)
	hits, misses, _ := st2.Cache().Stats()
	if misses != 0 {
		t.Errorf("warm run recomputed %d decisions (hits=%d)", misses, hits)
	}
	if len(w1) != len(w2) {
		t.Fatalf("witness sets differ in size: %d vs %d", len(w1), len(w2))
	}
	for k, b1 := range w1 {
		if !bytes.Equal(b1, w2[k]) {
			t.Errorf("witness %s not byte-identical:\n run1 %s\n run2 %s", k, b1, w2[k])
		}
	}
}

// TestEntryCodecRoundTrip checks that every persisted decision of the
// n=2..4 sweep re-encodes byte-identically after a decode — the
// stability the append-only journal format depends on. The frames go
// through a file, so the decoder sees them exactly as a load does.
func TestEntryCodecRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	analyzeInto(t, st, 4)

	var want []engine.Entry
	enc := append([]byte(nil), header...)
	st.Cache().Range(func(e engine.Entry) bool {
		want = append(want, e)
		if enc, err = appendEntry(enc, e); err != nil {
			t.Fatalf("encode %+v: %v", e, err)
		}
		return true
	})
	if len(want) == 0 {
		t.Fatal("no entries to round-trip")
	}
	file := filepath.Join(t.TempDir(), "frames")
	if err := os.WriteFile(file, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	got, goodLen, err := readDecisions(file)
	if err != nil {
		t.Fatal(err)
	}
	if goodLen != int64(len(enc)) || len(got) != len(want) {
		t.Fatalf("decoded %d of %d entries, good length %d of %d", len(got), len(want), goodLen, len(enc))
	}
	again := append([]byte(nil), header...)
	for i, e := range got {
		if !reflect.DeepEqual(e, want[i]) {
			t.Errorf("entry %d changed across the codec:\n got %+v\nwant %+v", i, e, want[i])
		}
		if again, err = appendEntry(again, e); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(again, enc) {
		t.Error("entries not byte-stable across a decode and re-encode")
	}
}

// frameEnds returns the end offset of each decision frame of the store
// file at path, recomputed by re-encoding its decisions.
func frameEnds(t *testing.T, path string) []int {
	t.Helper()
	entries, _, err := readDecisions(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	off := len(header)
	for _, e := range entries {
		frame, err := appendEntry(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		off += len(frame)
		ends = append(ends, off)
	}
	return ends
}

// TestCorruptedJournalTruncates writes decisions, corrupts the journal
// tail, and checks that Open keeps the good prefix, physically truncates
// the file, and appends cleanly afterwards.
func TestCorruptedJournalTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	analyzeInto(t, st, 3)
	_, _, entries := st.Cache().Stats()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	jpath := path + journalSuffix
	good, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// A torn final record: a prefix of a valid frame.
	frame, err := appendEntry(nil, engine.Entry{FP: 7, Prop: engine.Discerning, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, good...), frame[:len(frame)-2]...)
	if err := os.WriteFile(jpath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().Loaded; got != entries {
		t.Fatalf("loaded %d decisions from torn journal, want %d", got, entries)
	}
	if fi, err := os.Stat(jpath); err != nil || fi.Size() != int64(len(good)) {
		t.Fatalf("journal not truncated to good prefix: size %d, want %d (err %v)",
			fiSize(fi), len(good), err)
	}
	// Appends after the truncation must land on a clean frame boundary.
	analyzeInto(t, st2, 4)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := st3.Stats().Loaded; got <= entries {
		t.Fatalf("post-truncation appends lost: loaded %d, want > %d", got, entries)
	}
}

func fiSize(fi os.FileInfo) int64 {
	if fi == nil {
		return -1
	}
	return fi.Size()
}

// TestCorruptedMidRecordDropsTail flips a byte inside a middle record:
// the load must keep everything before it and drop it and the rest.
func TestCorruptedMidRecordDropsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	analyzeInto(t, st, 3)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	jpath := path + journalSuffix
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, jpath)
	records := len(ends)
	if records == 0 || ends[records-1] != len(data) {
		t.Fatalf("journal of %d bytes does not end at its last frame (%v)", len(data), ends)
	}
	if records < 3 {
		t.Fatalf("need >= 3 records, have %d", records)
	}
	// Records are numbered from 1, as lines after the header were; flip
	// a byte inside the victim's CRC-protected frame.
	victim := 1 + records/2
	data[(ends[victim-2]+ends[victim-1])/2] ^= 0x01
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, want := st2.Stats().Loaded, victim-1; got != want {
		t.Fatalf("loaded %d decisions after mid-file corruption, want %d", got, want)
	}
}

// TestCompact folds the journal into the snapshot: the journal resets to
// a bare header, the snapshot carries every decision, and a reopen
// warm-loads the full set. Compacting twice is stable, and the snapshot
// bytes are deterministic.
func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	analyzeInto(t, st, 4)
	_, _, entries := st.Cache().Stats()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	snap1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	snap2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Error("snapshot bytes not deterministic across compactions")
	}
	jfi, err := os.Stat(path + journalSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if jfi.Size() != int64(len(header)) {
		t.Errorf("journal size after compact = %d, want bare header %d", jfi.Size(), len(header))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Loaded; got != entries {
		t.Fatalf("reopen after compact loaded %d, want %d", got, entries)
	}
}

// TestNewerVersionRefused ensures a file from a future format version is
// an error, not a silent truncation.
func TestNewerVersionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	newer := logfile.Format{Magic: Magic, Version: Version + 1}.AppendHeader(nil, nil)
	if err := os.WriteFile(path+journalSuffix, newer, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a journal from a newer format version")
	}
	if got, err := os.ReadFile(path + journalSuffix); err != nil || !bytes.Equal(got, newer) {
		t.Fatalf("refused newer journal was modified: %q (err %v)", got, err)
	}
}

// TestAlienFileRefused ensures a non-empty file without the store header
// — a stray file at the path, or a corrupted header over real records —
// is refused intact, never truncated to zero.
func TestAlienFileRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	jpath := path + journalSuffix
	stray := []byte("this is somebody else's file\nwith two lines\n")
	if err := os.WriteFile(jpath, stray, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a journal with an alien header")
	}
	got, err := os.ReadFile(jpath)
	if err != nil || !bytes.Equal(got, stray) {
		t.Fatalf("refused file was modified: %q (err %v)", got, err)
	}
	// A torn header (its meta frame never made it to disk whole) is the
	// one header failure that IS a clean crash artifact: Open starts
	// fresh. So is a version 1 header torn mid-line.
	for _, torn := range [][]byte{header[:len(header)-1], header[:5], []byte(`{"format":"repro-dec`)} {
		if err := os.WriteFile(jpath, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path)
		if err != nil {
			t.Fatalf("torn header %q must open fresh: %v", torn, err)
		}
		st.Close()
	}
}

// TestFlushMakesAppendsDurable checks Flush pushes queued appends to the
// file without closing the store.
func TestFlushMakesAppendsDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	analyzeInto(t, st, 3)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	_, _, entries := st.Cache().Stats()
	got, _, err := readDecisions(path + journalSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != entries {
		t.Fatalf("journal holds %d decisions after Flush, want %d", len(got), entries)
	}
}

// TestV1FilesLoadEmpty opens a version 1 snapshot and journal written by
// the JSON-lines build (testdata: tas compacted into the snapshot,
// register:2 in the journal, levels 2..3). Neither is refused: both
// load as zero decisions, the journal is rewritten at Open and the
// snapshot at the next Compact, and decisions appended afterwards
// survive a reopen.
func TestV1FilesLoadEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	var v1 [2][]byte
	for i, suffix := range []string{"", journalSuffix} {
		b, err := os.ReadFile(filepath.Join("testdata", "decisions-v1.repro"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte(`{"format":"repro-decision-store","version":1}`+"\n")) {
			t.Fatalf("testdata is not a version 1 file: %.60q", b)
		}
		if err := os.WriteFile(path+suffix, b, 0o644); err != nil {
			t.Fatal(err)
		}
		v1[i] = b
	}

	st, err := Open(path)
	if err != nil {
		t.Fatalf("version 1 files refused: %v", err)
	}
	if got := st.Stats().Loaded; got != 0 {
		t.Fatalf("loaded %d decisions from version 1 files, want 0", got)
	}
	if j, err := os.ReadFile(path + journalSuffix); err != nil || !bytes.Equal(j, header) {
		t.Fatalf("journal not rewritten at Open: %.60q (err %v)", j, err)
	}
	if snap, err := os.ReadFile(path); err != nil || !bytes.Equal(snap, v1[0]) {
		t.Fatalf("snapshot changed before Compact (err %v)", err)
	}
	analyzeInto(t, st, 3)
	_, _, entries := st.Cache().Stats()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().Loaded; got != entries {
		t.Fatalf("reopen loaded %d appended decisions, want %d", got, entries)
	}
	if err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	if snap, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(snap, []byte(Magic)) {
		t.Fatalf("snapshot not rewritten by Compact: %.20q (err %v)", snap, err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := st3.Stats().Loaded; got != entries {
		t.Fatalf("reopen after Compact loaded %d, want %d", got, entries)
	}
}
