package store

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/logfile"
	"repro/internal/spec"
	"repro/internal/types"
)

// FuzzStoreLoad hands Open arbitrary bytes as the journal, the store's
// one file. The contract under test is the one the crash-recovery
// design leans on: Open fails only on an alien or a newer-version header
// and never panics; otherwise it loads a good prefix of the journal, and
// a decision computed after Open is journaled, survives Close, and is
// served again by a reopen alongside everything the first Open loaded.
// Seeds are a genuine journal, damaged variants of it, the two refused
// headers, a version 1 journal and the empty file.
func FuzzStoreLoad(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "decisions")
	st, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	// Four decisions keep the seeds small: every exec fsyncs, and the
	// fuzzer minimizes each new input exec by exec.
	eng := engine.New(engine.WithCache(st.Cache()), engine.WithMaxN(2))
	for _, ft := range []*spec.FiniteType{types.TestAndSet(), types.Register(2)} {
		if _, err := eng.Analyze(ft); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(path + journalSuffix)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), journal...)
	flipped[len(flipped)*2/3] ^= 0x20
	newer := logfile.Format{Magic: Magic, Version: Version + 1}.AppendHeader(nil, nil)
	v1journal, err := os.ReadFile(filepath.Join("testdata", "decisions-v1.repro.journal"))
	if err != nil {
		f.Fatal(err)
	}

	f.Add(journal)
	f.Add([]byte{})
	f.Add(journal[:len(journal)/2])
	f.Add(journal[:len(journal)-5])
	f.Add(flipped)
	f.Add([]byte("not a store\n"))
	f.Add(newer)
	f.Add(v1journal)
	f.Add(append([]byte(nil), header...))
	f.Add(header[:len(header)-1])

	f.Fuzz(func(t *testing.T, journal []byte) {
		path := filepath.Join(t.TempDir(), "decisions")
		if err := os.WriteFile(path+journalSuffix, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path)
		if err != nil {
			if msg := err.Error(); !strings.Contains(msg, "has no decision-store header") &&
				!strings.Contains(msg, "newer than this build") {
				t.Fatalf("Open failed on something other than a refused header: %v", err)
			}
			return
		}
		loaded := decisions(st.Cache())
		if len(loaded) != st.Stats().Loaded {
			t.Fatalf("cache holds %d decisions, Stats reports %d loaded", len(loaded), st.Stats().Loaded)
		}
		// The appended decision: computed (or served, if the fuzzed files
		// already hold its key) through the store's cache.
		eng := engine.New(engine.WithCache(st.Cache()))
		ok, _, err := eng.Discerning(types.Swap(2), 2)
		if err != nil {
			t.Fatal(err)
		}
		want := decisions(st.Cache())
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		again, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after a successful Open failed: %v", err)
		}
		defer again.Close()
		got := decisions(again.Cache())
		for k, e := range want {
			if !reflect.DeepEqual(got[k], e) {
				t.Fatalf("decision %v lost or changed across Close and reopen:\n got %+v\nwant %+v", k, got[k], e)
			}
		}
		if reok, _, err := engine.New(engine.WithCache(again.Cache())).Discerning(types.Swap(2), 2); err != nil || reok != ok {
			t.Fatalf("reopened store answers %v (err %v), first life answered %v", reok, err, ok)
		}
	})
}

// decisionKey identifies one cached level decision.
type decisionKey struct {
	fp   uint64
	prop engine.Property
	n    int
}

// decisions snapshots a cache's entries by key.
func decisions(c *engine.Cache) map[decisionKey]engine.Entry {
	out := map[decisionKey]engine.Entry{}
	c.Range(func(e engine.Entry) bool {
		out[decisionKey{e.FP, e.Prop, e.N}] = e
		return true
	})
	return out
}
