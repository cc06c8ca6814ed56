package cli

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// parse builds an EngineFlags from command-line args.
func parse(t *testing.T, args ...string) *EngineFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestEngineWithoutCacheFile(t *testing.T) {
	f := parse(t, "-parallel", "2")
	eng, cleanup, err := f.Engine()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if eng == nil || f.Cache != nil {
		t.Fatalf("engine=%v cache=%v; want engine and no persistent cache", eng, f.Cache)
	}
}

func TestEngineCacheFilePersistsAcrossRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")

	runOnce := func() (hits, misses uint64) {
		f := parse(t, "-parallel", "2", "-cache-file", path)
		eng, cleanup, err := f.Engine(repro.WithMaxN(3))
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		if f.Cache == nil {
			t.Fatal("-cache-file did not open a persistent cache")
		}
		if _, err := eng.Analyze(repro.TestAndSet()); err != nil {
			t.Fatal(err)
		}
		hits, misses, _ = eng.Cache().Stats()
		return hits, misses
	}

	_, misses1 := runOnce()
	if misses1 == 0 {
		t.Fatal("cold run computed nothing")
	}
	if _, err := os.Stat(path + ".journal"); err != nil {
		t.Fatalf("cleanup did not leave a journal: %v", err)
	}
	hits2, misses2 := runOnce()
	if misses2 != 0 || hits2 != misses1 {
		t.Fatalf("warm run: hits=%d misses=%d, want hits=%d misses=0", hits2, misses2, misses1)
	}
}

// TestEngineReuseAfterCleanupReopensStore guards against a stale memo:
// cleanup closes the store, so a second Engine on the same flags must
// open a fresh one (a closed store would silently persist nothing).
func TestEngineReuseAfterCleanupReopensStore(t *testing.T) {
	f := parse(t, "-parallel", "1", "-cache-file", filepath.Join(t.TempDir(), "decisions"))

	eng, cleanup, err := f.Engine(repro.WithMaxN(2))
	if err != nil {
		t.Fatal(err)
	}
	first := f.Cache
	if _, err := eng.Analyze(repro.TestAndSet()); err != nil {
		t.Fatal(err)
	}
	cleanup()
	if f.Cache != nil {
		t.Fatal("cleanup left the closed store memoized")
	}

	eng2, cleanup2, err := f.Engine(repro.WithMaxN(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup2()
	if f.Cache == nil || f.Cache == first {
		t.Fatalf("second Engine did not reopen the store (cache %p, first %p)", f.Cache, first)
	}
	if _, err := eng2.Analyze(repro.TestAndSet()); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := eng2.Cache().Stats(); misses != 0 || hits == 0 {
		t.Fatalf("reopened store not warm: hits=%d misses=%d", hits, misses)
	}
}

func TestEngineCacheFileOpenError(t *testing.T) {
	f := parse(t, "-cache-file", filepath.Join(t.TempDir(), "no-such-dir", "sub", "decisions"))
	if _, _, err := f.Engine(); err == nil {
		t.Fatal("Engine accepted an unopenable -cache-file")
	}
}

// TestEngineRejectsNegativeGraphCacheBudget: a negative budget, which
// once disabled the graph cache, fails at startup before any store is
// opened.
func TestEngineRejectsNegativeGraphCacheBudget(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "graphs")
	f := parse(t, "-graph-cache-budget", "-1", "-graph-dir", dir)
	if _, _, err := f.Engine(); err == nil || !strings.Contains(err.Error(), "-graph-cache-budget") {
		t.Fatalf("err = %v, want a -graph-cache-budget error", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("rejected flags opened the graph store (stat err %v)", err)
	}
}

func TestOpenCacheMemoizes(t *testing.T) {
	f := parse(t, "-cache-file", filepath.Join(t.TempDir(), "decisions"))
	pc1, err := f.OpenCache()
	if err != nil {
		t.Fatal(err)
	}
	defer pc1.Close()
	pc2, err := f.OpenCache()
	if err != nil || pc2 != pc1 {
		t.Fatalf("second OpenCache = (%v, %v), want the first store", pc2, err)
	}
}
