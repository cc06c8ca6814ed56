package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/spec"
)

// killChildPath marks a TestJournalProcessKill child: the store path it
// opens.
const killChildPath = "REPRO_STORE_KILL_PATH"

// killMaxN is the level bound the child and the reference analyze at.
const killMaxN = 4

// killTypes are the registry types the child analyzes, one at a time,
// in this order: every family, positive and negative levels of both
// properties, readable and non-readable types.
var killTypes = []string{
	"tas", "register:1", "register:2", "register:3", "swap:1", "swap:2", "swap:3",
	"sticky", "x4", "x5", "trivial",
	"tnn:3,1", "tnn:4,2", "tnn:5,2", "tnn:6,3", "tnn:7,4", "tnn:7,6", "tnn:8,5",
	"y:3", "y:4", "y:5", "y:6", "y:8",
	"faa:2", "faa:3", "faa:5", "faa:13", "faa:24",
	"counter:2", "counter:3", "counter:12", "counter:24",
	"queue:1", "queue:2", "queue:3", "queue:4", "stack:1", "stack:2", "stack:3", "stack:4",
	"peekqueue:1", "peekqueue:2", "peekqueue:3", "peekqueue:4",
	"cas:2", "cas:3", "cas:5", "cas:8", "cas:10",
	"product:tas,register:1", "product:swap:1,faa:3", "product:register:1,counter:2",
}

// TestJournalProcessKill kills a process that is journaling decisions,
// ten times on one store path, one child alive at a time. The child
// (this test binary, re-executed) opens the store, analyzes killTypes
// one at a time at maxN 4 on two workers, and after each type calls
// Flush and prints the type's index. A child gets through the whole
// list in tens of milliseconds, so a wall-clock delay from its start
// would mostly land after it finished: each round instead kills the
// child a seeded 0–200 µs after it reports flushed a seeded index 0–2
// places past the types earlier children flushed, so every kill lands
// while the child journals types no earlier child reached. After
// each kill a fresh Open must succeed and leave the journal ending on a
// frame boundary, every loaded decision must equal, byte for byte,
// witness included, what a fresh in-memory engine decides for its key,
// and every type any child reported flushed must be answered with zero
// cache misses.
func TestJournalProcessKill(t *testing.T) {
	fts := make([]*spec.FiniteType, len(killTypes))
	for i, desc := range killTypes {
		ft, err := registry.Parse(desc)
		if err != nil {
			t.Fatal(err)
		}
		fts[i] = ft
	}
	if path := os.Getenv(killChildPath); path != "" {
		if err := killChild(path, fts); err != nil {
			t.Fatal(err)
		}
		return
	}
	ref := engine.New(engine.WithMaxN(killMaxN), engine.WithParallelism(2))
	if _, err := ref.AnalyzeAll(fts); err != nil {
		t.Fatal(err)
	}
	want := decisions(ref.Cache())

	path := filepath.Join(t.TempDir(), "decisions")
	jpath := path + journalSuffix
	rng := rand.New(rand.NewSource(1))
	const rounds = 10
	flushed := map[int]bool{}
	killed := 0
	for round := 0; round < rounds; round++ {
		// Children analyze in order, so the flushed types are a prefix.
		target := len(flushed) + rng.Intn(3)
		delay := time.Duration(rng.Intn(200)) * time.Microsecond
		cmd := exec.Command(os.Args[0], "-test.run=^TestJournalProcessKill$")
		cmd.Env = append(os.Environ(), killChildPath+"="+path)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(&out, line)
			idx, ok := strings.CutPrefix(line, "flushed ")
			if !ok {
				continue
			}
			i, err := strconv.Atoi(idx)
			if err != nil {
				t.Fatalf("round %d: child printed %q", round, line)
			}
			flushed[i] = true
			if i >= target && !sent {
				time.Sleep(delay)
				if err := cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
					t.Fatal(err)
				}
				sent = true
			}
		}
		// A child that finished before the kill must have passed; a
		// killed one reports the signal.
		err = cmd.Wait()
		if cmd.ProcessState.Exited() {
			if err != nil {
				t.Fatalf("round %d: the child failed before the kill: %v\n%s%s", round, err, out.String(), stderr.Bytes())
			}
		} else {
			killed++
		}

		st, err := Open(path)
		if err != nil {
			t.Fatalf("round %d (killed %v after index %d): %v", round, delay, target, err)
		}
		ends := frameEnds(t, jpath)
		end := len(header)
		if len(ends) > 0 {
			end = ends[len(ends)-1]
		}
		if fi, err := os.Stat(jpath); err != nil || fi.Size() != int64(end) {
			t.Fatalf("round %d: journal of %d bytes does not end on its last frame boundary %d (err %v)",
				round, fiSize(fi), end, err)
		}
		loaded := decisions(st.Cache())
		for k, e := range loaded {
			got, err := appendEntry(nil, e)
			if err != nil {
				t.Fatal(err)
			}
			w, ok := want[k]
			if !ok {
				t.Fatalf("round %d: loaded decision %+v has no key a fresh engine decides", round, k)
			}
			exp, err := appendEntry(nil, w)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, exp) {
				t.Fatalf("round %d: loaded decision %+v differs from a fresh engine's:\n got %q\nwant %q", round, k, got, exp)
			}
		}
		eng := engine.New(engine.WithCache(st.Cache()), engine.WithMaxN(killMaxN), engine.WithParallelism(2))
		_, before, _ := st.Cache().Stats()
		for i := range killTypes {
			if !flushed[i] {
				continue
			}
			if _, err := eng.Analyze(fts[i]); err != nil {
				t.Fatal(err)
			}
			if _, misses, _ := st.Cache().Stats(); misses != before {
				t.Fatalf("round %d: %s was reported flushed, but its analysis missed the reopened cache %d times",
					round, killTypes[i], misses-before)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("round %d: kill %v after index %d (child still running: %v), %d of %d types flushed, %d decisions loaded",
			round, delay, target, !cmd.ProcessState.Exited(), len(flushed), len(killTypes), len(loaded))
	}
	if killed == 0 {
		t.Fatal("every child finished before its kill, so no kill landed inside a run")
	}
}

// killChild is the child's run: analyze fts in order on the store at
// path, flushing and reporting each type's index.
func killChild(path string, fts []*spec.FiniteType) error {
	st, err := Open(path)
	if err != nil {
		return err
	}
	eng := engine.New(engine.WithCache(st.Cache()), engine.WithMaxN(killMaxN), engine.WithParallelism(2))
	for i, ft := range fts {
		if _, err := eng.Analyze(ft); err != nil {
			return fmt.Errorf("%s: %w", killTypes[i], err)
		}
		if err := st.Flush(); err != nil {
			return err
		}
		fmt.Printf("flushed %d\n", i)
	}
	return st.Close()
}
