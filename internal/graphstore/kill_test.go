package graphstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/graphstore"
	"repro/internal/model"
	"repro/internal/registry"
)

// killChildDir and killChildRound mark a TestStoreProcessKill child: the
// directory it spills into and the round that picks its input vectors.
const (
	killChildDir   = "REPRO_GRAPHSTORE_KILL_DIR"
	killChildRound = "REPRO_GRAPHSTORE_KILL_ROUND"
)

// killProtocols are the registry protocols the child spills, killQuotas
// the per-process crash quotas it walks them at, in growing order.
var (
	killProtocols = []string{"cas-wf:2", "cas-rec:2", "tas-reg", "tnn-wf:3,2"}
	killQuotas    = []int{0, 1, 2}
)

// killKey is one graph of the kill test: a protocol at one input vector.
type killKey struct {
	pr     model.Protocol
	fp     string
	inputs []int
}

// killInputs returns input vector k of n processes: bit p of k is
// process p's input.
func killInputs(n, k int) []int {
	in := make([]int, n)
	for p := range in {
		in[p] = k >> p & 1
	}
	return in
}

// killKeys returns every graph the kill test can touch: each protocol
// at each of its input vectors.
func killKeys(t *testing.T) []killKey {
	var keys []killKey
	for _, desc := range killProtocols {
		pr, err := registry.ParseProtocol(desc)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := model.Fingerprint(pr)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 1<<pr.Procs(); k++ {
			keys = append(keys, killKey{pr: pr, fp: fp, inputs: killInputs(pr.Procs(), k)})
		}
	}
	return keys
}

// killWalks returns the complete walks the kill test compares a graph
// by: one per quota.
func killWalks(inputs []int) []model.CheckOpts {
	var walks []model.CheckOpts
	for _, q := range killQuotas {
		quota := make([]int, len(inputs))
		for p := range quota {
			quota[p] = q
		}
		walks = append(walks, model.CheckOpts{Inputs: inputs, CrashQuota: quota})
	}
	return walks
}

// TestStoreProcessKill kills a process that is spilling graphs, at a
// seeded point 5–200 ms into its run, for ten rounds on one directory,
// one child alive at a time. The child (this test binary, re-executed)
// loads whatever the killed children left, then walks four registry
// protocols with growing crash quotas and growing node caps and spills
// after every walk, so the kill lands between and inside page writes.
// After each kill a fresh Open must load every key without an error,
// and every loaded graph must import and walk exactly like a cold one.
func TestStoreProcessKill(t *testing.T) {
	if dir := os.Getenv(killChildDir); dir != "" {
		round, err := strconv.Atoi(os.Getenv(killChildRound))
		if err != nil {
			t.Fatal(err)
		}
		if err := killChild(dir, round); err != nil {
			t.Fatal(err)
		}
		return
	}
	keys := killKeys(t)
	cold := make([][]walkObs, len(keys))
	for i, k := range keys {
		_, cold[i] = expand(t, k.pr, k.inputs, killWalks(k.inputs))
	}

	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	const rounds = 10
	killed := 0
	for round := 0; round < rounds; round++ {
		delay := time.Duration(5+rng.Intn(196)) * time.Millisecond
		cmd := exec.Command(os.Args[0], "-test.run=^TestStoreProcessKill$")
		cmd.Env = append(os.Environ(), killChildDir+"="+dir, killChildRound+"="+strconv.Itoa(round))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(delay)
		if err := cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
			t.Fatal(err)
		}
		// A child that finished before the kill must have passed; a
		// killed one reports the signal.
		err := cmd.Wait()
		if cmd.ProcessState.Exited() {
			if err != nil {
				t.Fatalf("round %d: the child failed before the kill: %v\n%s", round, err, out.Bytes())
			}
		} else {
			killed++
		}

		s, err := graphstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		loaded := 0
		for i, k := range keys {
			snap, err := s.Load(k.fp, k.inputs)
			if err != nil {
				t.Fatalf("round %d (killed after %v): %v", round, delay, err)
			}
			if snap == nil {
				continue
			}
			loaded++
			g, err := model.NewGraph(k.pr, k.inputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.ImportSnapshot(snap); err != nil {
				t.Fatalf("round %d: %s at inputs %v loaded a snapshot that does not import: %v",
					round, k.fp[:8], k.inputs, err)
			}
			for w, opts := range killWalks(k.inputs) {
				r, err := g.Check(opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := observe(r); !reflect.DeepEqual(got, cold[i][w]) {
					t.Fatalf("round %d: %s at inputs %v, quota %v: the loaded graph walks\n%+v\nwant the cold graph's\n%+v",
						round, k.fp[:8], k.inputs, opts.CrashQuota, got, cold[i][w])
				}
			}
		}
		if st := s.Stats(); st.Errors != 0 {
			t.Fatalf("round %d: fresh store counters %+v, want no error", round, st)
		}
		t.Logf("round %d: kill after %v (child still running: %v), %d of %d keys loaded",
			round, delay, !cmd.ProcessState.Exited(), loaded, len(keys))
	}
	if killed == 0 {
		t.Fatal("every child finished before its kill, so no kill landed inside a run")
	}
}

// killChild is the child's run: for four rounds from round on, for
// each protocol at the round's input vector, load what earlier children
// spilled, then walk at growing quotas, each quota with a node cap that
// grows by one until the walk completes, and spill after every walk. The rounds wrap around each
// protocol's input vectors, so later children extend files that killed
// children left with a torn tail.
func killChild(dir string, round int) error {
	s, err := graphstore.Open(dir)
	if err != nil {
		return err
	}
	for r := round; r < round+4; r++ {
		for _, desc := range killProtocols {
			pr, err := registry.ParseProtocol(desc)
			if err != nil {
				return err
			}
			fp, err := model.Fingerprint(pr)
			if err != nil {
				return err
			}
			inputs := killInputs(pr.Procs(), r%(1<<pr.Procs()))
			g, err := model.NewGraph(pr, inputs)
			if err != nil {
				return err
			}
			snap, err := s.Load(fp, inputs)
			if err != nil {
				return err
			}
			if snap != nil {
				if err := g.ImportSnapshot(snap); err != nil {
					return fmt.Errorf("%s at inputs %v: %w", desc, inputs, err)
				}
			}
			for _, opts := range killWalks(inputs) {
				for limit := 1; ; limit++ {
					opts.MaxNodes = limit
					res, err := g.Check(opts)
					if err != nil {
						return err
					}
					if _, err := s.Spill(fp, inputs, g.Export()); err != nil {
						return err
					}
					if !res.Truncated {
						break
					}
				}
			}
		}
	}
	return nil
}
