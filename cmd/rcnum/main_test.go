package main

import (
	"bytes"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/decider"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

func TestRunTAS(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-n", "3", "tas"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cons=2", "rcons=1", "discerning", "recording"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunNonReadableNote(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-n", "3", "tnn:3,1"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "not readable") {
		t.Errorf("missing non-readable note:\n%s", out)
	}
}

func TestRunWitness(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-n", "2", "-witness", "tas"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2-discerning witness") {
		t.Errorf("missing witness output:\n%s", out)
	}
}

func TestRunList(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-list"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tnn:n,n'") {
		t.Errorf("list output missing registry entries:\n%s", out)
	}
}

func TestRunJSON(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/tas.json"
	spec := `{
		"name": "json-tas",
		"values": ["0", "1"],
		"ops": ["TAS", "read"],
		"transitions": {
			"0/TAS": {"resp": 0, "next": "1"},
			"1/TAS": {"resp": 1, "next": "1"},
			"0/read": {"resp": 100, "next": "0"},
			"1/read": {"resp": 101, "next": "1"}
		}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return run([]string{"-n", "3", "-json", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "json-tas") || !strings.Contains(out, "cons=2") {
		t.Errorf("json analysis wrong:\n%s", out)
	}
}

// captureStderr runs fn with os.Stderr redirected.
func captureStderr(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	runErr := fn()
	w.Close()
	os.Stderr = old
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

// TestRunCacheFile analyzes twice against one -cache-file: the second
// run must serve every decision from the warm cache, and -progress must
// close with the cache/store statistics summary.
func TestRunCacheFile(t *testing.T) {
	cache := t.TempDir() + "/decisions"
	args := []string{"-n", "3", "-cache-file", cache, "-progress", "tas"}
	for run1st := range 2 {
		errs, err := captureStderr(t, func() error {
			out, err := capture(t, func() error { return run(args) })
			if err == nil && !strings.Contains(out, "cons=2") {
				t.Errorf("run %d output wrong:\n%s", run1st, out)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(errs, "[engine] cache:") || !strings.Contains(errs, "cache file "+cache) {
			t.Errorf("run %d missing stats summary on stderr:\n%s", run1st, errs)
		}
		if run1st == 1 && !strings.Contains(errs, "0 misses") {
			t.Errorf("second run recomputed decisions:\n%s", errs)
		}
	}
	if _, err := os.Stat(cache + ".journal"); err != nil {
		t.Fatalf("no journal written: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                 // no types
		{"nosuchtype"},     // unknown type
		{"-n", "1", "tas"}, // bad maxN
		{"-json", "/nonexistent/file.json"},
	} {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestRunNAboveCap: -n above the level decider's cap fails before any
// work, with the decider's one message naming the cap.
func TestRunNAboveCap(t *testing.T) {
	n := decider.BitsetMaxN + 1
	out, err := capture(t, func() error { return run([]string{"-n", strconv.Itoa(n), "tas"}) })
	if err == nil || !strings.Contains(err.Error(), decider.CheckN(n).Error()) {
		t.Fatalf("err = %v, want the decider's cap error", err)
	}
	if out != "" {
		t.Fatalf("printed %q before rejecting -n", out)
	}
}
