package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

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

// TestFindsKnownSeed runs the seed window containing the frozen X4
// candidate.
func TestFindsKnownSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("search takes a few seconds")
	}
	out, err := capture(t, func() error {
		return run([]string{"-n", "4", "-seed", "1990", "-attempts", "10", "-sizes", "5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "seed=1994") {
		t.Errorf("expected to rediscover seed 1994:\n%s", out)
	}
}

func TestNoHitFails(t *testing.T) {
	// A tiny window with no hits must return an error.
	if _, err := capture(t, func() error {
		return run([]string{"-n", "4", "-seed", "1", "-attempts", "3", "-sizes", "5"})
	}); err == nil {
		t.Error("expected a no-candidate error")
	}
}

// TestNAboveCapFails: n above the level decider's cap fails with the
// decider's own message, as rcnum does, not as a search without hits.
func TestNAboveCapFails(t *testing.T) {
	_, err := capture(t, func() error {
		return run([]string{"-n", "17", "-attempts", "3", "-sizes", "5", "-parallel", "1"})
	})
	if want := "n=17 is above the level decider's cap n <= 16"; err == nil || err.Error() != want {
		t.Fatalf("-n 17: error %v, want %q", err, want)
	}
}

func TestArgErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "3"},
		{"-sizes", "x"},
		{"-sizes", "2"},
	} {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}
