package main

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/decider"
)

// serveFor runs the server with args plus a run deadline, invoking fn
// once the listener is up, and returns run's error.
func serveFor(t *testing.T, args []string, d time.Duration, fn func(base string)) error {
	t.Helper()
	addrc := make(chan string, 1)
	testHookServing = func(addr string) { addrc <- addr }
	defer func() { testHookServing = nil }()

	done := make(chan error, 1)
	go func() { done <- run(append(args, "-addr", "127.0.0.1:0", "-timeout", d.String())) }()
	select {
	case addr := <-addrc:
		fn("http://" + addr)
	case err := <-done:
		t.Fatalf("server exited before listening: %v", err)
	}
	select {
	case err := <-done:
		return err
	case <-time.After(d + 10*time.Second):
		t.Fatal("server did not exit at its -timeout")
		return nil
	}
}

func TestServeAndShutdown(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "decisions")
	err := serveFor(t, []string{"-cache-file", cache, "-max-n", "3"}, 2*time.Second, func(base string) {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz = %d", resp.StatusCode)
		}

		resp, err = http.Post(base+"/v1/analyze", "application/json", strings.NewReader(`{"type":"tas"}`))
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("analyze = %d", resp.StatusCode)
		}
		var body struct {
			Analysis struct {
				ConsensusNumber string `json:"consensusNumber"`
			} `json:"analysis"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Analysis.ConsensusNumber != "2" {
			t.Errorf("tas consensus number = %q, want 2", body.Analysis.ConsensusNumber)
		}

		// Batched model checking over a shared exploration graph.
		resp, err = http.Post(base+"/v1/check", "application/json", strings.NewReader(
			`{"protocol":"cas-wf:2","requests":[{"inputs":[0,1]},{"inputs":[0,1]}]}`))
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("check = %d", resp.StatusCode)
		}
		var check struct {
			Results []struct {
				OK    bool   `json:"ok"`
				Error string `json:"error"`
			} `json:"results"`
			Graph struct {
				Reused uint64 `json:"reused"`
			} `json:"graph"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&check); err != nil {
			t.Fatal(err)
		}
		if len(check.Results) != 2 || !check.Results[0].OK || !check.Results[1].OK {
			t.Errorf("check results wrong: %+v", check.Results)
		}
		if check.Graph.Reused == 0 {
			t.Errorf("identical check requests reported no graph reuse")
		}

		// Prometheus export.
		resp, err = http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		defer resp.Body.Close()
		var metrics strings.Builder
		if _, err := io.Copy(&metrics, resp.Body); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(metrics.String(), `reprod_requests_total{endpoint="check",code="2xx"} 1`) {
			t.Errorf("metrics missing check counter:\n%s", metrics.String())
		}
	})
	// The -timeout deadline ends the run through the graceful path.
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestAutoCompaction runs the server with a fast -compact-every against
// a real cache file: decisions computed for an analyze request must be
// folded into a snapshot by the periodic compactor while requests are
// still being served, and the shutdown path must drain cleanly.
func TestAutoCompaction(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "decisions")
	err := serveFor(t, []string{"-cache-file", cache, "-max-n", "2", "-compact-every", "50ms"},
		2*time.Second, func(base string) {
			resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(`{"type":"tas"}`))
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("analyze = %d", resp.StatusCode)
			}
			// Wait out at least one compaction tick, then confirm the
			// snapshot exists via stats.
			deadline := time.Now().Add(time.Second)
			for {
				resp, err := http.Get(base + "/v1/stats")
				if err != nil {
					t.Fatalf("stats: %v", err)
				}
				var stats struct {
					Store *struct {
						SnapshotBytes int64 `json:"snapshotBytes"`
					} `json:"store"`
				}
				err = json.NewDecoder(resp.Body).Decode(&stats)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if stats.Store != nil && stats.Store.SnapshotBytes > 0 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("periodic compaction never produced a snapshot")
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestCompactOnDemand drives POST /v1/compact through the real binary
// wiring (store + serve + shutdown flush).
func TestCompactOnDemand(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "decisions")
	err := serveFor(t, []string{"-cache-file", cache, "-max-n", "2"}, 2*time.Second, func(base string) {
		resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(`{"type":"tas"}`))
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		resp.Body.Close()
		resp, err = http.Post(base+"/v1/compact", "application/json", nil)
		if err != nil {
			t.Fatalf("compact: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compact = %d", resp.StatusCode)
		}
		var body struct {
			Compacted bool `json:"compacted"`
			Store     struct {
				SnapshotBytes int64 `json:"snapshotBytes"`
			} `json:"store"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if !body.Compacted || body.Store.SnapshotBytes == 0 {
			t.Fatalf("compact response: %+v", body)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-max-n", "1"},
		{"-addr", "not an address"},
		{"unexpected-positional"},
		{"-cache-file", "/nonexistent-dir/sub/decisions"},
		{"-max-jobs", "0"},
		{"-max-jobs", "-3"},
		{"-job-queue", "0"},
		{"-graph-cache-budget", "-1"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestRunMaxNAboveCap: -max-n above the level decider's cap stops the
// server from starting, with the decider's one message naming the cap.
func TestRunMaxNAboveCap(t *testing.T) {
	n := decider.BitsetMaxN + 1
	err := run([]string{"-max-n", strconv.Itoa(n), "-addr", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), decider.CheckN(n).Error()) {
		t.Fatalf("err = %v, want the decider's cap error", err)
	}
}

// TestDebugListener runs the server with -debug-addr and checks the
// private surface: pprof index and profile endpoints answer, /metrics
// serves the exposition — and none of it is reachable on the public
// listener.
func TestDebugListener(t *testing.T) {
	dbgc := make(chan string, 1)
	testHookDebugServing = func(addr string) { dbgc <- addr }
	defer func() { testHookDebugServing = nil }()

	err := serveFor(t, []string{"-max-n", "2", "-debug-addr", "127.0.0.1:0"}, 2*time.Second,
		func(base string) {
			var dbg string
			select {
			case addr := <-dbgc:
				dbg = "http://" + addr
			case <-time.After(5 * time.Second):
				t.Fatal("debug listener never came up")
			}
			for path, want := range map[string]string{
				"/debug/pprof/":        "goroutine",
				"/debug/pprof/cmdline": "reprod",
				"/metrics":             "reprod_uptime_seconds",
				"/healthz":             "ok",
			} {
				resp, err := http.Get(dbg + path)
				if err != nil {
					t.Fatalf("debug %s: %v", path, err)
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), want) {
					t.Errorf("debug %s = %d, body missing %q", path, resp.StatusCode, want)
				}
			}
			// pprof must stay off the public listener.
			resp, err := http.Get(base + "/debug/pprof/")
			if err != nil {
				t.Fatalf("public pprof probe: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("public /debug/pprof/ = %d, want 404", resp.StatusCode)
			}
		})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}
