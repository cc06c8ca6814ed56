package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestCachedAnalyzeAllocFloor is the allocation ratchet for a
// /v1/analyze whose every level is already in the decision cache — what
// a restarted server answers from its journal. Such a request decides
// nothing: it decodes, parses its descriptor, reads eight cached levels
// on the calling goroutine and encodes a compact reply. The bounds sit
// far under the counts of a server that dispatched hits through the
// worker pool, built types through nested string maps and indented its
// replies (266 and 826 allocs/op; 289 and 856 under -race), with
// headroom over today's (123 and 203; 133 and 218 under -race). The
// product is the bench type pool's heaviest parse.
func TestCachedAnalyzeAllocFloor(t *testing.T) {
	cases := []struct {
		desc  string
		limit float64
	}{
		{"faa:24", 180},
		{"product:faa:6,counter:6", 280},
	}
	for _, c := range cases {
		t.Run(c.desc, func(t *testing.T) {
			s := New(Config{Parallelism: 2})
			body := `{"type":"` + c.desc + `"}`
			analyze := func() {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("analyze %s = %d %s", c.desc, rec.Code, rec.Body)
				}
			}
			analyze() // prime the decision cache
			allocs := testing.AllocsPerRun(50, analyze)
			if allocs > c.limit {
				t.Errorf("cached analyze of %s allocates %.1f allocs/op, ratchet is %.0f",
					c.desc, allocs, c.limit)
			}
		})
	}
}

// TestWarmCheckServeAllocFloor is the allocation ratchet for a warm
// /v1/check through ServeHTTP: one crash-budgeted walk, quota 1 per
// process, over a primed graph — the request check-warm traffic sends.
// The request decodes, resolves its cached graph, walks it and encodes
// the reply; the walk itself allocates a fixed handful of flat slices,
// its node and edge lists sized from the graph's last walk of the same
// shape. The server has no slow-request threshold, so it builds no
// trace and its engines no events. The bounds leave the same relative
// headroom over today's counts (95 and 71 allocs/op, 103 and 74 under
// -race) as the bounds of 118 and 92 did over 96 and 76, the counts
// while every warm quota walk grew its lists again, those of 129 and
// 100 over 105 and 83, the counts when every batch validated its
// protocol, and those of 160 and 130 over 130 and 108, when every
// request built a trace and every batch named its protocol and
// formatted event details; a per-visit allocation would add hundreds:
// the walks have 912 and 442 nodes. tnn-wf:4,2 reports an agreement
// violation, cas-rec:3 passes.
func TestWarmCheckServeAllocFloor(t *testing.T) {
	cases := []struct {
		protocol, inputs, quota string
		limit                   float64
	}{
		{"tnn-wf:4,2", "0,1,0,1", "1,1,1,1", 117},
		{"cas-rec:3", "0,1,1", "1,1,1", 86},
	}
	for _, c := range cases {
		t.Run(c.protocol, func(t *testing.T) {
			s := New(Config{Parallelism: 2})
			body := `{"protocol":"` + c.protocol + `","requests":[{"inputs":[` + c.inputs +
				`],"crashQuota":[` + c.quota + `]}]}`
			check := func() {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("check %s = %d %s", c.protocol, rec.Code, rec.Body)
				}
			}
			check() // prime the graph cache
			allocs := testing.AllocsPerRun(50, check)
			if allocs > c.limit {
				t.Errorf("warm check of %s allocates %.1f allocs/op, ratchet is %.0f",
					c.protocol, allocs, c.limit)
			}
			t.Logf("%s: %.0f allocs/op", c.protocol, allocs)
		})
	}
}
