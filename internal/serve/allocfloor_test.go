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
// the reply; the walk itself allocates a fixed handful of flat slices.
// The bounds leave headroom over today's counts (133 and 113 allocs/op
// before the walk moved to dense ids, 148 and 121 under -race), and a
// per-visit allocation would add hundreds: the walks have 912 and 442
// nodes. tnn-wf:4,2 reports an agreement violation, cas-rec:3 passes.
func TestWarmCheckServeAllocFloor(t *testing.T) {
	cases := []struct {
		protocol, inputs, quota string
		limit                   float64
	}{
		{"tnn-wf:4,2", "0,1,0,1", "1,1,1,1", 160},
		{"cas-rec:3", "0,1,1", "1,1,1", 130},
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
