package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/protodef"
)

func TestCheckBatchEndpoint(t *testing.T) {
	s := New(Config{})
	code, body := post(t, s, "/v1/check", `{
		"protocol": "cas-rec:2",
		"requests": [
			{"inputs": [0, 1]},
			{"inputs": [0, 1], "crashQuota": [1, 1]},
			{"inputs": [0, 1], "crashQuota": [1, 1]}
		]
	}`)
	if code != http.StatusOK {
		t.Fatalf("check = %d %s", code, body)
	}
	var resp CheckResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	for i, res := range resp.Results {
		if res.Error != "" || !res.OK || res.Nodes == 0 {
			t.Fatalf("item %d: %+v", i, res)
		}
	}
	// Items 1 and 2 are identical and item 0 is a prefix of their space:
	// the shared graph must have been reused.
	if resp.Graph.Expanded == 0 || resp.Graph.Reused == 0 {
		t.Fatalf("no shared-graph reuse reported: %+v", resp.Graph)
	}
	// Violating protocol: TAS+registers under individual crashes.
	code, body = post(t, s, "/v1/check", `{
		"protocol": "tas-reg",
		"requests": [{"inputs": [0, 1], "crashQuota": [1, 1]}]
	}`)
	if code != http.StatusOK {
		t.Fatalf("check = %d %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].OK || len(resp.Results[0].Violations) == 0 {
		t.Fatalf("tas-reg under crashes should violate, got %+v", resp.Results[0])
	}
	if resp.Results[0].Violations[0].Trace == "" || resp.Results[0].Violations[0].Kind == "" {
		t.Fatalf("violation missing trace/kind: %+v", resp.Results[0].Violations[0])
	}
}

// TestCheckPerItemErrors: one malformed item (wrong inputs length) must
// not fail the batch.
func TestCheckPerItemErrors(t *testing.T) {
	s := New(Config{})
	code, body := post(t, s, "/v1/check", `{
		"protocol": "cas-wf:2",
		"requests": [
			{"inputs": [0, 1]},
			{"inputs": [0, 1, 1]},
			{"inputs": [1, 0]}
		]
	}`)
	if code != http.StatusOK {
		t.Fatalf("check with one malformed item = %d %s", code, body)
	}
	var resp CheckResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" || !resp.Results[0].OK {
		t.Fatalf("item 0 should succeed: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" || !strings.Contains(resp.Results[1].Error, "inputs") {
		t.Fatalf("item 1 should carry an inputs error: %+v", resp.Results[1])
	}
	if resp.Results[2].Error != "" || !resp.Results[2].OK {
		t.Fatalf("item 2 should succeed: %+v", resp.Results[2])
	}
}

// TestCheckPerItemTimeout: an item with an absurdly small timeout fails
// alone; its sibling completes.
func TestCheckPerItemTimeout(t *testing.T) {
	s := New(Config{})
	code, body := post(t, s, "/v1/check", `{
		"protocol": "cas-rec:2",
		"requests": [
			{"inputs": [0, 1], "crashQuota": [2, 2], "timeoutMs": 1},
			{"inputs": [0, 1]}
		]
	}`)
	if code != http.StatusOK {
		t.Fatalf("check = %d %s", code, body)
	}
	var resp CheckResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	// The 1ms item usually trips its deadline; if the machine is fast
	// enough to finish anyway, it must have finished correctly.
	if resp.Results[0].Error == "" && !resp.Results[0].OK {
		t.Fatalf("timed item neither errored nor completed: %+v", resp.Results[0])
	}
	if resp.Results[1].Error != "" || !resp.Results[1].OK {
		t.Fatalf("untimed sibling failed: %+v", resp.Results[1])
	}
}

func TestCheckRequestValidation(t *testing.T) {
	s := New(Config{BatchLimit: 2})
	for name, body := range map[string]string{
		"unknown protocol": `{"protocol":"nope","requests":[{"inputs":[0,1]}]}`,
		"empty batch":      `{"protocol":"cas-wf:2","requests":[]}`,
		"over limit":       `{"protocol":"cas-wf:2","requests":[{"inputs":[0,1]},{"inputs":[0,1]},{"inputs":[0,1]}]}`,
		"unknown field":    `{"protocol":"cas-wf:2","requests":[{"inputs":[0,1],"quota":[1,1]}]}`,
	} {
		code, respBody := post(t, s, "/v1/check", body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: got %d %s, want 400", name, code, respBody)
		}
	}
}

// TestCheckStatsAndMetrics verifies graph counters surface on /v1/stats
// and /metrics.
func TestCheckStatsAndMetrics(t *testing.T) {
	s := New(Config{})
	code, body := post(t, s, "/v1/check", `{
		"protocol": "cas-wf:2",
		"requests": [{"inputs":[0,1]},{"inputs":[0,1]}]
	}`)
	if code != http.StatusOK {
		t.Fatalf("check = %d %s", code, body)
	}
	code, body = get(t, s, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests.Check != 1 || stats.ChecksRun != 2 {
		t.Fatalf("check counters wrong: %+v", stats.Requests)
	}
	if stats.Graph.Expanded == 0 || stats.Graph.Reused == 0 || stats.Graph.HitRate == 0 {
		t.Fatalf("graph counters not threaded to stats: %+v", stats.Graph)
	}
	code, body = get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`reprod_requests_total{endpoint="check",code="2xx"} 1`,
		`reprod_http_request_duration_seconds_count{endpoint="check"} 1`,
		`reprod_engine_graph_duration_seconds_count{phase="resolve"}`,
		`reprod_graph_expansions_total{outcome="expanded"}`,
		`reprod_graph_expansions_total{outcome="reused"}`,
		`# TYPE reprod_cache_requests_total counter`,
		"reprod_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestBatchPerItemErrorPaths re-checks the analyze-batch contract next to
// the check-batch one: a malformed descriptor mid-batch must not cost the
// other items their analyses.
func TestBatchPerItemErrorPaths(t *testing.T) {
	s := New(Config{MaxN: 3})
	code, body := post(t, s, "/v1/batch", `{"types":["tas","definitely-not-a-type","register:2"],"maxN":2}`)
	if code != http.StatusOK {
		t.Fatalf("batch = %d %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	if resp.Results[0].Analysis == nil || resp.Results[0].Error != "" {
		t.Fatalf("tas should analyze: %+v", resp.Results[0])
	}
	if resp.Results[1].Analysis != nil || !strings.Contains(resp.Results[1].Error, "unknown type") {
		t.Fatalf("bad descriptor should carry its own error: %+v", resp.Results[1])
	}
	if resp.Results[2].Analysis == nil || resp.Results[2].Error != "" {
		t.Fatalf("register:2 should analyze: %+v", resp.Results[2])
	}
}

// TestNamedProtocolResolvedOnce pins the server's registry-descriptor
// memo: a descriptor resolves to one protocol value, so the graph
// cache's fingerprint memo serves every later request naming it instead
// of recompiling and re-hashing a fresh value. The memo keeps at most
// protodef.DefaultStoreLimit descriptors; past the bound, descriptors
// still resolve, parsed per request.
func TestNamedProtocolResolvedOnce(t *testing.T) {
	s := New(Config{})
	first, label, err := s.resolveProtocol("tnn-wf:3,2", "")
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := s.resolveProtocol("tnn-wf:3,2", "")
	if err != nil {
		t.Fatal(err)
	}
	if first != again || label != "tnn-wf:3,2" {
		t.Fatalf("one descriptor resolved to two protocol values (label %q)", label)
	}
	if _, _, err := s.resolveProtocol("bogus", ""); err == nil {
		t.Fatal("unknown descriptor resolved")
	}
	// Distinct descriptors within registry.MaxParam: cas-wf, cas-rec
	// and tnn-wf:3,1 at 1, 2, ... processes in turn.
	var descs []string
	procsOf := map[string]int{}
	for procs := 1; len(descs) < protodef.DefaultStoreLimit+8; procs++ {
		for _, format := range []string{"cas-wf:%d", "cas-rec:%d", "tnn-wf:3,1,%d"} {
			desc := fmt.Sprintf(format, procs)
			descs = append(descs, desc)
			procsOf[desc] = procs
		}
	}
	descs = descs[:protodef.DefaultStoreLimit+8]
	for _, desc := range descs {
		if _, _, err := s.resolveProtocol(desc, ""); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.named) != protodef.DefaultStoreLimit {
		t.Fatalf("memo holds %d descriptors, want the bound %d", len(s.named), protodef.DefaultStoreLimit)
	}
	past := descs[len(descs)-1]
	p1, _, err := s.resolveProtocol(past, "")
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := s.resolveProtocol(past, "")
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 || p1.Procs() != procsOf[past] {
		t.Fatalf("a descriptor past the bound was memoized or misparsed (%s: procs %d)", past, p1.Procs())
	}
}

// TestConcurrentNamedChecksIdentical runs by-name checks concurrently
// through the shared descriptor and fingerprint memos (run it under
// -race): every reply's results must be byte-identical to a serial
// check's.
func TestConcurrentNamedChecksIdentical(t *testing.T) {
	body := `{"protocol": "tnn-wf:3,2", "requests": [
		{"inputs": [0, 1, 1], "crashQuota": [1, 1, 1]},
		{"inputs": [0, 1, 1]},
		{"inputs": [1, 0, 0], "crashQuota": [0, 1, 1]}
	]}`
	results := func(s *Server) []byte {
		code, reply := post(t, s, "/v1/check", body)
		if code != http.StatusOK {
			t.Errorf("check = %d %s", code, reply)
			return nil
		}
		var resp CheckResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			t.Error(err)
			return nil
		}
		out, err := json.Marshal(resp.Results)
		if err != nil {
			t.Error(err)
		}
		return out
	}
	want := results(New(Config{}))
	s := New(Config{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := results(s); !bytes.Equal(got, want) {
				t.Errorf("concurrent by-name check answered\n%s\nwant\n%s", got, want)
			}
		}()
	}
	wg.Wait()
	if len(s.named) != 1 {
		t.Fatalf("memo holds %d descriptors after one descriptor's checks, want 1", len(s.named))
	}
}

// TestOversizedDescriptorsAnswer400 pins the descriptor bounds at the
// HTTP boundary: an oversized type or protocol descriptor is a 400
// bad_request answered before anything is built, and a rejected
// protocol leaves no entry in the server's descriptor memo.
func TestOversizedDescriptorsAnswer400(t *testing.T) {
	s := New(Config{})
	for _, c := range []struct{ path, body string }{
		{"/v1/analyze", `{"type":"faa:1000000"}`},
		{"/v1/batch", `{"types":["faa:1000000"]}`},
		{"/v1/check", `{"protocol":"tnn-wf:100000,1","requests":[{"inputs":[0,1]}]}`},
		{"/v1/jobs", `{"kind":"check","check":{"protocol":"tnn-wf:100000,1","requests":[{"inputs":[0,1]}]}}`},
	} {
		code, body := post(t, s, c.path, c.body)
		var er errorResponse
		if c.path == "/v1/batch" {
			// A batch answers 200 with the descriptor's error in its item.
			var resp BatchResponse
			if err := json.Unmarshal(body, &resp); err != nil || code != http.StatusOK ||
				len(resp.Results) != 1 || !strings.Contains(resp.Results[0].Error, "maximum of 128") {
				t.Errorf("POST %s %s = %d %s, want the bound in the item error", c.path, c.body, code, body)
			}
			continue
		}
		if err := json.Unmarshal(body, &er); err != nil || code != http.StatusBadRequest ||
			er.Code != CodeBadRequest || !strings.Contains(er.Error, "maximum of 128") {
			t.Errorf("POST %s %s = %d %s, want 400 %s naming the bound", c.path, c.body, code, body, CodeBadRequest)
		}
	}
	if len(s.named) != 0 {
		t.Fatalf("rejected descriptors left %d entries in the descriptor memo", len(s.named))
	}
}
