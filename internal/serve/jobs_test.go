package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/model"
	"repro/internal/protodef"
	"repro/internal/registry"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	ID    string
	Event string
	Data  string
}

// readSSE consumes a text/event-stream until the job's terminal event
// (or EOF), returning every parsed event.
func readSSE(t *testing.T, r *bufio.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return events
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if cur.Event != "" || cur.Data != "" {
				events = append(events, cur)
				if state, ok := strings.CutPrefix(cur.Event, "job."); ok && jobs.State(state).Terminal() {
					return events
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.ID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// TestIntegrationJobsProtocolsSSE is the async subsystem's end-to-end
// contract, and what CI runs race-enabled:
//
//  1. A user-submitted descriptor that is structurally identical to the
//     registry's tnn-wf:3,2 registers under the registry build's exact
//     fingerprint (identity is structure, not names), and re-registering
//     is idempotent.
//  2. A /v1/check via that fingerprint reuses the exploration graph a
//     registry-named check already cached — the hit shows up in
//     /v1/stats under "graphCache".
//  3. A check job submitted to POST /v1/jobs streams at least one
//     engine progress event and a terminal "job.done" over SSE, and the
//     finished job's result is retrievable from GET /v1/jobs/{id}.
func TestIntegrationJobsProtocolsSSE(t *testing.T) {
	srv := New(Config{MaxN: 3, Parallelism: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// ---- Descriptor twin of a registry protocol.
	reg, err := registry.ParseProtocol("tnn-wf:3,2")
	if err != nil {
		t.Fatal(err)
	}
	wantFP, err := model.Fingerprint(reg)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := protodef.Describe(reg)
	if err != nil {
		t.Fatal(err)
	}
	desc.Name = "my-tnn-twin" // nominal data must not matter
	body, err := json.Marshal(desc)
	if err != nil {
		t.Fatal(err)
	}

	code, respBody := httpPost(t, ts.URL+"/v1/protocols", string(body))
	if code != http.StatusCreated {
		t.Fatalf("register = %d %s, want 201", code, respBody)
	}
	var pr ProtocolResponse
	if err := json.Unmarshal(respBody, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Fingerprint != wantFP {
		t.Fatalf("registered fingerprint %s, want registry build's %s", pr.Fingerprint, wantFP)
	}
	if code, _ = httpPost(t, ts.URL+"/v1/protocols", string(body)); code != http.StatusOK {
		t.Fatalf("re-register = %d, want 200 (idempotent)", code)
	}
	code, detail := httpGet(t, ts.URL+"/v1/protocols/"+pr.Fingerprint)
	if code != http.StatusOK || !bytes.Contains(detail, []byte(`"descriptor"`)) {
		t.Fatalf("protocol detail = %d %s", code, detail)
	}

	// ---- Registry-named check warms the graph cache...
	checkItems := `"requests":[{"inputs":[0,1,1]},{"inputs":[0,1,1],"crashQuota":[1,0,0]}]`
	code, respBody = httpPost(t, ts.URL+"/v1/check", `{"protocol":"tnn-wf:3,2",`+checkItems+`}`)
	if code != http.StatusOK {
		t.Fatalf("named check = %d %s", code, respBody)
	}
	stats := httpGetStats(t, ts.URL)
	if stats.GraphCache.Misses == 0 {
		t.Fatalf("named check did not populate the graph cache: %+v", stats.GraphCache)
	}
	misses := stats.GraphCache.Misses

	// ---- ...and the fingerprint-addressed check walks the same graph.
	code, respBody = httpPost(t, ts.URL+"/v1/check",
		`{"protocolFingerprint":"`+pr.Fingerprint+`",`+checkItems+`}`)
	if code != http.StatusOK {
		t.Fatalf("fingerprint check = %d %s", code, respBody)
	}
	stats = httpGetStats(t, ts.URL)
	if stats.GraphCache.Hits == 0 {
		t.Fatalf("fingerprint check missed the cached graph: %+v", stats.GraphCache)
	}
	if stats.GraphCache.Misses != misses {
		t.Fatalf("fingerprint check expanded a new graph (misses %d -> %d): structural identity broken",
			misses, stats.GraphCache.Misses)
	}

	// ---- Async job with SSE progress.
	code, respBody = httpPost(t, ts.URL+"/v1/jobs",
		`{"kind":"check","check":{"protocolFingerprint":"`+pr.Fingerprint+`",`+checkItems+`}}`)
	if code != http.StatusAccepted {
		t.Fatalf("job submit = %d %s, want 202", code, respBody)
	}
	var view jobs.View
	if err := json.Unmarshal(respBody, &view); err != nil {
		t.Fatal(err)
	}
	if view.ID == "" || view.State.Terminal() {
		t.Fatalf("submitted job view wrong: %+v", view)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	events := readSSE(t, bufio.NewReader(resp.Body))
	var progress int
	terminal := ""
	for _, e := range events {
		if strings.HasPrefix(e.Event, "job.") {
			if jobs.State(strings.TrimPrefix(e.Event, "job.")).Terminal() {
				terminal = e.Event
			}
			continue
		}
		progress++
	}
	if progress < 1 {
		t.Errorf("SSE stream carried no engine progress events: %+v", events)
	}
	if terminal != "job.done" {
		t.Errorf("SSE terminal event = %q, want job.done (stream: %+v)", terminal, events)
	}

	code, respBody = httpGet(t, ts.URL+"/v1/jobs/"+view.ID)
	if code != http.StatusOK {
		t.Fatalf("job get = %d %s", code, respBody)
	}
	var done jobs.View
	if err := json.Unmarshal(respBody, &done); err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateDone || done.Result == nil {
		t.Fatalf("finished job view wrong: %+v", done)
	}

	// ---- Jobs and protocols surface in stats and metrics.
	stats = httpGetStats(t, ts.URL)
	if stats.Jobs.Done < 1 {
		t.Errorf("stats jobs.done = %d, want >= 1", stats.Jobs.Done)
	}
	if stats.Protocols != 1 {
		t.Errorf("stats protocols = %d, want 1", stats.Protocols)
	}
	code, metrics := httpGet(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, m := range []string{
		"reprod_jobs_queued", "reprod_jobs_running",
		`reprod_jobs_done_total{outcome="done"}`, "reprod_jobs_rejected_total",
		"reprod_protocols_registered 1",
	} {
		if !bytes.Contains(metrics, []byte(m)) {
			t.Errorf("metrics missing %q", m)
		}
	}
}

// httpGet GETs against a real socket.
func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestJobQueueFullAnswers429 pins the backpressure contract: with one
// worker pinned by a blocking job and a one-slot queue already holding a
// job, POST /v1/jobs answers 429 without disturbing the queued work.
func TestJobQueueFullAnswers429(t *testing.T) {
	srv := New(Config{MaxN: 2, JobWorkers: 1, JobQueue: 1})
	defer srv.Shutdown(context.Background())

	release := make(chan struct{})
	started := make(chan struct{})
	blocker, _, err := srv.jobsMgr.Submit(jobs.Spec{
		Kind: "test.block",
		Run: func(ctx context.Context, j *jobs.Job) (any, error) {
			close(started)
			select {
			case <-release:
				return "released", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started // worker is pinned; the queue is empty again

	// Fill the single queue slot over HTTP.
	submit := `{"kind":"analyze","analyze":{"type":"register:2"}}`
	code, body := post(t, srv, "/v1/jobs", submit)
	if code != http.StatusAccepted {
		t.Fatalf("queue-filling submit = %d %s, want 202", code, body)
	}

	// The next submission must bounce with 429.
	code, body = post(t, srv, "/v1/jobs", submit)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-queue submit = %d %s, want 429", code, body)
	}
	var envelope errorResponse
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Code != CodeQueueFull {
		t.Fatalf("429 body has no %s code (%v): %s", CodeQueueFull, err, body)
	}
	st := srv.jobsMgr.Stats()
	if st.Rejected != 1 || st.Queued != 1 || st.Running != 1 {
		t.Fatalf("stats after rejection = %+v", st)
	}

	// Releasing the blocker drains the queue; everything finishes.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = srv.jobsMgr.Stats()
		if st.Queued == 0 && st.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue did not drain: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := blocker.View(); v.State != jobs.StateDone {
		t.Fatalf("blocker finished as %s, want done", v.State)
	}
}

// TestJobValidationAndLifecycleHTTP covers the submission-time validation
// contract (bad requests are 400s, not failed jobs) and cancellation.
func TestJobValidationAndLifecycleHTTP(t *testing.T) {
	srv := New(Config{MaxN: 3})
	defer srv.Shutdown(context.Background())

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"kind":"frobnicate"}`, http.StatusBadRequest},
		{`{"kind":"analyze"}`, http.StatusBadRequest},                                 // no payload
		{`{"kind":"analyze","analyze":{"type":"nosuchtype"}}`, http.StatusBadRequest}, // unresolvable
		{`{"kind":"check","check":{"protocol":"tas-reg","requests":[]}}`, http.StatusBadRequest},
		{`{"kind":"check","check":{"protocol":"tas-reg","protocolFingerprint":"abc","requests":[{"inputs":[0,1]}]}}`,
			http.StatusBadRequest}, // both selectors
		{`{"kind":"check","check":{"protocolFingerprint":"deadbeef","requests":[{"inputs":[0,1]}]}}`,
			http.StatusBadRequest}, // unknown fingerprint
		{`{"kind":"theorem13","theorem13":{"protocol":"tas-reg","inputs":[0]}}`, http.StatusBadRequest},
	} {
		code, body := post(t, srv, "/v1/jobs", tc.body)
		if code != tc.want {
			t.Errorf("POST /v1/jobs %s = %d %s, want %d", tc.body, code, body, tc.want)
		}
	}
	if st := srv.jobsMgr.Stats(); st.Failed != 0 {
		t.Errorf("validation errors became failed jobs: %+v", st)
	}

	// Unknown job paths 404.
	if code, _ := get(t, srv, "/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", code)
	}
	if code, _ := get(t, srv, "/v1/jobs/nope/events"); code != http.StatusNotFound {
		t.Errorf("GET unknown job events = %d, want 404", code)
	}

	// A theorem13 job runs end to end and renders a chain.
	code, body := post(t, srv, "/v1/jobs",
		`{"kind":"theorem13","theorem13":{"protocol":"cas-rec:2","inputs":[0,1],"crashQuota":[0,1]}}`)
	if code != http.StatusAccepted {
		t.Fatalf("theorem13 submit = %d %s", code, body)
	}
	var view jobs.View
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	j, ok := srv.jobsMgr.Get(view.ID)
	if !ok {
		t.Fatal("submitted job not found")
	}
	_, ch, cancel := j.Subscribe(0)
	defer cancel()
	deadline := time.After(30 * time.Second)
	for !j.State().Terminal() {
		select {
		case <-ch:
		case <-deadline:
			t.Fatal("theorem13 job did not finish")
		}
	}
	code, body = get(t, srv, "/v1/jobs/"+view.ID)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"rendered"`)) {
		t.Fatalf("theorem13 result = %d %s", code, body)
	}
}

// TestProtocolRegisterErrors pins the registration error contract.
func TestProtocolRegisterErrors(t *testing.T) {
	srv := New(Config{MaxN: 2})
	defer srv.Shutdown(context.Background())

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"not json", `{{{`, http.StatusBadRequest},
		{"unknown field", `{"name":"x","bogus":1}`, http.StatusBadRequest},
		{"invalid descriptor", `{"name":"x","procs":1}`, http.StatusBadRequest},
	} {
		code, body := post(t, srv, "/v1/protocols", tc.body)
		if code != tc.want {
			t.Errorf("%s: POST /v1/protocols = %d %s, want %d", tc.name, code, body, tc.want)
		}
	}
	if code, _ := get(t, srv, "/v1/protocols/"+strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Errorf("GET unknown protocol = %d, want 404", code)
	}
}

// TestAnalyzeByFingerprint covers /v1/analyze addressing a registered
// protocol's object type by fingerprint.
func TestAnalyzeByFingerprint(t *testing.T) {
	srv := New(Config{MaxN: 3})
	defer srv.Shutdown(context.Background())

	reg, err := registry.ParseProtocol("cas-rec:2")
	if err != nil {
		t.Fatal(err)
	}
	desc, err := protodef.Describe(reg)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(desc)
	if err != nil {
		t.Fatal(err)
	}
	code, resp := post(t, srv, "/v1/protocols", string(body))
	if code != http.StatusCreated {
		t.Fatalf("register = %d %s", code, resp)
	}
	var pr ProtocolResponse
	if err := json.Unmarshal(resp, &pr); err != nil {
		t.Fatal(err)
	}

	code, resp = post(t, srv, "/v1/analyze",
		fmt.Sprintf(`{"protocolFingerprint":%q}`, pr.Fingerprint))
	if code != http.StatusOK {
		t.Fatalf("analyze by fingerprint = %d %s", code, resp)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(resp, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Analysis == nil || ar.Analysis.ConsensusNumber == "" {
		t.Fatalf("fingerprint analysis wrong: %+v", ar.Analysis)
	}

	// Both or neither selector is a 400.
	if code, _ := post(t, srv, "/v1/analyze",
		fmt.Sprintf(`{"type":"tas","protocolFingerprint":%q}`, pr.Fingerprint)); code != http.StatusBadRequest {
		t.Errorf("analyze with both selectors = %d, want 400", code)
	}
	if code, _ := post(t, srv, "/v1/analyze", `{}`); code != http.StatusBadRequest {
		t.Errorf("analyze with no selector = %d, want 400", code)
	}
}
