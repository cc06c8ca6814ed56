package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// waitJobDone polls a job until it reaches the done state.
func waitJobDone(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body := get(t, s, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job get = %d %s", code, body)
		}
		var v struct {
			State jobs.State `json:"state"`
			Error string     `json:"error"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == jobs.StateDone {
			return
		}
		if v.State.Terminal() {
			t.Fatalf("job ended %s: %s", v.State, v.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
}

// TestBackendSelection drives the legacy backend field end to end: every
// name API revision 2 accepted is a no-op answering the same analysis as
// a request naming none, and neither /v1/stats nor /metrics reports
// per-backend decision counters any more.
func TestBackendSelection(t *testing.T) {
	s := New(Config{MaxN: 3})
	var want []byte
	for _, backend := range []string{"", "search", "bitset", "auto"} {
		code, body := post(t, s, "/v1/analyze", `{"type":"tas","backend":"`+backend+`"}`)
		if code != http.StatusOK {
			t.Fatalf("analyze backend=%q = %d %s", backend, code, body)
		}
		var resp AnalyzeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Analysis == nil || resp.Analysis.ConsensusNumber != "2" {
			t.Fatalf("backend=%q analysis wrong: %+v", backend, resp.Analysis)
		}
		if want == nil {
			want = body
		} else if !bytes.Equal(body, want) {
			t.Fatalf("backend=%q answered\n%s\nwant\n%s", backend, body, want)
		}
	}

	code, body := get(t, s, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d %s", code, body)
	}
	if strings.Contains(string(body), `"deciders"`) {
		t.Fatalf("stats still reports deciders: %s", body)
	}
	code, body = get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	if strings.Contains(string(body), "reprod_decider_total") {
		t.Fatal("metrics still export reprod_decider_total")
	}
}

// TestBackendInvalidArgument: every endpoint carrying a backend field
// answers 400 with the invalid_argument code on an unknown name —
// including job submission, where the error must come at enqueue, not
// as a failed job.
func TestBackendInvalidArgument(t *testing.T) {
	s := New(Config{MaxN: 2})
	for _, tc := range []struct{ path, body string }{
		{"/v1/analyze", `{"type":"tas","backend":"nope"}`},
		{"/v1/batch", `{"types":["tas"],"backend":"nope"}`},
		{"/v1/check", `{"protocol":"tas-reg","requests":[{"inputs":[0,1]}],"backend":"nope"}`},
		{"/v1/jobs", `{"kind":"analyze","analyze":{"type":"tas","backend":"nope"}}`},
		{"/v1/jobs", `{"kind":"check","check":{"protocol":"tas-reg","requests":[{"inputs":[0,1]}],"backend":"nope"}}`},
		{"/v1/jobs", `{"kind":"theorem13","theorem13":{"protocol":"tas-reg","inputs":[0,1],"backend":"nope"}}`},
	} {
		code, body := post(t, s, tc.path, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("POST %s %s = %d %s, want 400", tc.path, tc.body, code, body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Code != CodeInvalidArgument {
			t.Errorf("POST %s code = %q, want %q (%s)", tc.path, er.Code, CodeInvalidArgument, body)
		}
	}
	// No job may have been enqueued for the rejected submissions.
	if st := s.jobsMgr.Stats(); st.Queued != 0 || st.Running != 0 || st.Done != 0 || st.Failed != 0 {
		t.Fatalf("jobs ran despite invalid backend: %+v", st)
	}
}

// TestJobBackendRuns: a legacy backend name on a job submission is
// accepted and the job completes, deciding its levels.
func TestJobBackendRuns(t *testing.T) {
	s := New(Config{MaxN: 2})
	code, body := post(t, s, "/v1/jobs", `{"kind":"analyze","analyze":{"type":"tas","backend":"bitset"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("job submit = %d %s", code, body)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, s, v.ID)
	if _, misses, _ := s.cfg.Cache.Stats(); misses == 0 {
		t.Fatal("job decided no levels")
	}
}
