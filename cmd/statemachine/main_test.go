package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/spec"
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

func TestText(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"tnn:5,2"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"T[5,2]", "s --op0/0--> s0,1", "s_bot"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestDot(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-dot", "tas"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "->") {
		t.Errorf("not DOT output:\n%s", out)
	}
}

func TestExportRoundTrips(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-export", "tas"}) })
	if err != nil {
		t.Fatal(err)
	}
	var ft spec.FiniteType
	if err := json.Unmarshal([]byte(out), &ft); err != nil {
		t.Fatalf("export is not valid type JSON: %v", err)
	}
	if ft.Name() != "test-and-set" || !ft.Readable() {
		t.Errorf("round-trip lost structure: %s", ft.Name())
	}
}

func TestList(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-list"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "product:A,B") {
		t.Errorf("list missing entries:\n%s", out)
	}
}

func TestBatchAnalyze(t *testing.T) {
	dir := t.TempDir()
	file := dir + "/types.txt"
	if err := os.WriteFile(file, []byte("# the classical gap pair\ntas\n\nregister:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"-batch", file, "-analyze", "sticky"})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Positional descriptors come first, then the batch file's, each with
	// its transition table and hierarchy summary.
	for _, want := range []string{"sticky-bit", "test-and-set", "register[2]", "cons", "rcons"} {
		if !strings.Contains(out, want) {
			t.Errorf("batch output missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "gap pair") {
		t.Errorf("comment line leaked into descriptors:\n%s", out)
	}
}

func TestCheckBatchMode(t *testing.T) {
	dir := t.TempDir()
	file := dir + "/reqs.json"
	// The same body shape POST /v1/check accepts, timeoutMs included.
	body := `{"protocol":"cas-rec:2","requests":[
		{"inputs":[0,1],"crashQuota":[1,1],"timeoutMs":30000},
		{"inputs":[0,1]},
		{"inputs":[0]}
	]}`
	if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return run([]string{"-check", file}) })
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Protocol string `json:"protocol"`
		Results  []struct {
			Error string `json:"error"`
			OK    bool   `json:"ok"`
			Nodes int    `json:"nodes"`
		} `json:"results"`
		Graph struct {
			Expanded uint64 `json:"expanded"`
			Reused   uint64 `json:"reused"`
		} `json:"graph"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-check output is not valid JSON: %v\n%s", err, out)
	}
	if res.Protocol != "cas-rec:2" || len(res.Results) != 3 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	if !res.Results[0].OK || res.Results[0].Nodes == 0 || !res.Results[1].OK {
		t.Fatalf("well-formed items failed: %+v", res.Results)
	}
	if !strings.Contains(res.Results[2].Error, "inputs") {
		t.Fatalf("malformed item should carry a per-item inputs error: %+v", res.Results[2])
	}
	if res.Graph.Expanded == 0 || res.Graph.Reused == 0 {
		t.Fatalf("batch reported no graph sharing: %+v", res.Graph)
	}
}

// TestCheckMatchesService: -check prints exactly the reply POST /v1/check
// gives for the same body, legacy backend field included: violations as
// {kind, trace, config, detail}, per-item errors and graph counters.
func TestCheckMatchesService(t *testing.T) {
	body := `{"protocol":"tas-reg","backend":"auto","requests":[{"inputs":[0,1],"crashQuota":[1,1]},{"inputs":[0]}]}`
	rec := httptest.NewRecorder()
	serve.New(serve.Config{}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/check = %d %s", rec.Code, rec.Body)
	}
	var resp serve.CheckResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || len(resp.Results[0].Violations) != 1 ||
		resp.Results[0].Violations[0].Kind != "agreement" || !strings.Contains(resp.Results[1].Error, "inputs") {
		t.Fatalf("unexpected service reply: %s", rec.Body)
	}
	want, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	file := t.TempDir() + "/reqs.json"
	if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return run([]string{"-check", file}) })
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want)+"\n" {
		t.Fatalf("-check output differs from the /v1/check reply:\n got %s\nwant %s", out, want)
	}

	if err := os.WriteFile(file, []byte(`{"protocolFingerprint":"00","requests":[{"inputs":[0,1]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = capture(t, func() error { return run([]string{"-check", file}) })
	if err == nil || !strings.Contains(err.Error(), "no protocol registry") {
		t.Fatalf("protocolFingerprint body: err = %v, want one naming the missing protocol registry", err)
	}
}

func TestCheckBatchModeErrors(t *testing.T) {
	if _, err := capture(t, func() error { return run([]string{"-check", "/nonexistent/file"}) }); err == nil {
		t.Error("missing -check file should fail")
	}
	dir := t.TempDir()
	for name, body := range map[string]string{
		"bad-protocol.json": `{"protocol":"nope","requests":[{"inputs":[0,1]}]}`,
		"no-requests.json":  `{"protocol":"cas-rec:2","requests":[]}`,
		"bad-json.json":     `{"protocol":`,
	} {
		file := dir + "/" + name
		if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := capture(t, func() error { return run([]string{"-check", file}) }); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
}

func TestBatchErrors(t *testing.T) {
	if _, err := capture(t, func() error { return run([]string{"-batch", "/nonexistent/file"}) }); err == nil {
		t.Error("missing -batch file should fail")
	}
}

func TestErrors(t *testing.T) {
	for _, args := range [][]string{{}, {"zzz"}} {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}
