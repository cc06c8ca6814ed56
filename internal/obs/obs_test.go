package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("two generated IDs collide: %q", a)
	}
	if len(a) != 16 || !ValidRequestID(a) {
		t.Fatalf("generated ID %q not a valid 16-hex token", a)
	}
	for id, want := range map[string]bool{
		"abc-123":                true,
		"trace/7:retry+1":        true,
		"":                       false,
		"has space":              false,
		"newline\nhere":          false,
		strings.Repeat("x", 129): false,
		strings.Repeat("x", 128): true,
	} {
		if got := ValidRequestID(id); got != want {
			t.Errorf("ValidRequestID(%q) = %v, want %v", id, got, want)
		}
	}
	ctx := WithRequestID(context.Background(), "rid-1")
	if got := RequestIDFrom(ctx); got != "rid-1" {
		t.Fatalf("RequestIDFrom = %q", got)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Fatalf("RequestIDFrom(empty) = %q", got)
	}
}

// TestLoggerInjectsRequestID proves the context handler stamps
// request_id on records logged under a request-scoped context — the
// mechanism that makes one grep reconstruct a request.
func TestLoggerInjectsRequestID(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelInfo)
	ctx := WithRequestID(context.Background(), "rid-xyz")
	lg.InfoContext(ctx, "http.access", slog.String("endpoint", "check"))
	lg.With(slog.String("component", "serve")).InfoContext(ctx, "derived")
	lg.InfoContext(context.Background(), "no-rid")
	lg.DebugContext(ctx, "below-level")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	for i, want := range []string{"rid-xyz", "rid-xyz", ""} {
		var rec map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		got, _ := rec["request_id"].(string)
		if got != want {
			t.Errorf("line %d request_id = %q, want %q (%s)", i, got, want, lines[i])
		}
	}
	if !strings.Contains(lines[1], `"component":"serve"`) {
		t.Errorf("WithAttrs lost on wrapped handler: %s", lines[1])
	}
}

func TestNopLogger(t *testing.T) {
	lg := NopLogger()
	if lg.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("nop logger claims to be enabled")
	}
	lg.Error("must not panic")
}
