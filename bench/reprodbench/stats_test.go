package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		sorted []float64
		pct    int
		want   float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{[]float64{1, 2}, 50, 1},
		{seq(10), 99, 10},
		{seq(100), 50, 50},
		{seq(100), 99, 99},
		{seq(101), 50, 51},
		{seq(200), 99, 198},
		{seq(2000), 99, 1980},
	} {
		if got := quantile(tc.sorted, tc.pct); got != tc.want {
			t.Errorf("quantile(%d samples, p%d) = %v, want %v", len(tc.sorted), tc.pct, got, tc.want)
		}
	}
}

func TestParseSteal(t *testing.T) {
	for text, want := range map[string]int64{
		"cpu  3908171 0 155498 1506099 103179 0 22682 120977 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n": 120977,
		"cpu  1 2 3 4 5 6 7\n":   -1, // a kernel without the steal field
		"cpu0 1 2 3 4 5 6 7 8\n": -1,
		"cpu  1 2 3 4 5 6 7 x\n": -1,
		"":                       -1,
	} {
		if got := parseSteal(text); got != want {
			t.Errorf("parseSteal(%q) = %d, want %d", text, got, want)
		}
	}
}

func TestSummarizeKeepsLeastStolenBlocks(t *testing.T) {
	ms := time.Millisecond
	// Four 100ms blocks; the VM's steal counter advances by 0, 3, 1 and 1,
	// so the median block has 1 tick of steal.
	samples := []sample{
		{at: 0, cpu: 0, steal: 10},
		{at: 100 * ms, cpu: 90 * ms, steal: 10},
		{at: 200 * ms, cpu: 200 * ms, steal: 13},
		{at: 300 * ms, cpu: 280 * ms, steal: 14},
		{at: 400 * ms, cpu: 380 * ms, steal: 15},
	}
	times := []opTime{
		{end: 50 * ms, latency: 4 * ms},
		{end: 99 * ms, latency: 2 * ms},
		{end: 150 * ms, latency: 40 * ms}, // in the block with the most steal
		{end: 250 * ms, latency: 3 * ms},
		{end: 350 * ms, latency: 9 * ms},
	}
	got := summarize(samples, times)
	want := steady{blocks: 4, kept: 3, ops: 4, wall: 300 * ms, cpu: 270 * ms, p50: 3, p99: 9}
	if got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}

	// A host that does not report steal keeps every block.
	for i := range samples {
		samples[i].steal = -1
	}
	if got := summarize(samples, times); got.kept != 4 || got.ops != 5 || got.p99 != 40 {
		t.Errorf("without steal: %+v, want all 4 blocks and 5 ops", got)
	}
}

// testdata/metrics.txt is a /metrics exposition captured from a server
// after a few check and analyze requests.
func captured(t *testing.T) exposition {
	t.Helper()
	data, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	e, err := parseExposition(string(data))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParseExposition(t *testing.T) {
	e := captured(t)
	for series, want := range map[string]float64{
		seriesCacheMiss:  8,
		seriesGraphMiss:  2,
		seriesGraphHit:   1,
		seriesGraphNodes: 36,
		`reprod_engine_graph_duration_seconds_count{phase="resolve"}`:             3,
		`reprod_http_request_duration_seconds_bucket{endpoint="check",le="+Inf"}`: 2,
	} {
		if got, ok := e[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if _, err := parseExposition("reprod_uptime_seconds\n"); err == nil {
		t.Error("a sample without a value parsed")
	}
	if _, err := parseExposition("reprod_uptime_seconds x\n"); err == nil {
		t.Error("a sample with a non-numeric value parsed")
	}
}

func TestScrapeDeltas(t *testing.T) {
	before := captured(t)
	after := exposition{}
	for k, v := range before {
		after[k] = v
	}
	after[seriesCacheMiss] += 5
	after[seriesGraphNodes] = 500
	s := newScrapeSum()
	s.add(before, after)
	s.add(nil, exposition{seriesCacheMiss: 2})
	if got := s.delta[seriesCacheMiss]; got != 7 {
		t.Errorf("summed miss delta = %v, want 7 (5 on the long-lived server, 2 on the new one)", got)
	}
	if got := s.delta[seriesGraphHit]; got != 0 {
		t.Errorf("unchanged series delta = %v, want 0", got)
	}
	if got, ok := s.last[seriesGraphNodes]; ok {
		t.Errorf("gauge read from the last scrape = %v, want absent", got)
	}
}

// A series a later server revision no longer exports nulls the metrics
// built on it, with a warning, instead of failing the run.
func TestLayersRenamedSeriesIsNull(t *testing.T) {
	e := captured(t)
	for k := range e {
		if strings.HasPrefix(k, "reprod_engine_graph_duration_seconds") {
			delete(e, k)
		}
	}
	ph := &phase{ops: 2, handle: 3e6, wall: 4e6, scrapes: newScrapeSum()}
	ph.scrapes.add(nil, e)
	var warn strings.Builder
	got := units(layers(ph, layerInputs{plainThroughput: 1}, &warn), layerUnits)
	for _, name := range []string{"serve.self_us", "engine.graph_resolve.share", "model.walk.count"} {
		if v := got[name].Value; v != nil {
			t.Errorf("%s = %v, want null", name, *v)
		}
	}
	for _, name := range []string{"serve.handle_us", "decider.levels_computed", "model.graph_nodes"} {
		if got[name].Value == nil {
			t.Errorf("%s is null, want a value", name)
		}
	}
	if !strings.Contains(warn.String(), `reprod_engine_graph_duration_seconds_sum{phase="walk"}`) {
		t.Errorf("warning does not name the missing series:\n%s", warn.String())
	}
}
