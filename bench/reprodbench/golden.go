package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// goldenJSON holds the expected answer of every pool entry. The golden
// test recomputes it with core.Analyze and model.Check, so it cannot rot.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// golden is the parsed form of testdata/golden.json.
type golden struct {
	// MaxN is the analysis bound the answers hold for (the server default).
	MaxN    int           `json:"maxN"`
	Analyze []typeAnswer  `json:"analyze"`
	Check   []checkAnswer `json:"check"`
	types   map[string]*typeAnswer
	checks  map[string]*checkAnswer
}

// typeAnswer is the expected /v1/analyze reply for one pool type.
type typeAnswer struct {
	Type                       string `json:"type"`
	ConsensusNumber            string `json:"consensusNumber"`
	RecoverableConsensusNumber string `json:"recoverableConsensusNumber"`
}

// checkAnswer is the expected /v1/check item result for one pool pair at
// crashQuota.
type checkAnswer struct {
	Protocol string   `json:"protocol"`
	Inputs   []int    `json:"inputs"`
	Quota    int      `json:"quota"`
	OK       bool     `json:"ok"`
	Kinds    []string `json:"kinds"`
	Nodes    int      `json:"nodes"`
}

func checkKey(protocol string, inputs []int, quota int) string {
	return fmt.Sprintf("%s %v q%d", protocol, inputs, quota)
}

// parseGolden decodes and indexes a golden file.
func parseGolden(data []byte) (*golden, error) {
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	g.types = make(map[string]*typeAnswer, len(g.Analyze))
	for i := range g.Analyze {
		g.types[g.Analyze[i].Type] = &g.Analyze[i]
	}
	g.checks = make(map[string]*checkAnswer, len(g.Check))
	for i := range g.Check {
		c := &g.Check[i]
		g.checks[checkKey(c.Protocol, c.Inputs, c.Quota)] = c
	}
	return &g, nil
}

// typeAnswer returns the expected analysis of a pool type.
func (g *golden) typeAnswer(desc string) (*typeAnswer, error) {
	a, ok := g.types[desc]
	if !ok {
		return nil, fmt.Errorf("golden: no answer for type %q", desc)
	}
	return a, nil
}

// checkAnswer returns the expected result of checking a pool pair.
func (g *golden) checkAnswer(p pair) (*checkAnswer, error) {
	a, ok := g.checks[checkKey(p.protocol, p.inputs, crashQuota)]
	if !ok {
		return nil, fmt.Errorf("golden: no answer for %s %v quota %d", p.protocol, p.inputs, crashQuota)
	}
	return a, nil
}

// analyzeReply is the part of a /v1/analyze reply the golden file pins.
type analyzeReply struct {
	Analysis struct {
		ConsensusNumber            string `json:"consensusNumber"`
		RecoverableConsensusNumber string `json:"recoverableConsensusNumber"`
	} `json:"analysis"`
}

// checkReply is the part of a /v1/check reply the golden file pins.
type checkReply struct {
	Results []struct {
		Error      string `json:"error"`
		OK         bool   `json:"ok"`
		Nodes      int    `json:"nodes"`
		Violations []struct {
			Kind string `json:"kind"`
		} `json:"violations"`
	} `json:"results"`
}

// verify compares one reply body with the op's golden answers.
func (o *op) verify(status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %s", status, clip(body))
	}
	if o.analyze != nil {
		var r analyzeReply
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("analyze reply: %w", err)
		}
		got := r.Analysis
		if got.ConsensusNumber != o.analyze.ConsensusNumber ||
			got.RecoverableConsensusNumber != o.analyze.RecoverableConsensusNumber {
			return fmt.Errorf("%s: cons %s rcons %s, golden %s %s", o.analyze.Type,
				got.ConsensusNumber, got.RecoverableConsensusNumber,
				o.analyze.ConsensusNumber, o.analyze.RecoverableConsensusNumber)
		}
		return nil
	}
	var r checkReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("check reply: %w", err)
	}
	if len(r.Results) != 1 {
		return fmt.Errorf("check reply has %d results for 1 item", len(r.Results))
	}
	got, want := r.Results[0], o.check
	kinds := make([]string, len(got.Violations))
	for j, v := range got.Violations {
		kinds[j] = v.Kind
	}
	if got.Error != "" || got.OK != want.OK || got.Nodes != want.Nodes || !slices.Equal(kinds, want.Kinds) {
		return fmt.Errorf("%s %v quota %d: ok=%v nodes=%d kinds=%v error=%q, golden ok=%v nodes=%d kinds=%v",
			want.Protocol, want.Inputs, want.Quota, got.OK, got.Nodes, kinds, got.Error,
			want.OK, want.Nodes, want.Kinds)
	}
	return nil
}

// clip shortens a reply body for an error message.
func clip(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
