package difftest

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/decider"
	"repro/internal/discern"
	"repro/internal/protodef"
	"repro/internal/record"
	"repro/internal/spec"
)

// CorpusEntry is the on-disk form of one golden artifact under
// testdata/protogen: the generator seed it came from, the model-check
// parameters, and the full descriptor. The descriptor is committed
// verbatim — the golden test replays it as stored rather than
// regenerating from the seed, so generator changes cannot silently
// rewrite the corpus.
type CorpusEntry struct {
	Seed       uint64               `json:"seed"`
	Inputs     []int                `json:"inputs"`
	CrashQuota []int                `json:"crashQuota,omitempty"`
	Descriptor *protodef.Descriptor `json:"descriptor"`
}

// checkTeams validates the shared witness shape: one team per process,
// labels in {0, 1}, both teams nonempty, operations within the type.
func checkTeams(t *spec.FiniteType, n int, teams []int, ops []spec.Op) error {
	if len(teams) != n || len(ops) != n {
		return fmt.Errorf("witness has %d teams / %d ops for n=%d", len(teams), len(ops), n)
	}
	var seen [2]bool
	for i, team := range teams {
		if team != 0 && team != 1 {
			return fmt.Errorf("teams[%d] = %d, not a two-coloring", i, team)
		}
		seen[team] = true
	}
	if !seen[0] || !seen[1] {
		return fmt.Errorf("teams %v leave one side empty", teams)
	}
	for i, o := range ops {
		if int(o) < 0 || int(o) >= t.NumOps() {
			return fmt.Errorf("ops[%d] = %d out of range for %s", i, o, t.Name())
		}
	}
	return nil
}

// schedules enumerates every nonempty ordered schedule of distinct
// processes from {0..n-1} and calls visit with the schedule. The slice
// is reused across calls; visit must not retain it.
func schedules(n int, visit func(order []int)) {
	used := make([]bool, n)
	order := make([]int, 0, n)
	var rec func()
	rec = func() {
		if len(order) > 0 {
			visit(order)
		}
		for p := 0; p < n; p++ {
			if used[p] {
				continue
			}
			used[p] = true
			order = append(order, p)
			rec()
			order = order[:len(order)-1]
			used[p] = false
		}
	}
	rec()
}

// VerifyDiscern checks that w certifies t as n-discerning, by the
// definition: over every nonempty schedule of the assigned operations
// from U, each observation — a scheduled process together with its
// response and the schedule's final object value — must determine the
// first mover's team. The check re-simulates every schedule from U with
// nothing shared with the deciders under test.
func VerifyDiscern(t *spec.FiniteType, n int, w *discern.Witness) error {
	if w == nil {
		return fmt.Errorf("positive discerning decision with nil witness")
	}
	if w.N != n {
		return fmt.Errorf("witness N=%d for a n=%d decision", w.N, n)
	}
	if int(w.U) < 0 || int(w.U) >= t.NumValues() {
		return fmt.Errorf("witness U=%d out of range", w.U)
	}
	if err := checkTeams(t, n, w.Teams, w.Ops); err != nil {
		return err
	}
	type obs struct {
		j    int
		resp spec.Response
		val  spec.Value
	}
	team := make(map[obs]int)
	var bad error
	resps := make([]spec.Response, n)
	schedules(n, func(order []int) {
		if bad != nil {
			return
		}
		val := w.U
		for _, p := range order {
			e := t.Apply(val, w.Ops[p])
			resps[p] = e.Resp
			val = e.Next
		}
		first := w.Teams[order[0]]
		for _, j := range order {
			k := obs{j, resps[j], val}
			if prev, ok := team[k]; ok {
				if prev != first {
					bad = fmt.Errorf("observation (j=%d resp=%d final=%d) reachable from both teams (witness %s)",
						j, k.resp, k.val, w)
				}
			} else {
				team[k] = first
			}
		}
	})
	return bad
}

// VerifyRecord checks that w certifies t as n-recording: every final
// value reachable by a nonempty schedule from U must be producible from
// one team only (condition 1), and when U itself is producible, the team
// opposite U's producers must be a single process that cannot produce U
// (condition 2 — a lone opponent cannot fake the untouched value).
// Schedules are re-simulated from U independently of the deciders.
func VerifyRecord(t *spec.FiniteType, n int, w *record.Witness) error {
	if w == nil {
		return fmt.Errorf("positive recording decision with nil witness")
	}
	if w.N != n {
		return fmt.Errorf("witness N=%d for a n=%d decision", w.N, n)
	}
	if int(w.U) < 0 || int(w.U) >= t.NumValues() {
		return fmt.Errorf("witness U=%d out of range", w.U)
	}
	if err := checkTeams(t, n, w.Teams, w.Ops); err != nil {
		return err
	}
	// firstMask[v] = bitmask of first movers that can leave the object
	// at v via some nonempty schedule.
	firstMask := make(map[spec.Value]uint32)
	schedules(n, func(order []int) {
		val := w.U
		for _, p := range order {
			val = t.Apply(val, w.Ops[p]).Next
		}
		firstMask[val] |= 1 << uint(order[0])
	})
	for v, mask := range firstMask {
		team := -1
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			if team == -1 {
				team = w.Teams[i]
			} else if w.Teams[i] != team {
				return fmt.Errorf("final value %d producible from both teams (witness %s)", v, w)
			}
		}
	}
	maskU := firstMask[w.U]
	if maskU == 0 {
		return nil
	}
	producerTeam := -1
	for i := 0; i < n; i++ {
		if maskU&(1<<uint(i)) != 0 {
			producerTeam = w.Teams[i]
			break
		}
	}
	opposite := 1 - producerTeam
	lone := -1
	for i := 0; i < n; i++ {
		if w.Teams[i] != opposite {
			continue
		}
		if lone != -1 {
			return fmt.Errorf("U=%d producible but team %d has more than one process (witness %s)",
				w.U, opposite, w)
		}
		lone = i
	}
	if maskU&(1<<uint(lone)) != 0 {
		return fmt.Errorf("lone opponent p%d can itself produce U=%d (witness %s)", lone, w.U, w)
	}
	return nil
}

// Check is the differential oracle for one (type, n): it runs the
// production decider (internal/decider) at each of the given shard
// counts and fails on any divergence from the recursive reference
// deciders of internal/discern and internal/record — in decision or in
// witness bytes — or on a positive reference witness that does not
// independently verify. A shard count of 1 is the serial sweep the
// engine runs for levels it does not shard; entries must be >= 1, and
// {1, 2, 7} covers serial, even and uneven sharding.
func Check(ctx context.Context, t *spec.FiniteType, n int, shards []int) error {
	err := check("discerning", n, shards,
		func() (bool, *discern.Witness, error) {
			return discern.IsNDiscerningCtx(ctx, t, n, discern.Options{})
		},
		func(w *discern.Witness) error { return VerifyDiscern(t, n, w) },
		func(s int) (bool, *discern.Witness, error) { return decider.IsNDiscerning(ctx, t, n, s, nil) })
	if err != nil {
		return err
	}
	return check("recording", n, shards,
		func() (bool, *record.Witness, error) {
			return record.IsNRecordingCtx(ctx, t, n, record.Options{})
		},
		func(w *record.Witness) error { return VerifyRecord(t, n, w) },
		func(s int) (bool, *record.Witness, error) { return decider.IsNRecording(ctx, t, n, s, nil) })
}

// check is Check for one property: the reference decision, its
// independent verification, and the decider at every shard count.
func check[W any](prop string, n int, shards []int, reference func() (bool, *W, error), verify func(*W) error, decide func(shards int) (bool, *W, error)) error {
	ok, w, err := reference()
	if err != nil {
		return fmt.Errorf("reference: %s n=%d: %w", prop, n, err)
	}
	if ok {
		if err := verify(w); err != nil {
			return fmt.Errorf("reference: %s n=%d witness invalid: %w", prop, n, err)
		}
	} else if w != nil {
		return fmt.Errorf("reference: negative %s decision carries a witness", prop)
	}
	for _, s := range shards {
		dok, dw, err := decide(s)
		if err != nil {
			return fmt.Errorf("decider: %s n=%d shards=%d: %w", prop, n, s, err)
		}
		if dok != ok || !reflect.DeepEqual(dw, w) {
			return fmt.Errorf("%s n=%d shards=%d: reference says (%v, %v), decider says (%v, %v)",
				prop, n, s, ok, w, dok, dw)
		}
	}
	return nil
}
