package report

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/discern"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/record"
	"repro/internal/spec"
	"repro/internal/types"
	"repro/internal/universal"
)

// PaperSuite builds the full experiment suite E1..E15 (the ones
// `go run ./cmd/experiments` lists), running every spectrum analysis on
// the serial reference analyzer.
func PaperSuite() *Suite {
	return PaperSuiteWith(nil)
}

// PaperSuiteWith is PaperSuite with the analysis-heavy experiments (E7,
// E9, E10) routed through az — typically a repro engine, so their level
// decisions are memoized, parallel, and (with a persistent cache) reused
// across runs. A nil az selects the serial reference analyzer,
// core.Analyze. Experiments that measure decider cost (E11) or pin the
// deciders themselves (E8) always call them directly: routing those
// through a cache would fake their point.
func PaperSuiteWith(az Analyzer) *Suite {
	if az == nil {
		az = coreAnalyzer{}
	}
	s := &Suite{}
	s.Add(e1Figure3())
	s.Add(e2TnnWaitFree())
	s.Add(e3TnnUpperBound())
	s.Add(e4TnnRecoverable())
	s.Add(e5TnnRecoverableUpperBound())
	s.Add(e6CriticalSearch())
	s.Add(e7Robustness(az))
	s.Add(e8TASGap())
	s.Add(e9XFamilies(az))
	s.Add(e10ZooTable(az))
	s.Add(e11DeciderScaling())
	s.Add(e12Universality())
	s.Add(e13Theorem13Chain())
	s.Add(e14TeamConsensus())
	s.Add(e15RuppertVsRecording())
	return s
}

// allInputs enumerates binary input vectors for n processes.
func allInputs(n int) [][]int {
	var out [][]int
	for m := 0; m < 1<<uint(n); m++ {
		in := make([]int, n)
		for p := 0; p < n; p++ {
			in[p] = (m >> uint(p)) & 1
		}
		out = append(out, in)
	}
	return out
}

// checkProtocol explores a protocol over every input vector and reports
// whether any violation was found.
func checkProtocol(pr model.Protocol, quota []int) (violated bool, first string, err error) {
	for _, in := range allInputs(pr.Procs()) {
		res, err := model.Check(pr, model.CheckOpts{Inputs: in, CrashQuota: quota})
		if err != nil {
			return false, "", err
		}
		if len(res.Violations) > 0 {
			return true, fmt.Sprintf("inputs %v: %s", in, res.Violations[0]), nil
		}
	}
	return false, "", nil
}

func uniformQuota(n, k int, spareP0 bool) []int {
	q := make([]int, n)
	for p := range q {
		if p == 0 && spareP0 {
			continue
		}
		q[p] = k
	}
	return q
}

// e1Figure3 re-derives the state machine of T_{5,2} and diffs it against
// the hand-coded expectation from Figure 3.
func e1Figure3() Experiment {
	return Experiment{
		ID:    "E1",
		Title: "Figure 3 — state machine of T_{5,2}",
		Claim: "T_{5,2} has 10 values; op0/op1 record and replay the first team for 4 ops then exhaust; opR reads for i<=2 and destroys for i>2",
		Run: func() ([]string, bool, string) {
			ft := types.Tnn(5, 2)
			rows := []string{
				fmt.Sprintf("values=%d ops=%d readable=%v", ft.NumValues(), ft.NumOps(), ft.Readable()),
			}
			pass := ft.NumValues() == 10 && ft.NumOps() == 3 && !ft.Readable()
			// Walk the chain from s under op1, as in Figure 3's lower arm.
			op1, _ := ft.OpByName("op1")
			opR, _ := ft.OpByName("opR")
			v, _ := ft.ValueByName("s")
			var chain []string
			for i := 0; i < 5; i++ {
				e := ft.Apply(v, op1)
				chain = append(chain, ft.ValueName(e.Next))
				if i < 4 && e.Resp != types.TnnResp1 {
					pass = false
				}
				v = e.Next
			}
			rows = append(rows, "op1 chain from s: "+strings.Join(chain, " -> "))
			if chain[4] != "s_bot" {
				pass = false
			}
			// opR destroys s_{1,3}.
			v3, _ := ft.ValueByName("s1,3")
			e := ft.Apply(v3, opR)
			rows = append(rows, fmt.Sprintf("opR on s1,3: resp=%s next=%s",
				ft.RespName(e.Resp), ft.ValueName(e.Next)))
			if e.Resp != types.TnnRespBot || ft.ValueName(e.Next) != "s_bot" {
				pass = false
			}
			// opR reads s_{1,2}.
			v2, _ := ft.ValueByName("s1,2")
			e = ft.Apply(v2, opR)
			rows = append(rows, fmt.Sprintf("opR on s1,2: resp=%s next=%s",
				ft.RespName(e.Resp), ft.ValueName(e.Next)))
			if e.Next != v2 {
				pass = false
			}
			return rows, pass, ""
		},
	}
}

// e2TnnWaitFree model-checks Lemma 15's lower bound.
func e2TnnWaitFree() Experiment {
	return Experiment{
		ID:    "E2",
		Title: "Lemma 15 (lower bound) — T_{n,n'} solves wait-free n-consensus",
		Claim: "the one-shot algorithm decides the first mover's input for n processes, over all schedules and inputs",
		Run: func() ([]string, bool, string) {
			var rows []string
			pass := true
			for _, c := range []struct{ n, np int }{{2, 1}, {3, 1}, {3, 2}, {4, 2}, {5, 2}} {
				violated, first, err := checkProtocol(proto.NewTnnWaitFree(c.n, c.np, c.n), nil)
				if err != nil {
					return rows, false, err.Error()
				}
				ok := !violated
				pass = pass && ok
				rows = append(rows, fmt.Sprintf("T[%d,%d] x %d procs: violations=%v %s",
					c.n, c.np, c.n, violated, first))
			}
			return rows, pass, ""
		},
	}
}

// e3TnnUpperBound model-checks Lemma 15's upper bound shape.
func e3TnnUpperBound() Experiment {
	return Experiment{
		ID:    "E3",
		Title: "Lemma 15 (upper bound) — T_{n,n'} fails at n+1 processes",
		Claim: "cons(T_{n,n'}) <= n: with n+1 processes the (n+1)-th operation returns bot and the algorithm breaks; the decider confirms not (n+1)-discerning",
		Run: func() ([]string, bool, string) {
			var rows []string
			pass := true
			for _, c := range []struct{ n, np int }{{2, 1}, {3, 2}, {4, 2}} {
				violated, _, err := checkProtocol(proto.NewTnnWaitFree(c.n, c.np, c.n+1), nil)
				if err != nil {
					return rows, false, err.Error()
				}
				okD, _ := discern.IsNDiscerning(types.Tnn(c.n, c.np), c.n+1)
				rows = append(rows, fmt.Sprintf(
					"T[%d,%d] x %d procs: algorithm breaks=%v, %d-discerning=%v",
					c.n, c.np, c.n+1, violated, c.n+1, okD))
				pass = pass && violated && !okD
			}
			return rows, pass, ""
		},
	}
}

// e4TnnRecoverable model-checks Lemma 16's lower bound under crashes.
func e4TnnRecoverable() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "Lemma 16 (lower bound) — T_{n,n'} solves recoverable n'-consensus",
		Claim: "the opR-first algorithm is agreement/validity/recoverable-wait-freedom correct for n' processes under individual crashes",
		Run: func() ([]string, bool, string) {
			var rows []string
			pass := true
			cases := []struct{ n, np, crashes int }{{3, 2, 2}, {4, 2, 3}, {5, 2, 3}, {4, 3, 2}}
			for _, c := range cases {
				pr := proto.NewTnnRecoverable(c.n, c.np, c.np)
				violated, first, err := checkProtocol(pr, uniformQuota(c.np, c.crashes, false))
				if err != nil {
					return rows, false, err.Error()
				}
				rows = append(rows, fmt.Sprintf(
					"T[%d,%d] x %d procs, <=%d crashes each: violations=%v %s",
					c.n, c.np, c.np, c.crashes, violated, first))
				pass = pass && !violated
			}
			return rows, pass, ""
		},
	}
}

// e5TnnRecoverableUpperBound model-checks Lemma 16's upper bound shape.
func e5TnnRecoverableUpperBound() Experiment {
	return Experiment{
		ID:    "E5",
		Title: "Lemma 16 (upper bound) — T_{n,n'} recoverable algorithm fails at n'+1 processes",
		Claim: "rcons(T_{n,n'}) <= n': the crash-burn adversary pushes the counter past n', opR destroys the object, and agreement breaks",
		Run: func() ([]string, bool, string) {
			var rows []string
			pass := true
			for _, c := range []struct{ n, np int }{{3, 1}, {4, 2}, {5, 2}, {4, 3}} {
				pr := proto.NewTnnRecoverable(c.n, c.np, c.np+1)
				violated, first, err := checkProtocol(pr, uniformQuota(c.np+1, 2, false))
				if err != nil {
					return rows, false, err.Error()
				}
				rows = append(rows, fmt.Sprintf(
					"T[%d,%d] x %d procs: violation found=%v %s",
					c.n, c.np, c.np+1, violated, shorten(first, 90)))
				pass = pass && violated
			}
			return rows, pass, ""
		},
	}
}

// e6CriticalSearch exercises the valency engine of Section 3.
func e6CriticalSearch() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "Section 3 machinery (Figures 1-2) — critical executions and Observation 11",
		Claim: "critical executions exist and terminate; both teams nonempty (Lemma 7); all processes poised on one object (Lemma 9); configurations classify per Observation 11",
		Run: func() ([]string, bool, string) {
			var rows []string
			pass := true
			cases := []struct {
				pr    model.Protocol
				quota []int
				want  string
			}{
				{proto.NewCASWaitFree(2), nil, "n-recording"},
				{proto.NewCASWaitFree(3), nil, "n-recording"},
				{proto.NewTnnWaitFree(3, 2, 3), nil, "colliding"},
				{proto.NewTnnRecoverable(4, 2, 2), []int{0, 2}, ""},
			}
			for _, c := range cases {
				inputs := make([]int, c.pr.Procs())
				for p := range inputs {
					inputs[p] = p % 2
				}
				res, err := model.Check(c.pr, model.CheckOpts{Inputs: inputs, CrashQuota: c.quota})
				if err != nil {
					return rows, false, err.Error()
				}
				info, err := model.FindCritical(res)
				if err != nil {
					return rows, false, err.Error()
				}
				teams := [2]int{}
				for _, t := range info.Teams {
					teams[t]++
				}
				ok := teams[0] > 0 && teams[1] > 0 && (c.want == "" || info.Class == c.want)
				pass = pass && ok
				rows = append(rows, fmt.Sprintf(
					"%s: critical after [%s], teams %d/%d, class=%s",
					c.pr.Name(), info.Trace, teams[0], teams[1], info.Class))
			}
			return rows, pass, ""
		},
	}
}

// levelLeq compares hierarchy levels treating Unbounded as +infinity.
func levelLeq(a, b int) bool {
	if b == core.Unbounded {
		return true
	}
	if a == core.Unbounded {
		return false
	}
	return a <= b
}

// levelMax returns the larger hierarchy level (Unbounded dominates).
func levelMax(a, b int) int {
	if a == core.Unbounded || b == core.Unbounded {
		return core.Unbounded
	}
	if a > b {
		return a
	}
	return b
}

// e7Robustness checks Theorem 14's empirical content on product objects,
// and probes the paper's open problem on non-readable components.
func e7Robustness(az Analyzer) Experiment {
	return Experiment{
		ID:    "E7",
		Title: "Theorems 13/14 — robustness on composite (product) objects",
		Claim: "combining readable deterministic types never raises the recording level above the strongest component; for non-readable components robustness is the paper's open problem (Section 5)",
		Run: func() ([]string, bool, string) {
			var rows []string
			pass := true
			pairs := []struct {
				a, b *spec.FiniteType
			}{
				{types.TestAndSet(), types.TestAndSet()},
				{types.TestAndSet(), types.Register(2)},
				{types.Swap(2), types.FetchAdd(3)},
				{types.Register(2), types.Register(2)},
				{types.TestAndSet(), types.StickyBit()},
			}
			const maxN = 3
			for _, pc := range pairs {
				// An injected engine's AnalyzeTo can fail (context
				// cancellation); the serial reference cannot. Report,
				// don't dereference nil.
				la, errA := az.AnalyzeTo(pc.a, maxN)
				lb, errB := az.AnalyzeTo(pc.b, maxN)
				lp, errP := az.AnalyzeTo(types.Product(pc.a, pc.b), maxN)
				for _, err := range []error{errA, errB, errP} {
					if err != nil {
						return rows, false, err.Error()
					}
				}
				max := levelMax(la.RecoverableConsensusNumber, lb.RecoverableConsensusNumber)
				got := lp.RecoverableConsensusNumber
				ok := levelLeq(got, max)
				pass = pass && ok
				rows = append(rows, fmt.Sprintf("%s x %s: recording(product)=%s vs max(components)=%s",
					pc.a.Name(), pc.b.Name(),
					core.LevelString(got, maxN), core.LevelString(max, maxN)))
			}
			// Open-problem probe (informational, does not gate pass): the
			// capacity-1 queue is non-readable, and its recording level is
			// unbounded by the letter of the definition even though its
			// recoverable consensus number is not established; Theorem 14
			// says nothing about such components.
			lq, errQ := az.AnalyzeTo(types.Queue(1), maxN)
			lpq, errPQ := az.AnalyzeTo(types.Product(types.TestAndSet(), types.Queue(1)), maxN)
			if errQ != nil || errPQ != nil {
				return rows, false, errors.Join(errQ, errPQ).Error()
			}
			rows = append(rows, fmt.Sprintf(
				"open-problem probe: recording(queue[1])=%s, recording(tas x queue[1])=%s (non-readable; no Theorem 14 constraint)",
				core.LevelString(lq.RecoverableConsensusNumber, maxN),
				core.LevelString(lpq.RecoverableConsensusNumber, maxN)))
			return rows, pass, ""
		},
	}
}

// e8TASGap reproduces Golab's separation.
func e8TASGap() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "Golab's separation — test-and-set: cons 2, rcons 1",
		Claim: "TAS is 2-discerning but not 2-recording; the classic TAS+register algorithm is crash-free correct and fails under individual crashes",
		Run: func() ([]string, bool, string) {
			var rows []string
			okD, _ := discern.IsNDiscerning(types.TestAndSet(), 2)
			okR, _ := record.IsNRecording(types.TestAndSet(), 2)
			rows = append(rows, fmt.Sprintf("2-discerning=%v 2-recording=%v", okD, okR))
			pass := okD && !okR

			crashFreeViolated, _, err := checkProtocol(proto.NewTASConsensus(), nil)
			if err != nil {
				return rows, false, err.Error()
			}
			crashViolated, first, err := checkProtocol(proto.NewTASConsensus(), []int{2, 2})
			if err != nil {
				return rows, false, err.Error()
			}
			rows = append(rows, fmt.Sprintf("crash-free violations=%v; with crashes violations=%v",
				crashFreeViolated, crashViolated))
			if crashViolated {
				rows = append(rows, "counterexample: "+shorten(first, 110))
			}
			pass = pass && !crashFreeViolated && crashViolated
			return rows, pass, ""
		},
	}
}

// e9XFamilies certifies the separation families.
func e9XFamilies(az Analyzer) Experiment {
	return Experiment{
		ID:    "E9",
		Title: "Corollary (Section 5) — readable types with rcons = cons - 2",
		Claim: "for n >= 4 there is a readable type with consensus number n and recoverable consensus number n-2 (X4, X5); the chain family Y_n realizes gap 1",
		Run: func() ([]string, bool, string) {
			var rows []string
			pass := true
			check := func(ft *spec.FiniteType, maxN, wantCons, wantRcons int) {
				a, err := az.AnalyzeTo(ft, maxN)
				if err != nil {
					pass = false
					return
				}
				ok := a.ConsensusNumber == wantCons && a.RecoverableConsensusNumber == wantRcons
				pass = pass && ok
				rows = append(rows, fmt.Sprintf("%s: cons=%s rcons=%s (want %d/%d)",
					ft.Name(),
					core.LevelString(a.ConsensusNumber, maxN),
					core.LevelString(a.RecoverableConsensusNumber, maxN),
					wantCons, wantRcons))
			}
			check(types.XFour(), 5, 4, 2)
			check(types.XFive(), 6, 5, 3)
			check(types.TnnReadable(4), 5, 4, 3)
			return rows, pass, ""
		},
	}
}

// e10ZooTable derives the hierarchy table for the zoo.
func e10ZooTable(az Analyzer) Experiment {
	return Experiment{
		ID:    "E10",
		Title: "Derived table — consensus vs recoverable consensus numbers of the zoo",
		Claim: "register 1/1; TAS 2/1; swap 2/1; fetch-and-add 2/1; CAS inf/inf; sticky inf/inf; augmented (peekable) queue inf/inf; X4 4/2; Y4 4/3",
		Run: func() ([]string, bool, string) {
			type entry struct {
				ft          *spec.FiniteType
				maxN        int
				cons, rcons int // expected (Unbounded for inf)
			}
			zoo := []entry{
				{types.Register(2), 4, 1, 1},
				{types.TestAndSet(), 4, 2, 1},
				{types.Swap(2), 4, 2, 1},
				{types.FetchAdd(6), 4, 2, 1},
				{types.CompareAndSwap(2), 4, core.Unbounded, core.Unbounded},
				{types.StickyBit(), 4, core.Unbounded, core.Unbounded},
				// Herlihy's augmented queue: Peek makes the recorded head
				// observable, so the type keeps unbounded power even
				// under crash-recovery.
				{types.PeekQueue(2), 4, core.Unbounded, core.Unbounded},
				{types.XFour(), 5, 4, 2},
				{types.TnnReadable(4), 5, 4, 3},
			}
			var rows []string
			pass := true
			for _, e := range zoo {
				a, err := az.AnalyzeTo(e.ft, e.maxN)
				if err != nil {
					return rows, false, err.Error()
				}
				ok := a.ConsensusNumber == e.cons && a.RecoverableConsensusNumber == e.rcons
				pass = pass && ok
				rows = append(rows, fmt.Sprintf("%-22s cons=%-4s rcons=%-4s readable=%v",
					e.ft.Name(),
					core.LevelString(a.ConsensusNumber, e.maxN),
					core.LevelString(a.RecoverableConsensusNumber, e.maxN),
					a.Readable))
			}
			return rows, pass, ""
		},
	}
}

// e11DeciderScaling measures decider cost growth (the decidability claim).
func e11DeciderScaling() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "Decidability in practice — decider work vs n",
		Claim: "n-discerning and n-recording are decidable in finite time for finite types (Ruppert; DFFR); cost grows with |S(P)| = sum of n!/(n-k)!",
		Run: func() ([]string, bool, string) {
			var rows []string
			ft := types.CompareAndSwap(2)
			for n := 2; n <= 5; n++ {
				okD, _ := discern.IsNDiscerning(ft, n)
				okR, _ := record.IsNRecording(ft, n)
				rows = append(rows, fmt.Sprintf("cas n=%d: discerning=%v recording=%v", n, okD, okR))
				if !okD || !okR {
					return rows, false, "CAS must stay discerning and recording at every n"
				}
			}
			rows = append(rows, "timings: see BenchmarkE11Deciders in bench_test.go")
			return rows, true, ""
		},
	}
}

// e12Universality exercises the recoverable universal construction cited
// in Section 1 (recoverable consensus is universal, with detectability).
func e12Universality() Experiment {
	return Experiment{
		ID:    "E12",
		Title: "Section 1 universality — recoverable objects from recoverable consensus",
		Claim: "any object has a recoverable wait-free linearizable implementation from recoverable-consensus objects and registers, with detectability after crashes (Berryhill et al.; DFFR)",
		Run: func() ([]string, bool, string) {
			var rows []string
			pass := true
			for _, ft := range []*spec.FiniteType{
				types.Queue(2), types.FetchAdd(8), types.Tnn(3, 1),
			} {
				u, err := universal.New(ft, 0, 3)
				if err != nil {
					return rows, false, err.Error()
				}
				applied, crashes := 0, 0
				// Deterministic crash sweep: each process applies ops,
				// crashing at every step boundary once.
				for pid := 0; pid < 3; pid++ {
					for k := 0; k < 6; k++ {
						op := spec.Op(k % ft.NumOps())
						budget := k % 5
						_, err := u.InvokeSteps(pid, op, budget)
						for err == universal.ErrCrashed {
							crashes++
							_, _, err = u.RecoverSteps(pid, 8)
						}
						if err != nil {
							return rows, false, err.Error()
						}
						applied++
					}
				}
				// Verify: the deduplicated log respects program order and
				// replays consistently.
				last := map[int]int{}
				for _, e := range u.DedupedLog() {
					if e.Seq <= last[e.Pid] {
						pass = false
					}
					last[e.Pid] = e.Seq
				}
				rows = append(rows, fmt.Sprintf(
					"universal %-14s: %d invocations, %d crashes recovered, %d linearized, final value %s",
					ft.Name(), applied, crashes, len(u.DedupedLog()), ft.ValueName(u.Value())))
			}
			return rows, pass, ""
		},
	}
}

// e13Theorem13Chain mechanizes the proof of Theorem 13 (Figures 1-2): the
// chain of critical configurations must reach an n-recording one for
// correct recoverable algorithms.
func e13Theorem13Chain() Experiment {
	return Experiment{
		ID:    "E13",
		Title: "Theorem 13 mechanized — the chain construction of Figures 1-2",
		Claim: "for a correct recoverable consensus algorithm, iterating critical-execution search with the v-hiding (lambda crashes) and colliding (p_{n-1} c_{n-1}) moves reaches an n-recording configuration within n-1 stages",
		Run: func() ([]string, bool, string) {
			var rows []string
			pass := true
			cases := []struct {
				pr    model.Protocol
				procs int
			}{
				{proto.NewCASRecoverable(2), 2},
				{proto.NewCASRecoverable(3), 3},
				{proto.NewTnnRecoverable(4, 2, 2), 2},
				{proto.NewTnnRecoverable(4, 3, 3), 3},
			}
			for _, c := range cases {
				inputs := make([]int, c.procs)
				inputs[0] = 1
				quota := make([]int, c.procs)
				for p := 1; p < c.procs; p++ {
					quota[p] = 2
				}
				chain, err := model.Theorem13Chain(c.pr, inputs, quota)
				if err != nil {
					return rows, false, err.Error()
				}
				rows = append(rows, fmt.Sprintf("%s: %d stage(s), recording=%v",
					c.pr.Name(), len(chain.Stages), chain.Recording))
				pass = pass && chain.Recording && len(chain.Stages) <= c.procs
			}
			return rows, pass, ""
		},
	}
}

// e14TeamConsensus exercises DFFR Theorem 8's core mechanism: a readable
// n-recording type yields recoverable agreement on the first mover's team.
func e14TeamConsensus() Experiment {
	return Experiment{
		ID:    "E14",
		Title: "DFFR Theorem 8 mechanism — team consensus from n-recording witnesses",
		Claim: "for readable n-recording types (with u not re-reachable), read-guarded one-shot application solves recoverable team agreement among n processes under individual crashes",
		Run: func() ([]string, bool, string) {
			var rows []string
			pass := true
			cases := []struct {
				ft *spec.FiniteType
				n  int
			}{
				{types.CompareAndSwap(2), 2},
				{types.CompareAndSwap(2), 3},
				{types.StickyBit(), 3},
				{types.XFour(), 2},
			}
			for _, c := range cases {
				ok, w := record.IsNRecording(c.ft, c.n)
				if !ok {
					return rows, false, fmt.Sprintf("%s not %d-recording", c.ft.Name(), c.n)
				}
				tc, err := proto.NewTeamConsensus(c.ft, w)
				if err != nil {
					return rows, false, err.Error()
				}
				quota := make([]int, c.n)
				for p := 1; p < c.n; p++ {
					quota[p] = 2
				}
				res, err := model.Check(tc, model.CheckOpts{
					Inputs:     make([]int, c.n),
					CrashQuota: quota,
					Validity:   func(int) bool { return true },
				})
				if err != nil {
					return rows, false, err.Error()
				}
				okRun := len(res.Violations) == 0
				pass = pass && okRun
				rows = append(rows, fmt.Sprintf(
					"%s n=%d: %d states explored, agreement+wait-freedom hold=%v",
					c.ft.Name(), c.n, res.Nodes, okRun))
			}
			return rows, pass, ""
		},
	}
}

// e15RuppertVsRecording contrasts the two witness-driven constructions:
// Ruppert's discerning-based team consensus is wait-free but crash-unsafe
// on types whose recording level is below their discerning level, while
// the recording-based construction survives crashes — the hierarchy gap
// reproduced at the construction level.
func e15RuppertVsRecording() Experiment {
	return Experiment{
		ID:    "E15",
		Title: "Ruppert's construction vs the recording construction — the gap, mechanized",
		Claim: "discerning witnesses give wait-free consensus for readable types (Ruppert); under individual crashes the same construction fails exactly on types that are discerning but not recording (TAS), while recording witnesses stay safe",
		Run: func() ([]string, bool, string) {
			var rows []string
			pass := true

			// Ruppert's construction, crash-free, across the readable zoo.
			for _, c := range []struct {
				ft *spec.FiniteType
				n  int
			}{
				{types.TestAndSet(), 2},
				{types.CompareAndSwap(2), 3},
				{types.XFour(), 4},
			} {
				ok, w := discern.IsNDiscerning(c.ft, c.n)
				if !ok {
					return rows, false, fmt.Sprintf("%s not %d-discerning", c.ft.Name(), c.n)
				}
				dc, err := proto.NewDiscernTeamConsensus(c.ft, w)
				if err != nil {
					return rows, false, err.Error()
				}
				res, err := model.Check(dc, model.CheckOpts{
					Inputs: make([]int, c.n), Validity: func(int) bool { return true },
				})
				if err != nil {
					return rows, false, err.Error()
				}
				okRun := len(res.Violations) == 0
				pass = pass && okRun
				rows = append(rows, fmt.Sprintf(
					"Ruppert on %s n=%d (crash-free): correct=%v", c.ft.Name(), c.n, okRun))
			}

			// The same construction under crashes on TAS must break...
			ok, w := discern.IsNDiscerning(types.TestAndSet(), 2)
			if !ok {
				return rows, false, "TAS not 2-discerning"
			}
			dc, err := proto.NewDiscernTeamConsensus(types.TestAndSet(), w)
			if err != nil {
				return rows, false, err.Error()
			}
			res, err := model.Check(dc, model.CheckOpts{
				Inputs: []int{0, 0}, CrashQuota: []int{2, 2},
				Validity: func(int) bool { return true },
			})
			if err != nil {
				return rows, false, err.Error()
			}
			broke := len(res.Violations) > 0
			pass = pass && broke
			rows = append(rows, fmt.Sprintf(
				"Ruppert on test-and-set n=2 WITH crashes: breaks=%v (TAS is not 2-recording)", broke))

			// ...while the recording construction on CAS stays safe with
			// the same crash budget (E14 covers the full sweep).
			okR, wr := record.IsNRecording(types.CompareAndSwap(2), 2)
			if !okR {
				return rows, false, "CAS not 2-recording"
			}
			tc, err := proto.NewTeamConsensus(types.CompareAndSwap(2), wr)
			if err != nil {
				return rows, false, err.Error()
			}
			res, err = model.Check(tc, model.CheckOpts{
				Inputs: []int{0, 0}, CrashQuota: []int{2, 2},
				Validity: func(int) bool { return true },
			})
			if err != nil {
				return rows, false, err.Error()
			}
			safe := len(res.Violations) == 0
			pass = pass && safe
			rows = append(rows, fmt.Sprintf(
				"recording construction on compare-and-swap n=2 WITH crashes: correct=%v", safe))
			return rows, pass, ""
		},
	}
}

func shorten(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
