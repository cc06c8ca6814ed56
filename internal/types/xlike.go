package types

import (
	"fmt"

	"repro/internal/spec"
)

// TnnReadable ("Y_n") is a readable cousin of T_{n,n'}: a first-team
// recording chain of length n-1 with a TRUE Read operation (no destructive
// opR). Its values are s, s_{x,i} (x in {0,1}, i in 1..n-1) and s_bot; its
// operations are op0, op1 and read:
//
//   - op_x on s returns x and moves to s_{x,1};
//   - op0/op1 on s_{x,i} return x and advance to s_{x,i+1}, erasing to
//     s_bot from s_{x,n-1};
//   - anything on s_bot returns bot and stays;
//   - read returns the current value and does not change it.
//
// The deciders certify (see internal/core tests and Experiment E9):
//
//   - n-discerning and not (n+1)-discerning, so by Ruppert's theorem its
//     consensus number is exactly n;
//   - (n-1)-recording and not n-recording, so by the paper's Theorem 14
//     its recoverable consensus number is exactly n-1.
//
// Y_n is therefore a readable, deterministic type whose recoverable
// consensus number is strictly below its consensus number — the readable
// counterpart of the paper's separation. (DFFR's X_n achieves the larger
// gap cons - rcons = 2; its definition appears in DFFR [4], not in this
// paper, so this repository certifies the gap-1 family exactly and hunts
// for gap-2 instances with cmd/xsearch — see Experiment E9 in
// `go run ./cmd/experiments -markdown`.)
// XFour is a readable deterministic type with consensus number exactly 4
// and recoverable consensus number exactly 2 — a concrete instance of the
// paper's corollary that "for all n >= 4 there exists a readable type with
// consensus number n and recoverable consensus number n-2" (here n = 4).
//
// The type was found by the randomized search in internal/xsearch
// (Sample(seed=1994, numValues=5)) and is frozen here as an explicit
// transition table. Its signature is certified by the deciders (see the
// E9 tests in internal/core):
//
//   - readable, 4-discerning, not 5-discerning  =>  cons = 4 (Ruppert);
//   - 2-recording, not 3-recording              =>  rcons = 2 (Theorem 14);
//
// and independently, not 3-recording plus DFFR's Theorem 5 (cons n >= 4
// implies (n-2)-recording) re-derives cons <= 4.
//
// Every (value, op) pair returns a distinct response (responses are the
// pair's index; read responses identify values). The interesting witness
// starts from value v4.
func XFour() *spec.FiniteType {
	b := spec.NewBuilder("X4")
	b.Values("v0", "v1", "v2", "v3", "v4")
	b.Ops("a", "b", "read")
	type tr struct {
		from, op string
		resp     spec.Response
		next     string
	}
	for _, t := range []tr{
		{"v0", "a", 0, "v4"},
		{"v0", "b", 1, "v0"},
		{"v1", "a", 2, "v0"},
		{"v1", "b", 3, "v1"},
		{"v2", "a", 4, "v3"},
		{"v2", "b", 5, "v4"},
		{"v3", "a", 6, "v3"},
		{"v3", "b", 7, "v2"},
		{"v4", "a", 8, "v3"},
		{"v4", "b", 9, "v1"},
	} {
		b.Transition(t.from, t.op, t.resp, t.next)
	}
	b.ReadOp("read", RespReadBase)
	return b.MustBuild()
}

// XFive is a readable deterministic type with consensus number exactly 5
// and recoverable consensus number exactly 3 — the paper's corollary
// instance for n = 5 (cons = n, rcons = n-2). Found by the randomized
// search in internal/xsearch (Sample(seed=17534, numValues=7)) and frozen
// here; the deciders certify 5-discerning, not 6-discerning, 3-recording,
// not 4-recording (see the E9 tests in internal/core).
func XFive() *spec.FiniteType {
	b := spec.NewBuilder("X5")
	b.Values("v0", "v1", "v2", "v3", "v4", "v5", "v6")
	b.Ops("a", "b", "read")
	type tr struct {
		from, op string
		resp     spec.Response
		next     string
	}
	for _, t := range []tr{
		{"v0", "a", 0, "v0"},
		{"v0", "b", 1, "v3"},
		{"v1", "a", 2, "v6"},
		{"v1", "b", 3, "v1"},
		{"v2", "a", 4, "v1"},
		{"v2", "b", 5, "v2"},
		{"v3", "a", 6, "v3"},
		{"v3", "b", 7, "v5"},
		{"v4", "a", 8, "v6"},
		{"v4", "b", 9, "v5"},
		{"v5", "a", 10, "v0"},
		{"v5", "b", 11, "v2"},
		{"v6", "a", 12, "v5"},
		{"v6", "b", 13, "v2"},
	} {
		b.Transition(t.from, t.op, t.resp, t.next)
	}
	b.ReadOp("read", RespReadBase)
	return b.MustBuild()
}

func TnnReadable(n int) *spec.FiniteType {
	if n < 2 {
		panic(fmt.Sprintf("TnnReadable: need n >= 2, got %d", n))
	}
	b := spec.NewBuilder(fmt.Sprintf("Y[%d]", n))

	names := tnnValueNames(n)
	b.Values(names...)

	b.Ops("op0", "op1", "read")
	b.NameResponse(TnnResp0, "0")
	b.NameResponse(TnnResp1, "1")
	b.NameResponse(TnnRespBot, "bot")

	tnnCounterTransitions(b, n, names)
	b.Transition("s_bot", "op0", TnnRespBot, "s_bot")
	b.Transition("s_bot", "op1", TnnRespBot, "s_bot")
	b.ReadOp("read", RespReadBase)

	return b.MustBuild()
}
