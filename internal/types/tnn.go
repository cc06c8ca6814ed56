package types

import (
	"fmt"

	"repro/internal/spec"
)

// Responses of the T_{n,n'} family. Read-like responses of opR use
// RespReadBase + value index, so "opR returned value w" is encoded exactly
// like a Read response for w.
const (
	// TnnResp0 is returned by op0/op1 when the first operation applied to
	// the object was op0.
	TnnResp0 spec.Response = 0
	// TnnResp1 is returned by op0/op1 when the first operation applied to
	// the object was op1.
	TnnResp1 spec.Response = 1
	// TnnRespBot is the bottom response, returned once the object has been
	// exhausted (value s_bot) or when opR is applied to s_{x,i} with i > n'.
	TnnRespBot spec.Response = 3
)

// TnnValueName returns the paper's name for the values of T_{n,n'}:
// "s" (initial), "s_bot", and "s{x},{i}" for x in {0,1}, i in {1..n-1}.
func TnnValueName(x, i int) string { return fmt.Sprintf("s%d,%d", x, i) }

// Tnn constructs the type T_{n,n'} of Section 4 of the paper, defined for
// all n > n' >= 1. T_{n,n'} is deterministic and non-readable; the paper
// proves it has consensus number n (Lemma 15) and recoverable consensus
// number n' (Lemma 16).
//
// The type has 2n values: s, s_bot, and s_{x,i} for x in {0,1},
// i in {1..n-1}. It has three operations:
//
//   - op0 applied to s returns 0 and moves to s_{0,1}; op1 applied to s
//     returns 1 and moves to s_{1,1}.
//   - op0/op1 applied to s_{x,i} with i < n-1 return x and move to
//     s_{x,i+1}; applied to s_{x,n-1} they return x and move to s_bot.
//   - Any operation applied to s_bot returns bot and leaves the value.
//   - opR applied to s returns s; applied to s_{x,i} with i <= n' it
//     returns s_{x,i}; in both cases the value is unchanged. Applied to
//     s_{x,i} with i > n', opR returns bot and moves to s_bot — this
//     destructive read is what caps the recoverable consensus number.
//
// Figure 3 of the paper is the state machine of Tnn(5, 2).
//
// Note that for n' = n-1 the destructive branch of opR is unreachable
// (every counter value i <= n-1 = n' is read-like), so T_{n,n-1} happens to
// be readable; for n' < n-1 the type is non-readable, which is the regime
// Section 4 is about.
func Tnn(n, nPrime int) *spec.FiniteType {
	if n <= nPrime || nPrime < 1 {
		panic(fmt.Sprintf("Tnn: need n > n' >= 1, got n=%d n'=%d", n, nPrime))
	}
	b := spec.NewBuilder(fmt.Sprintf("T[%d,%d]", n, nPrime))

	names := tnnValueNames(n)
	b.Values(names...)

	b.Ops("op0", "op1", "opR")
	b.NameResponse(TnnResp0, "0")
	b.NameResponse(TnnResp1, "1")
	b.NameResponse(TnnRespBot, "bot")

	tnnCounterTransitions(b, n, names)

	// Everything applied to s_bot returns bot and leaves the value.
	b.Transition("s_bot", "op0", TnnRespBot, "s_bot")
	b.Transition("s_bot", "op1", TnnRespBot, "s_bot")
	b.Transition("s_bot", "opR", TnnRespBot, "s_bot")

	// opR: read-like on s and on s_{x,i} with i <= n'; destructive on
	// s_{x,i} with i > n'. Read-like responses are encoded as
	// RespReadBase + value index so they uniquely identify the value read.
	readResp := func(valueName string, idx int) spec.Response {
		r := RespReadBase + spec.Response(idx)
		b.NameResponse(r, "read:"+valueName)
		return r
	}
	b.Transition("s", "opR", readResp("s", 0), "s")
	idx := 1
	for x := 0; x <= 1; x++ {
		for i := 1; i <= n-1; i++ {
			name := names[TnnValue(n, x, i)]
			if i <= nPrime {
				b.Transition(name, "opR", readResp(name, idx), name)
			} else {
				b.Transition(name, "opR", TnnRespBot, "s_bot")
			}
			idx++
		}
	}

	return b.MustBuild()
}

// tnnValueNames returns the value names of T_{n,n'} and Y_n in value
// order (see TnnValue): s, then s_{0,1..n-1}, then s_{1,1..n-1}, then
// s_bot.
func tnnValueNames(n int) []string {
	names := make([]string, 0, 2*n)
	names = append(names, "s")
	for x := 0; x <= 1; x++ {
		for i := 1; i <= n-1; i++ {
			names = append(names, TnnValueName(x, i))
		}
	}
	return append(names, "s_bot")
}

// tnnCounterTransitions declares op0 and op1 on every value but s_bot,
// shared by T_{n,n'} and Y_n: from s, op_x returns x and moves to
// s_{x,1}; from s_{x,i} both return x and advance the counter, to s_bot
// from s_{x,n-1}.
func tnnCounterTransitions(b *spec.Builder, n int, names []string) {
	b.Transition("s", "op0", TnnResp0, names[TnnValue(n, 0, 1)])
	b.Transition("s", "op1", TnnResp1, names[TnnValue(n, 1, 1)])
	for x := 0; x <= 1; x++ {
		resp := TnnResp0
		if x == 1 {
			resp = TnnResp1
		}
		for i := 1; i <= n-1; i++ {
			next := "s_bot"
			if i < n-1 {
				next = names[TnnValue(n, x, i+1)]
			}
			from := names[TnnValue(n, x, i)]
			b.Transition(from, "op0", resp, next)
			b.Transition(from, "op1", resp, next)
		}
	}
}

// TnnValue returns the spec.Value of a named T_{n,n'} state in the value
// ordering used by Tnn: s=0, then s_{0,1..n-1}, s_{1,1..n-1}, s_bot=2n-1.
func TnnValue(n, x, i int) spec.Value {
	// s_{x,i} with i in [1, n-1].
	return spec.Value(1 + x*(n-1) + (i - 1))
}

// TnnBot returns the spec.Value of s_bot for the given n.
func TnnBot(n int) spec.Value { return spec.Value(2*n - 1) }
