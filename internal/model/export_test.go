package model

// HashWords exposes the packed-identity hash, a snapshot record's check
// value, to the external tests that forge records.
var HashWords = hashWords

// Theorem13PerStage is the per-stage reference of the Theorem 13 chain:
// the chain loop with every stage explored by Check on its own one-shot
// graph, so no stage reuses another's expansion.
func Theorem13PerStage(pr Protocol, inputs, quota []int) (*Chain, error) {
	return theorem13(pr.Procs(), inputs, quota, ChainOpts{}, func(o CheckOpts) (*Result, error) {
		return Check(pr, o)
	})
}
