package core

import (
	"fmt"
	"strings"

	"repro/internal/discern"
	"repro/internal/record"
	"repro/internal/spec"
)

// Unbounded is returned as a level when the property still holds at the
// search limit, meaning the number is at least the limit (CAS-like types
// hold at every n, i.e. consensus number infinity).
const Unbounded = -1

// Analysis is the result of analyzing one type up to a process-count limit.
type Analysis struct {
	// Type is the analyzed type.
	Type *spec.FiniteType
	// MaxN is the largest process count that was checked.
	MaxN int
	// Readable records whether the type supports a Read operation; it
	// determines whether the hierarchy numbers below are exact.
	Readable bool

	// Discerning[n] reports whether the type is n-discerning, for
	// 2 <= n <= MaxN.
	Discerning map[int]bool
	// Recording[n] reports whether the type is n-recording.
	Recording map[int]bool
	// DiscerningWitness[n] is a witness for each positive level.
	DiscerningWitness map[int]*discern.Witness
	// RecordingWitness[n] is a witness for each positive level.
	RecordingWitness map[int]*record.Witness

	// ConsensusNumber is the largest n <= MaxN with n-discerning (1 if
	// none), or Unbounded if discerning still holds at MaxN. Exact for
	// readable types (Ruppert); an unproven indicator otherwise.
	ConsensusNumber int
	// RecoverableConsensusNumber is the analogous level for n-recording.
	// Exact for readable types (Theorem 14); for non-readable types it is
	// only an upper-bound indicator (Theorem 13 direction).
	RecoverableConsensusNumber int
}

// Analyze computes the discerning/recording spectrum of t for all
// n in [2, maxN] and derives hierarchy positions. maxN must be >= 2. It
// searches every level with the reference deciders, serially: the
// engine's analyses, which derive the levels above a property's first
// negative one instead of searching them, are checked against it.
func Analyze(t *spec.FiniteType, maxN int) (*Analysis, error) {
	if maxN < 2 {
		return nil, fmt.Errorf("core: need maxN >= 2, got %d", maxN)
	}
	a := &Analysis{
		Type:              t,
		MaxN:              maxN,
		Readable:          t.Readable(),
		Discerning:        make(map[int]bool, maxN-1),
		Recording:         make(map[int]bool, maxN-1),
		DiscerningWitness: make(map[int]*discern.Witness),
		RecordingWitness:  make(map[int]*record.Witness),
	}
	for n := 2; n <= maxN; n++ {
		okD, wD := discern.IsNDiscerning(t, n)
		a.Discerning[n] = okD
		if okD {
			a.DiscerningWitness[n] = wD
		}
		okR, wR := record.IsNRecording(t, n)
		a.Recording[n] = okR
		if okR {
			a.RecordingWitness[n] = wR
		}
	}
	a.ConsensusNumber = LevelOf(a.Discerning, maxN)
	a.RecoverableConsensusNumber = LevelOf(a.Recording, maxN)
	return a, nil
}

// LevelOf derives the hierarchy level from a property spectrum: the largest
// n at which the property holds, 1 if it never holds, Unbounded if it holds
// at the search limit. It is exported so the concurrent engine derives
// levels from the spectra its level chains fill, identically to Analyze.
func LevelOf(holds map[int]bool, maxN int) int {
	if holds[maxN] {
		return Unbounded
	}
	for n := maxN; n >= 2; n-- {
		if holds[n] {
			return n
		}
	}
	return 1
}

// LevelString renders a hierarchy level for display: "k", ">=maxN", with
// the search limit substituted for Unbounded.
func LevelString(level, maxN int) string {
	if level == Unbounded {
		return fmt.Sprintf(">=%d", maxN)
	}
	return fmt.Sprintf("%d", level)
}

// Gap returns cons - rcons when both numbers are bounded, and ok=false
// when either is Unbounded at the search limit.
func (a *Analysis) Gap() (gap int, ok bool) {
	if a.ConsensusNumber == Unbounded || a.RecoverableConsensusNumber == Unbounded {
		return 0, false
	}
	return a.ConsensusNumber - a.RecoverableConsensusNumber, true
}

// Summary renders a one-line summary of the analysis.
func (a *Analysis) Summary() string {
	exact := "exact (readable)"
	if !a.Readable {
		exact = "indicators only (non-readable)"
	}
	return fmt.Sprintf("%s: cons=%s rcons=%s [%s]",
		a.Type.Name(),
		LevelString(a.ConsensusNumber, a.MaxN),
		LevelString(a.RecoverableConsensusNumber, a.MaxN),
		exact)
}

// Spectrum renders the per-n property table.
func (a *Analysis) Spectrum() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n:          ")
	for n := 2; n <= a.MaxN; n++ {
		fmt.Fprintf(&b, " %3d", n)
	}
	fmt.Fprintf(&b, "\ndiscerning: ")
	for n := 2; n <= a.MaxN; n++ {
		fmt.Fprintf(&b, " %3s", yn(a.Discerning[n]))
	}
	fmt.Fprintf(&b, "\nrecording:  ")
	for n := 2; n <= a.MaxN; n++ {
		fmt.Fprintf(&b, " %3s", yn(a.Recording[n]))
	}
	b.WriteByte('\n')
	return b.String()
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// CheckTheorem13Consistency verifies, for a readable type, the structural
// consequence of Theorems 13/14 together with Ruppert's theorem and DFFR's
// Theorem 5 ("any deterministic readable type with consensus number n >= 4
// is (n-2)-recording"): rcons is between cons-2 and cons whenever
// cons >= 4. It returns an error describing any violation.
func (a *Analysis) CheckTheorem13Consistency() error {
	if !a.Readable {
		return nil // the theorems only constrain readable types
	}
	cons := a.ConsensusNumber
	rcons := a.RecoverableConsensusNumber
	if cons == Unbounded {
		return nil // no finite constraint observable at this limit
	}
	if rcons == Unbounded {
		return fmt.Errorf("%s: rcons unbounded but cons=%d bounded", a.Type.Name(), cons)
	}
	if rcons > cons {
		return fmt.Errorf("%s: rcons=%d exceeds cons=%d", a.Type.Name(), rcons, cons)
	}
	if cons >= 4 && rcons < cons-2 {
		return fmt.Errorf("%s: rcons=%d below cons-2=%d (violates DFFR Theorem 5)",
			a.Type.Name(), rcons, cons-2)
	}
	return nil
}
