// Package oracle holds deliberately naive reference arbiters, written
// for clarity with no regard for speed: FIFOMS transcribed line-for-line
// from the prose of Pan & Yang §III (this file), and iSLIP as the
// one-VOQ-at-a-time probe loop (islip.go).
//
// They exist purely as the trusted side of the differential harnesses:
// the production word-parallel kernels (core/fifoms.go,
// sched/islip) must produce bit-identical matchings — and therefore
// bit-identical delivery streams — on the same seeds. To make the FIFOMS
// comparison meaningful the oracle consumes tie-breaking randomness in
// exactly the paper's order (ascending outputs, ascending inputs, one
// reservoir draw per equal-timestamp candidate after the first), which
// is also the order the production kernels are pinned to.
//
// Do not optimise these files. Their O(N²)–O(N³)-per-slot rescans
// through the virtual HOL and VOQ accessors are the point: nothing here
// is clever enough to hide a bug that a fast kernel might share.
package oracle

import (
	"math"

	"voqsim/internal/core"
	"voqsim/internal/xrand"
)

// Arbiter is the reference FIFOMS arbiter. The zero value is ready to
// use; it keeps no state between slots.
type Arbiter struct{}

// New returns a reference arbiter.
func New() *Arbiter { return &Arbiter{} }

// Name implements core.Arbiter.
func (a *Arbiter) Name() string { return "fifoms-oracle" }

// Mode implements core.Arbiter: the paper's shared-data-cell structure.
func (a *Arbiter) Mode() core.PreprocessMode { return core.ModeShared }

// Match implements core.Arbiter by iterating the paper's request/grant
// rounds until no output can grant (§III Table 2).
func (a *Arbiter) Match(s *core.Switch, _ int64, r *xrand.Rand, m *core.Matching) {
	n := s.Ports()
	// Fresh per-call state: clarity over speed, by design.
	inputFree := make([]bool, n)
	outputFree := make([]bool, n)
	minTS := make([]int64, n)
	granted := make([]int, n)
	for i := 0; i < n; i++ {
		inputFree[i] = true
		outputFree[i] = true
	}

	for {
		// Request step: every unmatched input finds the minimum HOL
		// time stamp among its VOQs for still-free outputs, and
		// requests every such output ("sends requests for all the
		// address cells with this time stamp").
		for in := 0; in < n; in++ {
			minTS[in] = -1
			if !inputFree[in] {
				continue
			}
			best := int64(math.MaxInt64)
			for out := 0; out < n; out++ {
				if !outputFree[out] {
					continue
				}
				if ts := s.HOLTime(in, out); ts < best {
					best = ts
				}
			}
			if best != math.MaxInt64 {
				minTS[in] = best
			}
		}

		// Grant step: every free output grants the request with the
		// smallest time stamp, breaking ties uniformly at random. The
		// scan is ascending in input order with a reservoir draw on
		// every equal-timestamp candidate after the first — the draw
		// discipline the production kernels are pinned to.
		anyGrant := false
		for out := 0; out < n; out++ {
			granted[out] = core.None
			if !outputFree[out] {
				continue
			}
			bestTS := int64(math.MaxInt64)
			ties := 0
			for in := 0; in < n; in++ {
				if minTS[in] < 0 {
					continue
				}
				ts := s.HOLTime(in, out)
				if ts != minTS[in] {
					continue // this input did not request this output
				}
				switch {
				case ts < bestTS:
					bestTS = ts
					granted[out] = in
					ties = 1
				case ts == bestTS:
					ties++
					if r.Intn(ties) == 0 {
						granted[out] = in
					}
				}
			}
			if granted[out] != core.None {
				anyGrant = true
			}
		}
		if !anyGrant {
			return
		}

		// Accept is implicit in FIFOMS (every grant serves the same
		// oldest packet of the input): reserve the matched ports.
		for out := 0; out < n; out++ {
			in := granted[out]
			if in == core.None {
				continue
			}
			m.OutIn[out] = in
			outputFree[out] = false
			inputFree[in] = false
		}
		m.Rounds++
	}
}
