// Package islip implements the iSLIP scheduling algorithm (McKeown,
// IEEE/ACM ToN 1999) as a core.Arbiter, the paper's VOQ unicast
// baseline.
//
// iSLIP is an iterative three-step matcher with rotating priorities.
// In each iteration every unmatched input requests all outputs whose
// VOQ is non-empty; every unmatched output grants the requesting input
// closest (clockwise) to its grant pointer; every unmatched input
// accepts the granting output closest to its accept pointer. Pointers
// advance one position past the matched partner, and — the "i" of
// iSLIP — only when the grant was accepted in the *first* iteration,
// which is what desynchronises the pointers and yields 100% throughput
// under admissible uniform unicast traffic.
//
// Following the paper's evaluation setup, iSLIP schedules a multicast
// packet "as separate (independent) unicast packets": it runs in
// ModeCopied, so a fanout-k arrival occupies k data cells and each copy
// is matched on its own. The cost in buffer space and multicast delay
// relative to FIFOMS is exactly what Figures 4, 7 and 8 expose.
package islip

import (
	"math/bits"

	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

// Arbiter is the iSLIP matcher. Its pointer state persists across
// slots; create one per switch with New.
//
// Match is word-parallel, the software form of the priority encoders
// Tiny Tera builds its round-robin arbiters from: each output's grant
// is the first set bit of (occupancy row ∩ free inputs) at or after its
// grant pointer, each input's accept the first set bit of its grant row
// at or after its accept pointer, both wrapping once. The result is
// bit-identical to probing (ptr+k) mod n one VOQ at a time; the
// reference loop lives in internal/check/oracle.
type Arbiter struct {
	// Iterations, if positive, caps the iterations per slot; zero
	// iterates to convergence, which for iSLIP takes at most N rounds
	// (and on average about log2 N).
	Iterations int

	grantPtr  []int
	acceptPtr []int

	// Per-slot scratch, sized by ensure; w = len(inFree) words per row.
	inFree    []uint64 // inputs still unmatched
	outFree   []uint64 // outputs still unmatched
	granted   []uint64 // inputs holding a grant this iteration
	grantRows []uint64 // grantRows[in*w ...]: outputs that granted in
}

// New returns an iSLIP arbiter that iterates to convergence.
func New() *Arbiter { return &Arbiter{} }

// Name implements core.Arbiter.
func (a *Arbiter) Name() string { return "islip" }

// Mode implements core.Arbiter: multicast handled as independent
// unicast copies.
func (a *Arbiter) Mode() core.PreprocessMode { return core.ModeCopied }

func (a *Arbiter) ensure(n int) {
	if len(a.grantPtr) == n {
		return
	}
	w := destset.WordsPerRow(n)
	a.grantPtr = make([]int, n)
	a.acceptPtr = make([]int, n)
	a.inFree = make([]uint64, w)
	a.outFree = make([]uint64, w)
	a.granted = make([]uint64, w)
	a.grantRows = make([]uint64, n*w)
}

// fillPorts sets the low n bits of set and clears the rest.
func fillPorts(set []uint64, n int) {
	for i := range set {
		set[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		set[len(set)-1] = 1<<uint(rem) - 1
	}
}

// firstFrom returns the first index at or after p set in row ∩ mask,
// wrapping to the lowest set index, or core.None when the intersection
// is empty: the bitmap form of scanning p, p+1, ..., n-1, 0, ..., p-1.
func firstFrom(row, mask []uint64, p int) int {
	pw := p >> 6
	if v := row[pw] & mask[pw] & (^uint64(0) << uint(p&63)); v != 0 {
		return pw<<6 + bits.TrailingZeros64(v)
	}
	for i := pw + 1; i < len(row); i++ {
		if v := row[i] & mask[i]; v != 0 {
			return i<<6 + bits.TrailingZeros64(v)
		}
	}
	// Wrapped: word pw holds no member at or after p, so its lowest set
	// bit (if any) lies before p.
	for i := 0; i <= pw; i++ {
		if v := row[i] & mask[i]; v != 0 {
			return i<<6 + bits.TrailingZeros64(v)
		}
	}
	return core.None
}

// next returns (p+1) mod n for p in [0, n) without a division.
func next(p, n int) int {
	if p++; p == n {
		return 0
	}
	return p
}

// Match implements core.Arbiter.
func (a *Arbiter) Match(s *core.Switch, _ int64, _ *xrand.Rand, m *core.Matching) {
	n := s.Ports()
	a.ensure(n)
	w := len(a.inFree)
	fillPorts(a.inFree, n)
	fillPorts(a.outFree, n)
	maxIter := a.Iterations
	if maxIter <= 0 {
		maxIter = n
	}

	for iter := 0; iter < maxIter; iter++ {
		// Grant step: each unmatched output picks, round-robin from its
		// grant pointer, the first unmatched input with a cell for it.
		// (Requests are implicit: input i requests output j iff VOQ(i,j)
		// is non-empty, i.e. bit i of OccOutWords(j) is set.)
		anyGrant := false
		for wi, ow := range a.outFree {
			for ; ow != 0; ow &= ow - 1 {
				out := wi<<6 + bits.TrailingZeros64(ow)
				in := firstFrom(s.OccOutWords(out), a.inFree, a.grantPtr[out])
				if in == core.None {
					continue
				}
				a.grantRows[in*w+out>>6] |= 1 << uint(out&63)
				a.granted[in>>6] |= 1 << uint(in&63)
				anyGrant = true
			}
		}
		if !anyGrant {
			break
		}

		// Accept step: each granted input picks, round-robin from its
		// accept pointer, the first output that granted it. Every output
		// grants at most one input, so the accepts never collide; the
		// grant rows are cleared as they are consumed.
		for wi, gw := range a.granted {
			for ; gw != 0; gw &= gw - 1 {
				in := wi<<6 + bits.TrailingZeros64(gw)
				row := a.grantRows[in*w : in*w+w]
				out := firstFrom(row, row, a.acceptPtr[in])
				clear(row)
				m.OutIn[out] = in
				a.inFree[in>>6] &^= 1 << uint(in&63)
				a.outFree[out>>6] &^= 1 << uint(out&63)
				if iter == 0 {
					a.grantPtr[out] = next(in, n)
					a.acceptPtr[in] = next(out, n)
				}
			}
			a.granted[wi] = 0
		}
		m.Rounds++
	}
}
