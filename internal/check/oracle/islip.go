package oracle

import (
	"voqsim/internal/core"
	"voqsim/internal/xrand"
)

// ISLIP is the reference iSLIP arbiter (McKeown, IEEE/ACM ToN 1999):
// the production matcher's original probe-one-VOQ-at-a-time loop, kept
// as the trusted side for the word-parallel kernel in
// internal/sched/islip. Every grant and accept scans (ptr+k) mod n for
// k = 0..n-1 through the VOQLen accessor.
//
// The pointers are exported so tests can start both arbiters from the
// same rotating-priority state and compare them after every call.
type ISLIP struct {
	// Iterations, if positive, caps the iterations per slot; zero
	// iterates to convergence (at most N rounds).
	Iterations int

	// GrantPtr[out] and AcceptPtr[in] are the rotating priorities. Nil
	// slices are sized to the switch on the first Match.
	GrantPtr  []int
	AcceptPtr []int

	inputFree  []bool
	outputFree []bool
	grantTo    []int
}

// NewISLIP returns a reference iSLIP arbiter that iterates to
// convergence.
func NewISLIP() *ISLIP { return &ISLIP{} }

// Name implements core.Arbiter.
func (a *ISLIP) Name() string { return "islip-oracle" }

// Mode implements core.Arbiter: multicast handled as independent
// unicast copies, like the production iSLIP.
func (a *ISLIP) Mode() core.PreprocessMode { return core.ModeCopied }

func (a *ISLIP) ensure(n int) {
	if len(a.GrantPtr) != n {
		a.GrantPtr = make([]int, n)
		a.AcceptPtr = make([]int, n)
	}
	if len(a.inputFree) != n {
		a.inputFree = make([]bool, n)
		a.outputFree = make([]bool, n)
		a.grantTo = make([]int, n)
	}
}

// Match implements core.Arbiter.
func (a *ISLIP) Match(s *core.Switch, _ int64, _ *xrand.Rand, m *core.Matching) {
	n := s.Ports()
	a.ensure(n)
	for i := 0; i < n; i++ {
		a.inputFree[i] = true
		a.outputFree[i] = true
	}
	maxIter := a.Iterations
	if maxIter <= 0 {
		maxIter = n
	}

	for iter := 0; iter < maxIter; iter++ {
		// Grant step: each unmatched output picks, round-robin from its
		// grant pointer, the first unmatched input with a cell for it.
		// (Requests are implicit: input i requests output j iff VOQ(i,j)
		// is non-empty.)
		for out := 0; out < n; out++ {
			a.grantTo[out] = core.None
			if !a.outputFree[out] {
				continue
			}
			for k := 0; k < n; k++ {
				in := (a.GrantPtr[out] + k) % n
				if a.inputFree[in] && s.VOQLen(in, out) > 0 {
					a.grantTo[out] = in
					break
				}
			}
		}

		// Accept step: each unmatched input picks, round-robin from its
		// accept pointer, the first output that granted it.
		matched := false
		for in := 0; in < n; in++ {
			if !a.inputFree[in] {
				continue
			}
			for k := 0; k < n; k++ {
				out := (a.AcceptPtr[in] + k) % n
				if a.grantTo[out] != in {
					continue
				}
				m.OutIn[out] = in
				a.inputFree[in] = false
				a.outputFree[out] = false
				matched = true
				if iter == 0 {
					a.GrantPtr[out] = (in + 1) % n
					a.AcceptPtr[in] = (out + 1) % n
				}
				break
			}
		}
		if !matched {
			break
		}
		m.Rounds++
	}
}
