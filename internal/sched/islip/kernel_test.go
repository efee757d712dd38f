package islip

import (
	"fmt"
	"slices"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/check/oracle"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/snap"
	"voqsim/internal/xrand"
)

// pairArbiter runs the word-parallel kernel and the reference loop on
// the same switch state every slot, fails on any difference in the
// matching or the pointers, and hands the kernel's matching to the
// switch.
type pairArbiter struct {
	t    *testing.T
	fast *Arbiter
	ref  *oracle.ISLIP
	refM *core.Matching
	call int
}

func (p *pairArbiter) Name() string              { return "islip-pair" }
func (p *pairArbiter) Mode() core.PreprocessMode { return core.ModeCopied }

func (p *pairArbiter) Match(s *core.Switch, slot int64, r *xrand.Rand, m *core.Matching) {
	p.t.Helper()
	p.refM.Clear()
	p.ref.Match(s, slot, r, p.refM)
	p.fast.Match(s, slot, r, m)
	if !slices.Equal(m.OutIn, p.refM.OutIn) {
		p.t.Fatalf("call %d: OutIn %v, reference %v", p.call, m.OutIn, p.refM.OutIn)
	}
	if m.Rounds != p.refM.Rounds {
		p.t.Fatalf("call %d: Rounds %d, reference %d", p.call, m.Rounds, p.refM.Rounds)
	}
	p.checkPointers()
	p.call++
}

func (p *pairArbiter) checkPointers() {
	p.t.Helper()
	if !slices.Equal(p.fast.grantPtr, p.ref.GrantPtr) {
		p.t.Fatalf("call %d: grantPtr %v, reference %v", p.call, p.fast.grantPtr, p.ref.GrantPtr)
	}
	if !slices.Equal(p.fast.acceptPtr, p.ref.AcceptPtr) {
		p.t.Fatalf("call %d: acceptPtr %v, reference %v", p.call, p.fast.acceptPtr, p.ref.AcceptPtr)
	}
}

// roundTrip replaces the kernel with a fresh arbiter restored from its
// snapshot, so the rest of the sequence runs on loaded pointers.
func (p *pairArbiter) roundTrip(n int) {
	p.t.Helper()
	w := snap.NewWriter()
	w.Begin("islip")
	p.fast.SaveArbiterState(w)
	w.End()
	r, err := snap.NewReader(w.Bytes())
	if err != nil {
		p.t.Fatal(err)
	}
	if err := r.Section("islip"); err != nil {
		p.t.Fatal(err)
	}
	fresh := &Arbiter{Iterations: p.fast.Iterations}
	if err := fresh.LoadArbiterState(n, r); err != nil {
		p.t.Fatal(err)
	}
	if err := r.EndSection(); err != nil {
		p.t.Fatal(err)
	}
	p.fast = fresh
	p.checkPointers()
}

// TestKernelMatchesReference is the state-level differential: on
// multi-slot runs at random occupancy densities, from random starting
// pointers and with every small iteration cap, the kernel's OutIn,
// Rounds and both pointer arrays must equal the reference loop's after
// every call. The sizes straddle the 64-bit word boundaries, so the
// wrapped scans cross words in both directions; halfway through each
// run the kernel is swapped for a fresh arbiter restored from its
// snapshot.
func TestKernelMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 63, 64, 65, 130, 256} {
		for _, iters := range []int{0, 1, 2, 3} {
			for _, density := range []float64{0.05, 0.3, 0.7, 1} {
				t.Run(fmt.Sprintf("n%d/iter%d/d%.2f", n, iters, density), func(t *testing.T) {
					runPair(t, n, iters, density)
				})
			}
		}
	}
}

func runPair(t *testing.T, n, iters int, density float64) {
	slots := int64(24)
	if n >= 130 {
		slots = 8
	}
	r := xrand.New(uint64(n*1000 + iters*10 + int(density*100)))
	p := &pairArbiter{
		t:    t,
		fast: &Arbiter{Iterations: iters},
		ref:  &oracle.ISLIP{Iterations: iters},
		refM: core.NewMatching(n),
	}
	p.fast.ensure(n)
	p.ref.GrantPtr = make([]int, n)
	p.ref.AcceptPtr = make([]int, n)
	for i := 0; i < n; i++ {
		p.fast.grantPtr[i] = r.Intn(n)
		p.fast.acceptPtr[i] = r.Intn(n)
	}
	copy(p.ref.GrantPtr, p.fast.grantPtr)
	copy(p.ref.AcceptPtr, p.fast.acceptPtr)

	s := core.NewSwitch(n, p, xrand.New(1))
	var id cell.PacketID
	drain := func(cell.Delivery) {}
	for slot := int64(0); slot < slots; slot++ {
		for in := 0; in < n; in++ {
			if slot > 0 && !r.Bool(density) {
				continue
			}
			d := destset.New(n)
			for out := 0; out < n; out++ {
				if r.Bool(density) {
					d.Add(out)
				}
			}
			if d.Empty() {
				d.Add(r.Intn(n))
			}
			id++
			s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: slot, Dests: d})
		}
		s.Step(slot, drain)
		if slot == slots/2 {
			p.roundTrip(n)
		}
	}
	if p.call == 0 {
		t.Fatal("the switch never ran the kernel")
	}
}

// TestFirstFrom pins the wrapped scan on hand-built multi-word rows.
func TestFirstFrom(t *testing.T) {
	all := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	for _, tc := range []struct {
		row  []uint64
		p    int
		want int
	}{
		{[]uint64{0, 0, 0}, 5, core.None},
		{[]uint64{1 << 7, 0, 0}, 7, 7},
		{[]uint64{1 << 7, 0, 0}, 8, 7},         // wraps within the start word
		{[]uint64{1 << 7, 0, 1 << 2}, 8, 130},  // next member in a later word
		{[]uint64{1 << 7, 1 << 63, 0}, 130, 7}, // wraps across the end
		{[]uint64{0, 1<<3 | 1<<40, 0}, 100, 104},
		{[]uint64{0, 1<<3 | 1<<40, 0}, 110, 67}, // wraps back into the start word
		{[]uint64{0, 0, 1 << 63}, 191, 191},
	} {
		if got := firstFrom(tc.row, all, tc.p); got != tc.want {
			t.Errorf("firstFrom(%x, %d) = %d, want %d", tc.row, tc.p, got, tc.want)
		}
	}
	mask := []uint64{^uint64(1 << 7), ^uint64(0), ^uint64(0)}
	if got := firstFrom([]uint64{1<<7 | 1<<9, 0, 0}, mask, 0); got != 9 {
		t.Errorf("masked firstFrom = %d, want 9", got)
	}
}
