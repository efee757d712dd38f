package main

import (
	"math"
	"net"
	"testing"

	"voqsim/internal/experiment"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		target  float64
		wantPct float64
		wantVal float64
		wantOK  bool
	}{
		{1000, 99, 99, 990, true}, // exactly 10 samples above p99
		{999, 99, 95, 950, true},  // 9 above p99: fall back to p95
		{100_000, 99.9, 99.9, 99_900, true},
		{5000, 99.9, 99, 4950, true}, // 5 above p99.9
		{20, 99, 50, 10, true},       // only the median keeps 10 beyond
		{19, 99, 0, 0, false},
		{0, 99, 0, 0, false},
	} {
		p, v, ok := tailPercentile(seq(tc.n), tc.target)
		if p != tc.wantPct || v != tc.wantVal || ok != tc.wantOK {
			t.Errorf("n=%d target p%g: got p%g=%g ok=%v, want p%g=%g ok=%v",
				tc.n, tc.target, p, v, ok, tc.wantPct, tc.wantVal, tc.wantOK)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %g", m)
	}
	if p := percentile(seq(100), 50); p != 50 {
		t.Errorf("p50 of 1..100 = %g", p)
	}
	if p := percentile(seq(100), 100); p != 100 {
		t.Errorf("p100 of 1..100 = %g", p)
	}
}

// TestScheduleDueTimes checks the open-loop schedule: frames are due
// at fixed absolute spacing 1/rate from the start, whatever the model's
// slot structure, and sequence numbers continue across trials.
func TestScheduleDueTimes(t *testing.T) {
	seqs := make([]uint64, 8)
	const rate, start = 50_000.0, int64(1_000_000)
	frames, err := schedule(8, 1, 0, rate, 0.01, seqs, start)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 500 {
		t.Fatalf("%d frames, want 500", len(frames))
	}
	for k, f := range frames {
		want := start + int64(float64(k)*1e9/rate)
		if f.due != want {
			t.Fatalf("frame %d due %d, want %d", k, f.due, want)
		}
		if f.dests == 0 || f.dests>>8 != 0 {
			t.Fatalf("frame %d has destination mask %#x", k, f.dests)
		}
	}
	var total uint64
	for _, s := range seqs {
		total += s
	}
	if total != 500 {
		t.Fatalf("sequence numbers advanced by %d, want 500", total)
	}
	more, err := schedule(8, 1, 1, rate, 0.001, seqs, start)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range more {
		if f.seq < seqs[f.in]-uint64(len(more)) {
			t.Fatalf("trial 2 reused sequence %d of input %d", f.seq, f.in)
		}
	}
}

// TestAccountTimesFromDue checks the accounting of delivered copies:
// latency runs from the frame's due time, not from when it was sent, so
// a late sender shows as latency; duplicates, foreign and corrupt
// copies are told apart; a frame completes when all its copies arrive.
func TestAccountTimesFromDue(t *testing.T) {
	frames := []sentFrame{
		{in: 0, seq: 7, dests: 0b011, due: 1000, sent: 1000},
		{in: 1, seq: 3, dests: 0b100, due: 2000, sent: 5_002_000}, // sent 5 ms late
		{in: 0, seq: 8, dests: 0b001, due: 3000, sent: 3000},
	}
	obs := []copyObs{
		{src: 0, seq: 7, out: 0, at: 1_001_000},
		{src: 0, seq: 7, out: 1, at: 2_001_000},
		{src: 1, seq: 3, out: 2, at: 6_002_000},
		{src: 1, seq: 3, out: 2, at: 6_003_000}, // duplicate
		{src: 0, seq: 8, out: 3, at: 9000},      // output not addressed
		{src: 0, seq: 9, out: 0, at: 9000},      // no such frame
		{src: 0, seq: 8, out: 0, at: 9000, bad: true},
	}
	b := &voqdBench{p: &voqdProc{ingress: make([]*net.UDPAddr, 8)}}
	tr := &trialResult{}
	b.account(tr, frames, obs)
	if tr.frames != 3 || tr.copies != 4 {
		t.Fatalf("frames %d copies %d, want 3 and 4", tr.frames, tr.copies)
	}
	if tr.received != 3 || tr.dups != 1 || tr.bad != 3 || tr.completed != 2 || tr.lost() != 1 {
		t.Fatalf("received %d dups %d bad %d completed %d lost %d, want 3 1 3 2 1",
			tr.received, tr.dups, tr.bad, tr.completed, tr.lost())
	}
	wantLat := []float64{1, 2, 6}
	for i, w := range wantLat {
		if math.Abs(tr.latMs[i]-w) > 1e-9 {
			t.Fatalf("latencies %v ms, want %v", tr.latMs, wantLat)
		}
	}
	if lag := tr.lagMs[len(tr.lagMs)-1]; lag != 5 {
		t.Fatalf("largest sender lateness %g ms, want 5", lag)
	}
}

// TestUnexplainedLoss checks the copy-level conservation rule: losses
// the daemon's drop counters account for pass, a silent loss fails.
func TestUnexplainedLoss(t *testing.T) {
	tr := func(lost, lostFrames, lostFrameCopies, read, ring, egress, sends int64) *trialResult {
		r := &trialResult{frames: 100, copies: 160, received: 160 - lost,
			lostFrames: lostFrames, lostFrameCopies: lostFrameCopies}
		r.after.Daemon.RecvFrames = read
		r.after.Daemon.RingDrops = ring
		r.after.Daemon.EgressDrops = egress
		r.after.Daemon.EgressSends = sends
		return r
	}
	for _, tc := range []struct {
		name string
		tr   *trialResult
		want int64
	}{
		{"no loss", tr(0, 0, 0, 100, 0, 0, 160), 0},
		{"two frames ring-dropped", tr(3, 2, 3, 100, 2, 0, 157), 0},
		{"one frame lost in the kernel", tr(2, 1, 2, 99, 0, 0, 158), 0},
		{"copies dropped at egress", tr(4, 1, 1, 100, 0, 4, 156), 0},
		{"copies lost silently", tr(4, 0, 0, 100, 0, 0, 156), 4},
		{"a frame lost silently", tr(2, 1, 2, 100, 0, 0, 158), 1},
		{"copies lost in our receive socket", tr(4, 0, 0, 100, 0, 0, 160), 0},
	} {
		if got := unexplained(tc.tr); got != tc.want {
			t.Errorf("%s: %d unexplained copies, want %d", tc.name, got, tc.want)
		}
	}
}

// TestWrappersForwardCapabilities checks that every traced wrapper
// exposes exactly the optional interfaces of what it wraps, so a traced
// run takes the same engine path as an untraced one.
func TestWrappersForwardCapabilities(t *testing.T) {
	lane := func() *lane { return newLane("test", false) }
	fab, err := fabricClos16.algorithm(nil)
	if err != nil {
		t.Fatal(err)
	}
	type build struct {
		algo  experiment.Algorithm
		ports int
	}
	builds := []build{{fab, fabricClos16.ports}}
	for _, a := range fig4Sweep(1, 100).Algorithms {
		builds = append(builds, build{a, 16})
	}
	for _, b := range builds {
		a := b.algo
		sw := a.New(b.ports, xrand.New(1))
		w, err := wrapSwitch(sw, lane())
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		if is[switchsim.SnapshottableSwitch](sw) != is[switchsim.SnapshottableSwitch](w) {
			t.Errorf("%s: wrapper changes snapshot support", a.Name)
		}
	}
	for _, mk := range []func() (traffic.Pattern, error){
		func() (traffic.Pattern, error) { return traffic.BernoulliAtLoad(0.8, 0.2, 16) },
		func() (traffic.Pattern, error) { return traffic.UniformAtLoad(0.9, 4, 16) },
	} {
		pat, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		src := pat.NewSource(16, 0, xrand.New(1))
		w := tracedPattern{Pattern: pat, laneFor: lane}.NewSource(16, 0, xrand.New(1))
		if is[traffic.Snapshottable](src) != is[traffic.Snapshottable](w) || !is[traffic.IntoSource](w) {
			t.Errorf("%s: wrapped source has different capabilities", pat)
		}
	}
}
