package switchsim

import (
	"fmt"
	"runtime"
	"testing"
)

// TestSlotZeroAllocs guards the whole steady-state slot loop — traffic
// generation, preprocessing, arbitration, transfer, delivery recording
// and statistics, with obs/check off — at the sizes BENCH_e2e.json
// quotes. The arena, the pooled packets and the tracker's in-flight
// window make a warm slot allocation-free; any regression here puts GC
// pressure back into every sweep.
func TestSlotZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("long warm-ups at n=256")
	}
	for _, tc := range []struct {
		n    int
		fast bool
	}{
		{64, false}, {128, false}, {256, false},
		{64, true}, {256, true},
	} {
		name := fmt.Sprintf("n=%d", tc.n)
		if tc.fast {
			name = "fast/" + name
		}
		tc := tc
		t.Run(name, func(t *testing.T) {
			// A fixed warm-up and a fixed measured window, so the
			// result cannot depend on how many iterations an adaptive
			// benchmark happens to pick.
			const measured = 1000
			warm := warmSlotsFor(tc.n)
			r := slotBenchRunner(tc.n, warm+measured+2, tc.fast)
			for slot := int64(0); slot < warm; slot++ {
				r.tick(slot, 0)
			}
			slot := warm
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(measured, func() {
				r.tick(slot, 0)
				slot++
			})
			runtime.ReadMemStats(&after)
			// AllocsPerRun makes one extra, unmeasured call.
			bytes := (after.TotalAlloc - before.TotalAlloc) / (measured + 1)
			if allocs != 0 {
				t.Fatalf("steady-state slot at %s: %.2f allocs/op (%d B/op), want 0",
					name, allocs, bytes)
			}
			// A handful of bytes/op can legitimately appear from amortized
			// ring growth while the backlog still drifts; whole allocations
			// per op may not. Keep a small ceiling on the bytes too so a
			// genuine per-slot allocation cannot hide below 1 alloc/op.
			if bytes > 16 {
				t.Fatalf("steady-state slot at %s: %d B/op, want <= 16", name, bytes)
			}
		})
	}
}

// TestSlotZeroAllocs1024 extends the guard to the widest quoted size
// with runtime.AllocsPerRun over warmed runners — cheaper than a full
// adaptive benchmark at N=1024, where a single warm-up is already
// millions of cell operations.
func TestSlotZeroAllocs1024(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	for _, fast := range []bool{false, true} {
		// N=1024 needs a longer warm-up than the benchmark default: the
		// backlog (and with it the packet pool and tracker tables) keeps
		// growing past 2000 slots, and every slot of drift allocates.
		const n, measured, warm = 1024, 200, 12_000
		r := slotBenchRunner(n, warm+measured+1, fast)
		for slot := int64(0); slot < warm; slot++ {
			r.tick(slot, 0)
		}
		slot := int64(warm)
		avg := testing.AllocsPerRun(measured, func() {
			r.tick(slot, 0)
			slot++
		})
		if avg != 0 {
			t.Fatalf("steady-state slot at n=1024 (fast=%v): %.2f allocs/op, want 0", fast, avg)
		}
	}
}
