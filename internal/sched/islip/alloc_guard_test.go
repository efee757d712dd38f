package islip

import (
	"fmt"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

// TestSlotZeroAllocs guards the iSLIP slot on a warm switch: after a
// fixed warm-up, Step on a backlogged switch — the kernel's grant and
// accept scans included — allocates nothing. A fixed measured window
// keeps the result independent of any adaptive iteration count.
func TestSlotZeroAllocs(t *testing.T) {
	const warm, measured = 20, 200
	for _, n := range []int{16, 256} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := core.NewSwitch(n, New(), xrand.New(1))
			// Every VOQ holds depth cells; the kernel serves at most n
			// cells a slot, so the backlog outlasts the run.
			depth := 2 + (warm+measured)/n
			all := destset.New(n)
			for out := 0; out < n; out++ {
				all.Add(out)
			}
			var id cell.PacketID
			for k := 0; k < depth; k++ {
				for in := 0; in < n; in++ {
					id++
					s.Arrive(&cell.Packet{ID: id, Input: in, Arrival: int64(k), Dests: all})
				}
			}
			drain := func(cell.Delivery) {}
			slot := int64(depth)
			for ; slot < int64(depth+warm); slot++ {
				s.Step(slot, drain)
			}
			allocs := testing.AllocsPerRun(measured, func() {
				s.Step(slot, drain)
				slot++
			})
			if allocs != 0 {
				t.Fatalf("iSLIP slot at n=%d: %.2f allocs/op, want 0", n, allocs)
			}
			if s.BufferedCells() == 0 {
				t.Fatal("backlog drained during the measured window")
			}
		})
	}
}
