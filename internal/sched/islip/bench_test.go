package islip

import (
	"fmt"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/xrand"
)

// BenchmarkISLIPMatch times the kernel alone on a backlogged switch in
// which each VOQ is non-empty with probability 0.3, which takes two to
// six iterations per slot at these sizes. Match does not mutate queue
// state, so every iteration reruns the kernel on the same occupancy
// while the pointers keep rotating. On a fresh arbiter all pointers
// start at 0 and take about n slots to desynchronise, so 2n untimed
// calls come first; the timed calls then measure the steady state,
// whatever -benchtime is.
func BenchmarkISLIPMatch(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := New()
			s := core.NewSwitch(n, a, xrand.New(7))
			r := xrand.New(uint64(n))
			for in := 0; in < n; in++ {
				d := destset.New(n)
				for out := 0; out < n; out++ {
					if r.Bool(0.3) {
						d.Add(out)
					}
				}
				if d.Empty() {
					d.Add(in)
				}
				s.Arrive(&cell.Packet{ID: cell.PacketID(in + 1), Input: in, Dests: d})
			}
			m := core.NewMatching(n)
			for i := 0; i < 2*n; i++ {
				m.Clear()
				a.Match(s, 0, nil, m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Clear()
				a.Match(s, 0, nil, m)
			}
		})
	}
}
