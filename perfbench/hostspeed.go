package main

import (
	"sync"
	"time"
)

// The shared 2-CPU hosts this benchmark was tuned on change speed by up
// to 1.7x for minutes at a time: a fixed loop takes 6.2 ms in quiet
// spells and 10.5 ms in busy ones, and a thread's CPU time inflates
// with its wall time, so neither clock alone repeats. The batch
// workloads therefore report their timed figures at reference speed. A
// fixed reference loop that calls nothing of the program runs between
// jobs; each job's wall figures are scaled by how much slower the loop
// ran around it than its nominal time. Over six 20-second runs each,
// the median wall rate of fifoms-n256 jobs spread 24% between its
// quartiles and that of fabric-clos16 jobs 28%; at reference speed, 8%
// and 13% (full ranges 10% and 15%). A loop over a 2 MiB table did
// about as well (10% and 10%, full ranges 16% and 18%); a loop without
// memory accesses hardly slows down when the host is busy.
//
// The loop cannot hide a change to the program: it runs between jobs,
// when the program holds no goroutines of its own (a fabric's worker
// pool is closed after each run), and it never calls the program.

// refNominal is the reference loop's time on an idle host of the kind
// the benchmark was tuned on (Intel Xeon @ 2.10 GHz). It only fixes the
// scale: a scaled figure reads as a wall figure on such an idle host.
const refNominal = 0.0062

const (
	refWords = 1 << 15 // 256 KiB: held in a core's L2
	refIters = 4_000_000
)

// refLoop is the reference work: a linear congruential walk that adds
// into random words of a 256 KiB table, mixing integer arithmetic with
// L1 misses the way a slot loop does.
func refLoop(buf []uint64, x uint64) uint64 {
	for i := 0; i < refIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		buf[x>>49] += x
	}
	return x
}

// hostSpeed measures the host with the reference loop on a fixed
// number of goroutines at once, one per CPU the workload keeps busy.
type hostSpeed struct {
	bufs [][]uint64
	seed []uint64
}

func newHostSpeed(parallel int) *hostSpeed {
	h := &hostSpeed{bufs: make([][]uint64, parallel), seed: make([]uint64, parallel)}
	for i := range h.bufs {
		h.bufs[i] = make([]uint64, refWords)
		h.seed[i] = uint64(i) + 1
	}
	h.slowdown() // fault in the tables
	return h
}

// slowdown runs the loop once per goroutine and returns its mean time
// over refNominal: 1 on an idle host of the reference kind, more when
// the host is busy.
func (h *hostSpeed) slowdown() float64 {
	secs := make([]float64, len(h.bufs))
	var wg sync.WaitGroup
	for i := range h.bufs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			secs[i] = h.timeLoop(i)
		}(i)
	}
	wg.Wait()
	var sum float64
	for _, s := range secs {
		sum += s
	}
	return sum / float64(len(secs)) / refNominal
}

func (h *hostSpeed) timeLoop(i int) float64 {
	// A sequential pass first brings the table back into cache, so the
	// timed loop does not pay for what the job evicted.
	var sum uint64
	for _, w := range h.bufs[i] {
		sum += w
	}
	t0 := time.Now()
	h.seed[i] = refLoop(h.bufs[i], h.seed[i]|sum&1)
	return time.Since(t0).Seconds()
}

// timeEach runs fn n times, each between two reference measurements,
// and returns the durations fn reports divided by the mean slowdown
// around each: n durations at reference speed.
func (h *hostSpeed) timeEach(n int, fn func() (float64, error)) ([]float64, error) {
	out := make([]float64, 0, n)
	before := h.slowdown()
	for i := 0; i < n; i++ {
		secs, err := fn()
		if err != nil {
			return nil, err
		}
		after := h.slowdown()
		out = append(out, secs/((before+after)/2))
		before = after
	}
	return out, nil
}
