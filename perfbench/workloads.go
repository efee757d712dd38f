package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// The batch workloads share one shape. The untraced run times jobs on
// the default code path and reports the end-to-end metrics. The traced
// run spends 40% of its time on untraced jobs (the baseline for
// trace_overhead and the allocation counts) and 60% on traced jobs,
// whose simulated statistics must equal the untraced ones.

const untracedShare = 0.4

func runSeqWorkload(s seqSpec, o options, r *run) error {
	hs := newHostSpeed(1)
	if !o.trace {
		// Extra set-ups before the timed jobs steady the set-up median.
		setups, err := hs.timeEach(15, func() (float64, error) {
			runtime.GC()
			t0 := time.Now()
			_, err := s.build(o.seed, s.jobSlots, nil)
			return time.Since(t0).Seconds(), err
		})
		if err != nil {
			return err
		}
		rep := runSeq(s, o.seed, o.seconds, hs, nil)
		rss, err := measureRSS(func() error {
			run, err := s.build(o.seed, s.jobSlots, nil)
			if err == nil {
				run.Run("fifoms")
				closeRun(run)
			}
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, rep.setups...)
		r.set("setup_s", median(setups), "s")
		r.set("throughput_per_s", median(rep.rates), "1/s")
		r.set("peak_rss_mb", rss, "MB")
		r.note("jobs: %d runs of %d slots, median %.0f slots/s at reference speed (%.0f wall), median set-up %.4f s", len(rep.rates), s.jobSlots, median(rep.rates), median(rep.wallRates), median(rep.setups))
		noteSpeeds(r, rep)
		r.note("first run: %s", rep.first.Describe())
		absorb(r, rep)
		r.checkDigest(s.name, o.seed, rep.digests[0])
		r.checked(s.checkedRun(o.seed))
		return nil
	}

	zeroLayers(r)
	calibrate()
	base := runSeq(s, o.seed, untracedShare*o.seconds, hs, nil)
	var sets []*traceSet
	traced := runSeq(s, o.seed, (1-untracedShare)*o.seconds, hs, func(job int) *lane {
		ts := &traceSet{}
		sets = append(sets, ts)
		l := newLane(fmt.Sprintf("%s job %d", s.name, job), job == 0)
		ts.add(l)
		return l
	})
	absorb(r, base)
	absorb(r, traced)
	r.checkDigest(s.name, o.seed, base.digests[0])
	r.sameDigests(base.digests, traced.digests)
	r.checked(s.checkedRun(o.seed))

	var t layerTotals
	for _, ts := range sets {
		t.addSet(ts)
	}
	layerMetrics(r, &t)
	r.set("switchsim.allocs_per_slot", float64(base.mallocs)/float64(base.totalSlot), "count/slot")
	r.set("switchsim.alloc_bytes_per_slot", float64(base.allocByte)/float64(base.totalSlot), "B/slot")
	if fs := base.first.Fabric; fs != nil {
		r.set("fabric.hop_mean", fs.HopMean, "count")
		r.set("fabric.drops", float64(fs.DroppedCopies), "count")
	}
	r.set("trace_overhead", median(traced.rates)/median(base.rates), "ratio")
	return r.dumpSpans(o, sets[0])
}

func runFig4Workload(o options, r *run) error {
	hs := newHostSpeed(runtime.NumCPU())
	if !o.trace {
		setups, err := hs.timeEach(21, func() (float64, error) {
			runtime.GC()
			return fig4Setup(o.seed)
		})
		if err != nil {
			return err
		}
		rep := runFig4(o.seed, o.seconds, hs, nil)
		rss, err := measureRSS(func() error {
			_, err := fig4Sweep(o.seed, fig4Slots).Run()
			return err
		})
		if err != nil {
			return err
		}
		r.set("setup_s", median(setups), "s")
		r.set("throughput_per_s", median(rep.rates), "1/s")
		r.set("peak_rss_mb", rss, "MB")
		r.note("jobs: %d sweeps of 40 points x %d slots on %d workers, median %.0f slots/s at reference speed (%.0f wall)", len(rep.rates), fig4Slots, runtime.NumCPU(), median(rep.rates), median(rep.wallRates))
		noteSpeeds(r, rep)
		absorb(r, rep)
		r.checkDigest("fig4-sweep", o.seed, rep.digests[0])
		r.checked(fig4Checked(o.seed))
		return nil
	}

	zeroLayers(r)
	calibrate()
	var logs []*pointLog
	base := runFig4(o.seed, untracedShare*o.seconds, hs, func(int) *pointLog {
		pl := newPointLog(nil, false)
		logs = append(logs, pl)
		return pl
	})
	var sets []*traceSet
	traced := runFig4(o.seed, (1-untracedShare)*o.seconds, hs, func(job int) *pointLog {
		ts := &traceSet{}
		sets = append(sets, ts)
		return newPointLog(ts, job == 0)
	})
	absorb(r, base)
	absorb(r, traced)
	r.checkDigest("fig4-sweep", o.seed, base.digests[0])
	r.sameDigests(base.digests, traced.digests)
	r.checked(fig4Checked(o.seed))

	var t layerTotals
	for _, ts := range sets {
		t.addSet(ts)
	}
	layerMetrics(r, &t)
	r.set("switchsim.allocs_per_slot", float64(base.mallocs)/float64(base.totalSlot), "count/slot")
	r.set("switchsim.alloc_bytes_per_slot", float64(base.allocByte)/float64(base.totalSlot), "B/slot")

	var p50, pmax, busy, tail []float64
	for _, pl := range logs {
		st := pl.stats(runtime.NumCPU())
		p50 = append(p50, st.pointP50)
		pmax = append(pmax, st.pointMax)
		busy = append(busy, st.busyFrac)
		tail = append(tail, st.tail)
	}
	r.set("experiment.point_p50_s", median(p50), "s")
	r.set("experiment.point_max_s", median(pmax), "s")
	r.set("experiment.worker_busy_frac", median(busy), "ratio")
	r.set("experiment.tail_s", median(tail), "s")
	r.set("trace_overhead", median(traced.rates)/median(base.rates), "ratio")
	return r.dumpSpans(o, sets[0])
}

// layerMetrics turns the summed span times of a traced run into the
// per-layer metrics. Times are per sampled slot; shares are of the
// sampled slots' total time.
func layerMetrics(r *run, t *layerTotals) {
	n := t.samples
	tick := t.incl[spTick]
	share := func(ns int64) float64 { return ratio(ns, tick) }
	r.set("traffic.ns_per_slot", ratio(t.self[spTraffic], n), "ns/slot")
	r.set("traffic.share", share(t.self[spTraffic]), "ratio")
	r.set("traffic.arrivals_per_slot", ratio(t.arrivals, t.slots), "count/slot")

	r.set("core.match_ns_per_slot", ratio(t.self[spCoreMatch], n), "ns/slot")
	r.set("core.match_share", share(t.self[spCoreMatch]), "ratio")
	// A fabric node's Step is core's Step; its self time excludes the
	// match and the fabric's delivery handling.
	r.set("core.step_self_ns_per_slot", ratio(t.self[spCoreStep]+t.self[spNodeStep], n), "ns/slot")
	r.set("core.arrive_ns_per_pkt", ratio(t.incl[spCoreArrive], t.calls[spCoreArrive]), "ns/pkt")
	r.set("core.rounds_per_slot", ratio(t.rounds, t.fifomsSlots), "count/slot")

	r.set("islip.match_share", share(t.self[spIslipMatch]), "ratio")
	r.set("tatra.step_share", share(t.self[spTatraArrive]+t.self[spTatraStep]), "ratio")
	r.set("oq.step_share", share(t.self[spOqArrive]+t.self[spOqStep]), "ratio")

	// The Runner's own work: the slot minus traffic and switch, plus
	// its per-copy delivery accounting, on runs whose switch is
	// wrapped whole.
	r.set("switchsim.self_ns_per_slot", ratio(t.fullTickSelf+t.incl[spRunDeliver], t.fullTickSamples), "ns/slot")

	fabStep := t.incl[spFabricArrive] + t.incl[spFabricStep]
	if fabStep > 0 {
		node := t.incl[spNodeStep] - t.incl[spNodeDeliver]
		self := fabStep - node - t.incl[spCoreArrive] - t.incl[spRunDeliver]
		r.set("fabric.step_ns_per_slot", ratio(fabStep, n), "ns/slot")
		r.set("fabric.node_step_ns_per_slot", ratio(node, n), "ns/slot")
		r.set("fabric.self_ns_per_slot", ratio(self, n), "ns/slot")
		r.set("fabric.serial_share", ratio(self, fabStep), "ratio")
		r.set("fabric.node_step_max_ns", ratio(t.nodeMaxSum, n), "ns")
	}
	r.note("layer shares of sampled slot time (%d sampled slots, 1 in %d; span overhead %d+%d ns removed):", n, sampleEvery, ovhIn, ovhOut)
	for i := 0; i < numSpans; i++ {
		if t.calls[i] > 0 {
			r.note("  %-18s self %10.0f ns/slot  share %6.2f%%  calls %d", spanNames[i], ratio(t.self[i], n), 100*share(t.self[i]), t.calls[i])
		}
	}
}

// noteSpeeds records each job's rate at reference speed, its wall rate
// and the host's slowdown around it.
func noteSpeeds(r *run, rep *batchReport) {
	r.note("slots/s per job at reference speed: %.0f", rep.rates)
	r.note("slots/s per job, wall clock: %.0f", rep.wallRates)
	r.note("host slowdown per job: %.2f", rep.slowdowns)
}

func absorb(r *run, rep *batchReport) {
	r.attempted += rep.attempted
	r.failed += rep.failed
	r.problems = append(r.problems, rep.problems...)
}

// checkDigest compares the first run at defaultSeed with its pinned
// digest.
func (r *run) checkDigest(name string, seed uint64, got string) {
	if seed != defaultSeed {
		return
	}
	r.attempted++
	switch want := pinnedDigests[name]; {
	case want == "":
		r.note("digest at default seed: %s (not pinned)", got)
	case got != want:
		r.fail("%s: digest %s at seed %d, pinned %s", name, got, seed, want)
	default:
		r.note("digest at default seed: %s (matches pinned)", got)
	}
}

// sameDigests checks that tracing left the simulation untouched: the
// traced and untraced job with the same index ran the same inputs.
func (r *run) sameDigests(untraced, traced []string) {
	for i := 0; i < len(untraced) && i < len(traced); i++ {
		r.attempted++
		if untraced[i] != traced[i] {
			r.fail("traced job %d digest %s differs from the untraced job's %s", i, traced[i], untraced[i])
		}
	}
}

func (r *run) checked(err error) {
	r.attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

func (r *run) dumpSpans(o options, ts *traceSet) error {
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s.json", o.workload))
	if err := writeSpans(path, ts); err != nil {
		return err
	}
	r.note("spans: %s", path)
	return nil
}
