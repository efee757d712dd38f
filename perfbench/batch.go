package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"voqsim/internal/check"
	"voqsim/internal/core"
	"voqsim/internal/experiment"
	"voqsim/internal/fabric"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// seqSpec is a workload of repeated sequential runs, built the way the
// voqsim facade builds a run: switch from the "switch" substream of the
// seed, sources from the "traffic" substream, default engine config.
type seqSpec struct {
	name     string
	topology string // fabric spec, or "" for a single switch
	ports    int
	pattern  func(n int) (traffic.Pattern, error)
	jobSlots int64 // slots per timed run
	chkSlots int64 // slots of the checked run
}

var fifomsN256 = seqSpec{
	name: "fifoms-n256", ports: 256, jobSlots: 2000, chkSlots: 300,
	pattern: func(n int) (traffic.Pattern, error) { return traffic.UniformAtLoad(0.9, 4, n) },
}

var fabricClos16 = seqSpec{
	name: "fabric-clos16", topology: "clos:n=16,m=16,r=16", ports: 256, jobSlots: 1000, chkSlots: 400,
	pattern: func(n int) (traffic.Pattern, error) { return traffic.UniformAtLoad(0.6, 8, n) },
}

// matchSpan maps core arbiter names to their match span.
var matchSpan = map[string]int{"fifoms": spCoreMatch, "islip": spIslipMatch}

// tracedAlgorithm builds algo's switch with its layers wrapped into the
// lane laneFor returns. A core-family switch keeps its concrete type
// and gets a timed arbiter, so a sweep still adopts pooled arenas;
// other switches are wrapped whole. In a fabric (node true) a core
// switch is a node: its Step is timed with the fabric's delivery
// handling split out.
func tracedAlgorithm(algo experiment.Algorithm, node bool, laneFor func() *lane) experiment.Algorithm {
	return experiment.Algorithm{Name: algo.Name, New: func(n int, root *xrand.Rand) switchsim.Switch {
		l := laneFor()
		sw := algo.New(n, root)
		cs, ok := sw.(*core.Switch)
		if !ok {
			w, err := wrapSwitch(sw, l)
			if err != nil {
				panic(err)
			}
			return w
		}
		sp, known := matchSpan[cs.Arbiter().Name()]
		if !known {
			panic(fmt.Sprintf("perfbench: no span name for arbiter %s", cs.Arbiter().Name()))
		}
		// cs never ran, so its arbiter is as fresh as a new one; Split
		// does not advance root, so the arbiter's stream is unchanged.
		cs = core.NewSwitch(n, &tracedArbiter{Arbiter: cs.Arbiter(), l: l, name: sp}, root)
		l.fifoms = l.fifoms || sp == spCoreMatch
		if node {
			return newTracedNode(cs, l)
		}
		return cs
	}}
}

// algorithm is the workload's FIFOMS switch, lifted onto its topology
// when it has one, with every layer traced into l when l is non-nil.
func (s seqSpec) algorithm(l *lane) (experiment.Algorithm, error) {
	algo := experiment.FIFOMS
	if l != nil {
		algo = tracedAlgorithm(algo, s.topology != "", func() *lane { return l })
	}
	if s.topology == "" {
		return algo, nil
	}
	top, err := fabric.ParseSpec(s.topology)
	if err != nil {
		return algo, err
	}
	return experiment.WithTopology(algo, top, fabric.Config{})
}

// build assembles one run. With a non-nil lane every layer is wrapped.
func (s seqSpec) build(seed uint64, slots int64, l *lane) (*switchsim.Runner, error) {
	algo, err := s.algorithm(l)
	if err != nil {
		return nil, err
	}
	pat, err := s.pattern(s.ports)
	if err != nil {
		return nil, err
	}
	root := xrand.New(seed)
	sw := algo.New(s.ports, root.Split("switch", 0))
	if l != nil {
		if sw, err = wrapSwitch(sw, l); err != nil {
			return nil, err
		}
		pat = tracedPattern{Pattern: pat, laneFor: func() *lane { return l }}
	}
	return switchsim.New(sw, pat, switchsim.Config{Slots: slots, Seed: seed}, root.Split("traffic", 0)), nil
}

// checkedRun runs a short simulation under the invariant checker (all
// eight switch invariants, plus F1 for a fabric) and the same run
// without it, and reports a violation or any difference between them.
func (s seqSpec) checkedRun(seed uint64) error {
	plain, err := s.build(seed, s.chkSlots, nil)
	if err != nil {
		return err
	}
	want := digest(plain.Run("fifoms"))

	algo, err := s.algorithm(nil)
	if err != nil {
		return err
	}
	pat, err := s.pattern(s.ports)
	if err != nil {
		return err
	}
	root := xrand.New(seed)
	res, _, err := switchsim.CheckedRun("fifoms", algo.New(s.ports, root.Split("switch", 0)), pat,
		switchsim.Config{Slots: s.chkSlots, Seed: seed}, root.Split("traffic", 0), check.Options{})
	if err != nil {
		return fmt.Errorf("%s: invariant checker: %w", s.name, err)
	}
	if got := digest(res); got != want {
		return fmt.Errorf("%s: checked run digest %s differs from the unchecked run's %s", s.name, got, want)
	}
	return nil
}

// batchReport is what one batch workload measured.
type batchReport struct {
	rates     []float64 // slots per second at reference speed, one per job
	wallRates []float64 // slots per wall-clock second, one per job
	slowdowns []float64 // the host's slowdown around each job
	setups    []float64 // seconds at reference speed, one per set-up
	attempted int64
	failed    int64
	problems  []string
	digests   []string // one per job
	totalSlot int64    // slots simulated in the timed jobs
	mallocs   uint64   // heap allocations while simulating (set-up excluded)
	allocByte uint64
	first     switchsim.Results // first job's results (sequential workloads)
}

func (r *batchReport) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// measureRSS runs job five times outside the timed loop, each on a
// fresh heap — the previous memory returned to the OS and the kernel's
// peak-RSS count restarted, as in a new process — and returns the
// median of their peak resident sets in MB. Where the kernel cannot
// restart the count it returns the process's peak.
func measureRSS(job func() error) (float64, error) {
	var rss []float64
	for i := 0; i < 5; i++ {
		debug.FreeOSMemory()
		reset := resetPeakRSS()
		if err := job(); err != nil {
			return 0, err
		}
		mb, err := peakRSSMB("self")
		if err != nil || !reset {
			return mb, err
		}
		rss = append(rss, mb)
	}
	return median(rss), nil
}

// jobSeed is the input seed of a run's job-th job. Jobs draw distinct
// inputs, so a run's median spans several input realizations; job 0
// uses the run's seed itself.
func jobSeed(seed uint64, job int) uint64 { return seed + uint64(job)*0x9e3779b97f4a7c15 }

// closeRun stops any worker goroutines the run's switch holds (a
// parallel fabric's pool), as the voqsim facade does after a run.
func closeRun(r *switchsim.Runner) {
	sw := r.Switch()
	if t, ok := sw.(tracedFabric); ok {
		sw = t.f
	}
	if c, ok := sw.(interface{ Close() error }); ok {
		c.Close()
	}
}

// runSeq times jobs of s until the deadline (at least three). Each job
// builds a fresh run — its build time is one set-up sample — and runs
// it to the end. Every job starts on a collected heap, so whether a
// collection falls inside it does not depend on the jobs before. The
// reference loop runs before the first job and after each one.
func runSeq(s seqSpec, seed uint64, seconds float64, hs *hostSpeed, l func(job int) *lane) *batchReport {
	rep := &batchReport{}
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	before := hs.slowdown()
	for job := 0; job < 3 || time.Since(start).Seconds() < seconds; job++ {
		var ln *lane
		if l != nil {
			ln = l(job)
		}
		runtime.GC()
		t0 := time.Now()
		r, err := s.build(jobSeed(seed, job), s.jobSlots, ln)
		if err != nil {
			rep.attempted++
			rep.fail("%s: build: %v", s.name, err)
			break
		}
		t1 := time.Now()
		runtime.ReadMemStats(&ms0)
		t2 := time.Now()
		res := r.Run("fifoms")
		t3 := time.Now()
		runtime.ReadMemStats(&ms1)
		closeRun(r)
		rep.mallocs += ms1.Mallocs - ms0.Mallocs
		rep.allocByte += ms1.TotalAlloc - ms0.TotalAlloc
		if ln != nil {
			ln.finish()
		}
		after := hs.slowdown()
		f := (before + after) / 2
		before = after
		rep.attempted++
		rate := float64(res.Slots) / t3.Sub(t2).Seconds()
		rep.setups = append(rep.setups, t1.Sub(t0).Seconds()/f)
		rep.rates = append(rep.rates, rate*f)
		rep.wallRates = append(rep.wallRates, rate)
		rep.slowdowns = append(rep.slowdowns, f)
		rep.totalSlot += res.Slots
		rep.digests = append(rep.digests, digest(res))
		if job == 0 {
			rep.first = res
		}
	}
	return rep
}

// ---- fig4-sweep ----

const fig4Slots = 10_000 // slots per grid point

func fig4Sweep(seed uint64, slots int64) *experiment.Sweep {
	return experiment.Fig4(experiment.Options{Slots: slots, Seed: seed, Workers: runtime.NumCPU()})
}

// pointLog times the grid points of a sweep from outside: a point
// starts when the sweep asks for its traffic pattern and ends when its
// Progress event arrives, both on the worker goroutine that runs it.
type pointLog struct {
	mu    sync.Mutex
	t0    time.Time
	open  map[int64]*pointRec
	recs  []*pointRec
	lanes *traceSet // non-nil: trace every point into its own lane
	keep  bool      // keep the lanes' spans verbatim
}

type pointRec struct {
	start, end float64 // seconds since t0
	lane       *lane
	done       bool
}

func newPointLog(lanes *traceSet, keep bool) *pointLog {
	return &pointLog{t0: time.Now(), open: map[int64]*pointRec{}, lanes: lanes, keep: keep}
}

func (p *pointLog) begin() *pointRec {
	rec := &pointRec{start: time.Since(p.t0).Seconds()}
	if p.lanes != nil {
		rec.lane = newLane("", p.keep)
		p.lanes.add(rec.lane)
	}
	g := goid()
	p.mu.Lock()
	p.open[g] = rec
	p.recs = append(p.recs, rec)
	p.mu.Unlock()
	return rec
}

func (p *pointLog) current() *pointRec {
	g := goid()
	p.mu.Lock()
	defer p.mu.Unlock()
	rec := p.open[g]
	if rec == nil {
		panic("perfbench: switch built outside a grid point")
	}
	return rec
}

func (p *pointLog) progress(ev experiment.Progress) {
	now := time.Since(p.t0).Seconds()
	g := goid()
	p.mu.Lock()
	defer p.mu.Unlock()
	if rec := p.open[g]; rec != nil {
		rec.end, rec.done = now, true
		if rec.lane != nil {
			rec.lane.label = ev.Label
			rec.lane.finish()
		}
		delete(p.open, g)
	}
}

// instrument hooks the sweep's pattern function, algorithm
// constructors and progress sink into the log; with lanes, it also
// wraps every layer.
func (p *pointLog) instrument(sw *experiment.Sweep) {
	pat := sw.Pattern
	sw.Pattern = func(load float64, n int) (traffic.Pattern, error) {
		rec := p.begin()
		tp, err := pat(load, n)
		if err != nil || rec.lane == nil {
			return tp, err
		}
		return tracedPattern{Pattern: tp, laneFor: func() *lane { return rec.lane }}, nil
	}
	if p.lanes != nil {
		for i, a := range sw.Algorithms {
			sw.Algorithms[i] = tracedAlgorithm(a, false, func() *lane { return p.current().lane })
		}
	}
	sw.Progress = p.progress
}

// sweepStats derives the sweep-engine metrics from the point log.
type sweepStats struct {
	pointP50, pointMax, busyFrac, tail float64
}

func (p *pointLog) stats(workers int) sweepStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var durs []float64
	type ev struct {
		t float64
		d int
	}
	var evs []ev
	sum := 0.0
	for _, r := range p.recs {
		if !r.done {
			continue
		}
		d := r.end - r.start
		durs = append(durs, d)
		sum += d
		evs = append(evs, ev{r.start, +1}, ev{r.end, -1})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	var wall float64
	if len(evs) > 0 {
		wall = evs[len(evs)-1].t - evs[0].t
	}
	// tail: time inside [first start, last end] with fewer than all
	// workers busy.
	tail, busy := 0.0, 0
	for i, e := range evs {
		if i > 0 && busy < workers {
			tail += e.t - evs[i-1].t
		}
		busy += e.d
	}
	sort.Float64s(durs)
	st := sweepStats{pointP50: median(durs), tail: tail}
	if len(durs) > 0 {
		st.pointMax = durs[len(durs)-1]
	}
	if wall > 0 && workers > 0 {
		st.busyFrac = sum / (float64(workers) * wall)
	}
	return st
}

// fig4Setup is the per-point set-up of the whole grid — pattern,
// switch with its arena, runner and sources for every cell — built
// through the sweep's own constructors, outside the timed sweeps.
func fig4Setup(seed uint64) (float64, error) {
	sw := fig4Sweep(seed, fig4Slots)
	t0 := time.Now()
	for _, a := range sw.Algorithms {
		for _, load := range sw.Loads {
			pat, err := sw.Pattern(load, sw.N)
			if err != nil {
				return 0, err
			}
			root := xrand.New(seed)
			s := a.New(sw.N, root.Split("run-switch", 0))
			switchsim.New(s, pat, switchsim.Config{Slots: sw.Slots, Seed: seed}, root.Split("run-traffic", 0))
		}
	}
	return time.Since(t0).Seconds(), nil
}

// sweepSlots sums the slots simulated over a table's points.
func sweepSlots(t *experiment.Table) int64 {
	var n int64
	for _, row := range t.Points {
		for _, pt := range row {
			n += pt.Results.Slots
		}
	}
	return n
}

// runFig4 times whole Figure 4 sweeps until the deadline (at least
// three). A point that could not run counts as failed.
func runFig4(seed uint64, seconds float64, hs *hostSpeed, log func(job int) *pointLog) *batchReport {
	rep := &batchReport{}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	before := hs.slowdown()
	for job := 0; job < 3 || time.Since(start).Seconds() < seconds; job++ {
		sw := fig4Sweep(jobSeed(seed, job), fig4Slots)
		if log != nil {
			if pl := log(job); pl != nil {
				pl.instrument(sw)
			}
		}
		runtime.GC()
		t0 := time.Now()
		tbl, err := sw.Run()
		dt := time.Since(t0).Seconds()
		if err != nil {
			rep.attempted++
			rep.fail("fig4-sweep: %v", err)
			break
		}
		after := hs.slowdown()
		f := (before + after) / 2
		before = after
		slots := sweepSlots(tbl)
		rate := float64(slots) / dt
		rep.rates = append(rep.rates, rate*f)
		rep.wallRates = append(rep.wallRates, rate)
		rep.slowdowns = append(rep.slowdowns, f)
		rep.totalSlot += slots
		for _, row := range tbl.Points {
			for _, pt := range row {
				rep.attempted++
				if pt.Skipped != "" {
					rep.fail("fig4-sweep: %s@%g skipped: %s", pt.Algorithm, pt.Load, pt.Skipped)
				}
			}
		}
		rep.digests = append(rep.digests, digest(tbl))
	}
	runtime.ReadMemStats(&ms1)
	rep.mallocs = ms1.Mallocs - ms0.Mallocs
	rep.allocByte = ms1.TotalAlloc - ms0.TotalAlloc
	return rep
}

// fig4Checked runs a short checked sweep and the same sweep unchecked,
// and reports invariant violations or any difference between them.
func fig4Checked(seed uint64) error {
	const slots = 2000
	plain, err := fig4Sweep(seed, slots).Run()
	if err != nil {
		return err
	}
	sw := fig4Sweep(seed, slots)
	sw.Check = true
	checked, err := sw.Run()
	if err != nil {
		return err
	}
	if f := checked.CheckFailures(); len(f) > 0 {
		return fmt.Errorf("fig4-sweep: invariant checker: %v", f)
	}
	if digest(plain) != digest(checked) {
		return fmt.Errorf("fig4-sweep: checked sweep differs from the unchecked sweep")
	}
	return nil
}
