package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"voqsim/internal/daemon"
	"voqsim/internal/destset"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// The voqd-loopback workload runs the built voqd at its defaults (n=8,
// fifoms, 20 µs slot period) in its own process and feeds it from an
// open-loop generator in this process over loopback: one send socket,
// one receive socket subscribed to every output. The generator offers
// Bernoulli b=0.2 traffic at model load 0.8 with 64-byte payloads at
// fixed absolute frame rates, spacing frames evenly; every copy is
// timed from its frame's due time, so a stalled sender or daemon shows
// as latency instead of silently lowering the offered rate.

// Fixed offered rates in frames per second (also in BENCHMARK.json).
// On a 2-CPU host the seed's loss-free knee is about 65k frames/s.
const (
	rateMid  float64 = 30_000 // about half the knee: latency with headroom
	rateHi   float64 = 55_000 // about 85% of the knee: latency as the daemon fills
	rateOver float64 = 85_000 // about 1.3x the knee: goodput under overload
)

// ladder is the capacity search's rungs, frames per second.
var ladder = []float64{40_000, 50_000, 60_000, 65_000, 70_000, 75_000, 80_000, 90_000, 100_000}

const (
	loadgenPayload = 64
	maxLossFrac    = 0.001 // a ladder rung passes with at most 0.1% copies lost
	maxLagMs       = 50.0  // a paced trial whose sender ran later than this (p99) is invalid
	minOverRate    = 0.75  // an overload trial must offer at least this share of its rate (above the knee)
	overDaemons    = 4     // daemons the untraced overload trials are spread over
)

// voqdProc is a running voqd.
type voqdProc struct {
	cmd     *exec.Cmd
	ingress []*net.UDPAddr
	admin   string
	ready   time.Time
	done    chan error
}

// startVoqd spawns voqd at its defaults and returns once it printed its
// READY line, with the time that took.
func startVoqd(bin string) (*voqdProc, float64, error) {
	cmd := exec.Command(bin)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start voqd: %w", err)
	}
	p := &voqdProc{cmd: cmd, done: make(chan error, 1)}
	lines := bufio.NewReader(out)
	line, err := lines.ReadString('\n')
	p.ready = time.Now()
	setup := p.ready.Sub(t0).Seconds()
	go func() {
		io.Copy(io.Discard, lines) // the DONE line at exit
		p.done <- cmd.Wait()
	}()
	if err != nil || !strings.HasPrefix(line, "READY ") {
		p.stop()
		return nil, 0, fmt.Errorf("voqd did not print READY (got %q): %v", line, err)
	}
	for _, f := range strings.Fields(line)[1:] {
		k, v, _ := strings.Cut(f, "=")
		switch k {
		case "ingress":
			for _, a := range strings.Split(v, ",") {
				ua, err := net.ResolveUDPAddr("udp", a)
				if err != nil {
					p.stop()
					return nil, 0, err
				}
				p.ingress = append(p.ingress, ua)
			}
		case "admin":
			p.admin = v
		}
	}
	if len(p.ingress) == 0 || p.admin == "" {
		p.stop()
		return nil, 0, fmt.Errorf("voqd READY line lacks ingress or admin: %q", line)
	}
	return p, setup, nil
}

// stop terminates voqd and waits for it to exit.
func (p *voqdProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *voqdProc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// cpuSeconds reads a process's CPU time, summed over its threads'
// /proc schedstat in nanoseconds (the tick-based utime and stime would
// quantize a trial's CPU time to 10 ms).
func cpuSeconds(pid string) float64 {
	tasks, _ := filepath.Glob(filepath.Join("/proc", pid, "task", "*", "schedstat"))
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
	}
	return ns / 1e9
}

func (p *voqdProc) metrics() (daemon.MetricsSnapshot, error) {
	var m daemon.MetricsSnapshot
	resp, err := http.Get("http://" + p.admin + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func (p *voqdProc) subscribe(addr *net.UDPAddr) error {
	resp, err := http.Post(fmt.Sprintf("http://%s/subscribe?out=all&addr=%s", p.admin, url.QueryEscape(addr.String())), "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/subscribe: %s", resp.Status)
	}
	return nil
}

// ---- generator and receiver ----

// sentFrame is one generated data frame: its input, sequence number,
// destination set, and the times it was due and actually sent (ns on
// the benchmark clock).
type sentFrame struct {
	in        int
	seq       uint64
	dests     uint64 // bit i: output i
	due, sent int64
}

// copyObs is one delivery frame the receiver read.
type copyObs struct {
	src, out int
	seq      uint64
	at       int64
	bad      bool
}

type receiver struct {
	conn *net.UDPConn
	mu   sync.Mutex
	obs  []copyObs
	done chan struct{}
}

func newReceiver() (*receiver, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	conn.SetReadBuffer(4 << 20)
	r := &receiver{conn: conn, done: make(chan struct{})}
	go r.loop()
	return r, nil
}

func (r *receiver) loop() {
	defer close(r.done)
	buf := make([]byte, 65536)
	for {
		m, _, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		at := nanotime()
		d, err := daemon.ParseDelivery(buf[:m])
		o := copyObs{src: d.Src, out: d.Out, seq: d.Seq, at: at, bad: err != nil || daemon.VerifyPayload(d) != nil}
		r.mu.Lock()
		r.obs = append(r.obs, o)
		r.mu.Unlock()
	}
}

// take hands over the observations so far.
func (r *receiver) take() []copyObs {
	r.mu.Lock()
	defer r.mu.Unlock()
	o := r.obs
	r.obs = nil
	return o
}

func (r *receiver) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.obs)
}

func (r *receiver) close() {
	r.conn.Close()
	<-r.done
}

// fillPayload writes the payload voqd's receivers verify
// (daemon.VerifyPayload): byte j is the low byte of src+seq+j.
func fillPayload(dst []byte, src int, seq uint64) {
	for j := range dst {
		dst[j] = byte(uint64(src) + seq + uint64(j))
	}
}

// schedule draws a trial's frames from the traffic model and assigns
// frame k the due time start + k/rate.
func schedule(n int, seed uint64, trial int, rate, seconds float64, seqs []uint64, start int64) ([]sentFrame, error) {
	pat, err := traffic.BernoulliAtLoad(0.8, 0.2, n)
	if err != nil {
		return nil, err
	}
	sources := traffic.BuildSources(pat, n, xrand.New(seed).Split("loadgen", trial))
	total := max(1, int(rate*seconds))
	frames := make([]sentFrame, 0, total)
	d := destset.New(n)
	for slot := int64(0); len(frames) < total; slot++ {
		for in := 0; in < n && len(frames) < total; in++ {
			if !sources[in].(traffic.IntoSource).NextInto(slot, d) {
				continue
			}
			var mask uint64
			d.ForEach(func(out int) { mask |= 1 << uint(out) })
			k := len(frames)
			frames = append(frames, sentFrame{in: in, seq: seqs[in], dests: mask,
				due: start + int64(float64(k)*1e9/rate)})
			seqs[in]++
		}
	}
	return frames, nil
}

// send writes every frame at (or as soon as possible after) its due
// time. It never waits for the daemon: the loop is open.
func send(conn *net.UDPConn, targets []*net.UDPAddr, frames []sentFrame) error {
	n := len(targets)
	bitmap := make([]byte, (n+7)/8)
	payload := make([]byte, loadgenPayload)
	buf := make([]byte, 0, 128)
	for i := range frames {
		f := &frames[i]
		if wait := f.due - nanotime(); wait > 200_000 {
			time.Sleep(time.Duration(wait))
		}
		for b := range bitmap {
			bitmap[b] = byte(f.dests >> (8 * uint(b)))
		}
		fillPayload(payload, f.in, f.seq)
		buf = daemon.AppendData(buf[:0], f.in, f.seq, n, bitmap, payload)
		f.sent = nanotime()
		if _, err := conn.WriteToUDP(buf, targets[f.in]); err != nil {
			return fmt.Errorf("send to input %d: %w", f.in, err)
		}
	}
	return nil
}

// trialResult is what one offered-rate trial measured.
type trialResult struct {
	rate                float64
	frames, copies      int64 // offered
	received, dups, bad int64 // unique copies delivered, duplicates, corrupt
	completed           int64 // frames with every copy delivered
	lostFrames          int64 // frames none of whose copies arrived
	lostFrameCopies     int64 // the copies those frames addressed
	sendSeconds         float64
	latMs               []float64 // per copy, from due time; sorted
	lagMs               []float64 // per frame, sent minus due; sorted
	before, after       daemon.MetricsSnapshot
	cpuDaemon, cpuLoad  float64 // CPU seconds during the trial
	wall                float64
	peakLag             int64 // slots the daemon's clock trailed wall time, sampled mid-trial
}

func (t *trialResult) lost() int64 { return t.copies - t.received }

func (t *trialResult) lossFrac() float64 { return ratio(t.lost(), t.copies) }

// goodput is complete frames delivered per second of sending.
func (t *trialResult) goodput() float64 { return float64(t.completed) / t.sendSeconds }

// framesPerCPU is the frames voqd read per second of its own CPU time:
// its capacity per core while it is saturated. It is not scaled to
// reference speed: the reference loop, run in this process while voqd
// idles, did not track it (within one run the scaled figure spread 20%
// across trials, the unscaled one 8%).
func (t *trialResult) framesPerCPU() float64 {
	return float64(t.after.Daemon.RecvFrames-t.before.Daemon.RecvFrames) / t.cpuDaemon
}

// voqdBench is one benchmark session against one voqd.
type voqdBench struct {
	p       *voqdProc
	rx      *receiver
	tx      *net.UDPConn
	seed    uint64
	trials  int
	seqs    []uint64
	sample  bool // traced: also read /metrics halfway through each trial
	lagBase int64
}

// runTrial offers rate for seconds, waits for the deliveries to stop,
// and matches every delivered copy to its frame.
func (b *voqdBench) runTrial(rate, seconds float64) (*trialResult, error) {
	n := len(b.p.ingress)
	tr := &trialResult{rate: rate}
	var err error
	if tr.before, err = b.p.metrics(); err != nil {
		return nil, err
	}
	b.rx.take()
	frames, err := schedule(n, b.seed, b.trials, rate, seconds, b.seqs, 0)
	if err != nil {
		return nil, err
	}
	b.trials++
	// The clock starts once the schedule is drawn, so drawing it never
	// makes the first frames late.
	start := nanotime() + 2_000_000
	for i := range frames {
		frames[i].due += start
	}
	cpuD0, cpuL0 := cpuSeconds(b.p.pid()), cpuSeconds("self")
	t0 := time.Now()
	var mid daemon.MetricsSnapshot
	var midAt time.Time
	var midErr error
	var wg sync.WaitGroup
	if b.sample {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(seconds / 2 * float64(time.Second)))
			midAt = time.Now()
			mid, midErr = b.p.metrics()
		}()
	}
	if err := send(b.tx, b.p.ingress, frames); err != nil {
		return nil, err
	}
	wg.Wait()
	tr.sendSeconds = float64(frames[len(frames)-1].sent-frames[0].due) / 1e9
	b.quiesce()
	tr.wall = time.Since(t0).Seconds()
	tr.cpuDaemon, tr.cpuLoad = cpuSeconds(b.p.pid())-cpuD0, cpuSeconds("self")-cpuL0
	if b.sample {
		if midErr != nil {
			return nil, midErr
		}
		tr.peakLag = b.slotLag(mid, midAt)
	}
	if tr.after, err = b.p.metrics(); err != nil {
		return nil, err
	}
	b.account(tr, frames, b.rx.take())
	return tr, nil
}

// slotLag is how many slots the daemon's clock trailed wall time when
// snapshot m was taken at t, relative to the idle baseline.
func (b *voqdBench) slotLag(m daemon.MetricsSnapshot, t time.Time) int64 {
	due := int64(t.Sub(b.p.ready) / (20 * time.Microsecond))
	return due - m.Slot - b.lagBase
}

// quiesce waits until no delivery arrived for 60 ms (at most 2 s).
func (b *voqdBench) quiesce() {
	deadline := time.Now().Add(2 * time.Second)
	last, still := -1, 0
	for time.Now().Before(deadline) && still < 3 {
		time.Sleep(20 * time.Millisecond)
		if c := b.rx.count(); c == last {
			still++
		} else {
			last, still = c, 0
		}
	}
}

// account matches delivered copies to frames: unique, duplicate and
// corrupt copies, per-copy latency from the frame's due time, and the
// sender's lateness.
func (b *voqdBench) account(tr *trialResult, frames []sentFrame, obs []copyObs) {
	n := len(b.p.ingress)
	// Index frames by (input, seq); seqs are dense per input.
	first := make([]uint64, n)
	have := make([]bool, n)
	for _, f := range frames {
		if !have[f.in] {
			first[f.in], have[f.in] = f.seq, true
		}
	}
	byIn := make([][]int32, n)
	for i, f := range frames {
		byIn[f.in] = append(byIn[f.in], int32(i))
	}
	got := make([]uint64, len(frames))
	tr.frames = int64(len(frames))
	for _, f := range frames {
		tr.copies += int64(bits.OnesCount64(f.dests))
		tr.lagMs = append(tr.lagMs, float64(f.sent-f.due)/1e6)
	}
	for _, o := range obs {
		if o.bad || o.src < 0 || o.src >= n || !have[o.src] || o.seq < first[o.src] ||
			o.seq-first[o.src] >= uint64(len(byIn[o.src])) || o.out < 0 || o.out >= 64 {
			tr.bad++
			continue
		}
		fi := byIn[o.src][o.seq-first[o.src]]
		f := &frames[fi]
		bit := uint64(1) << uint(o.out)
		switch {
		case f.dests&bit == 0:
			tr.bad++
		case got[fi]&bit != 0:
			tr.dups++
		default:
			got[fi] |= bit
			tr.received++
			tr.latMs = append(tr.latMs, float64(o.at-f.due)/1e6)
			if got[fi] == f.dests {
				tr.completed++
			}
		}
	}
	for i, f := range frames {
		if got[i] == 0 {
			tr.lostFrames++
			tr.lostFrameCopies += int64(bits.OnesCount64(f.dests))
		}
	}
	sort.Float64s(tr.latMs)
	sort.Float64s(tr.lagMs)
}

// conservation checks the daemon's own accounting of a drained trial:
// every frame it read was admitted, ring-dropped or rejected; every
// admitted copy was delivered; every delivered copy was queued for
// egress or counted as an egress drop.
func conservation(tr *trialResult) error {
	a, z := tr.before.Daemon, tr.after.Daemon
	recv, bad, ring := z.RecvFrames-a.RecvFrames, z.BadFrames-a.BadFrames, z.RingDrops-a.RingDrops
	adm, admC, del := z.Admitted-a.Admitted, z.AdmittedCopies-a.AdmittedCopies, z.Delivered-a.Delivered
	egF, egD := z.EgressFrames-a.EgressFrames, z.EgressDrops-a.EgressDrops
	switch {
	case adm+ring+bad != recv:
		return fmt.Errorf("voqd read %d frames but admitted %d, ring-dropped %d, rejected %d", recv, adm, ring, bad)
	case del != admC:
		return fmt.Errorf("voqd admitted %d copies but delivered %d", admC, del)
	case egF+egD != del:
		return fmt.Errorf("voqd delivered %d copies but queued %d and dropped %d at egress", del, egF, egD)
	}
	return nil
}

// unexplained counts lost copies that no drop counter accounts for. A
// lost copy is explained when its whole frame was lost (a kernel drop
// at ingress, frames sent minus frames voqd read, or a counted ring
// drop) or when voqd counted an egress drop or our receive socket
// dropped it (datagrams voqd sent minus datagrams received). Frames
// lost whole beyond the ingress drops must each have had a copy
// dropped at egress.
func unexplained(tr *trialResult) int64 {
	a, z := tr.before.Daemon, tr.after.Daemon
	ingress := tr.frames - (z.RecvFrames - a.RecvFrames) + (z.RingDrops - a.RingDrops)
	egress := z.EgressDrops - a.EgressDrops + max(0, (z.EgressSends-a.EgressSends)-(tr.received+tr.dups+tr.bad))
	u := max(0, tr.lost()-egress-tr.lostFrameCopies)
	if extra := tr.lostFrames - ingress - egress; extra > 0 {
		u += extra
	}
	return u
}

// ---- the workload ----

func runVoqdWorkload(o options, r *run) error {
	if o.voqd == "" {
		return fmt.Errorf("--voqd (the built voqd binary) is required")
	}
	scale := o.seconds / 20

	// Set-up: spawn to READY, several times; keep the last daemon.
	hs := newHostSpeed(1)
	var p *voqdProc
	setups, err := hs.timeEach(11, func() (float64, error) {
		if p != nil {
			p.stop()
		}
		q, s, err := startVoqd(o.voqd)
		p = q
		return s, err
	})
	defer func() {
		if p != nil {
			p.stop()
		}
	}()
	if err != nil {
		return err
	}

	rx, err := newReceiver()
	if err != nil {
		return err
	}
	defer rx.close()
	if err := p.subscribe(rx.conn.LocalAddr().(*net.UDPAddr)); err != nil {
		return err
	}
	tx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer tx.Close()
	tx.SetWriteBuffer(4 << 20)

	b := &voqdBench{p: p, rx: rx, tx: tx, seed: o.seed, seqs: make([]uint64, len(p.ingress))}
	if o.trace {
		m, err := p.metrics()
		if err != nil {
			return err
		}
		b.lagBase = b.slotLag(m, time.Now())
	}
	// The mid and hi trials carry the output checks: every addressed
	// copy delivered exactly once with its payload intact.
	// Losses the daemon counted are its overload policy at work and are
	// measured (voqd.mid_loss_frac, voqd.hi_loss_frac); only copies that
	// no counter explains fail (see unexplained).
	mid, err := b.runTrial(rateMid, 3*scale)
	if err != nil {
		return err
	}
	b.validate(r, mid, "mid", false)
	hi, err := b.runTrial(rateHi, 3*scale)
	if err != nil {
		return err
	}
	b.validate(r, hi, "hi", false)

	if !o.trace {
		// The overload trials run on several daemons in turn, two
		// trials each. One daemon's frames per CPU-second repeat within
		// about 5%, but runs on one daemon each moved by up to 13%
		// between runs, likely with where the daemon's threads sat on
		// the unevenly busy CPUs; a median over several daemons
		// averages that out.
		var perCPU, rss []float64
		for d := 0; d < overDaemons; d++ {
			if d > 0 {
				p.stop()
				if p, _, err = startVoqd(o.voqd); err != nil {
					return err
				}
				if err := p.subscribe(rx.conn.LocalAddr().(*net.UDPAddr)); err != nil {
					return err
				}
				b.p = p
			}
			for i := 0; i < 2; i++ {
				tr, err := b.runTrial(rateOver, 1.5*scale)
				if err != nil {
					return err
				}
				b.validate(r, tr, "over", false)
				perCPU = append(perCPU, tr.framesPerCPU())
				r.note("over trial %d on daemon %d: %.0f frames/s offered (%.0f sent), %.0f complete frames/s, %.2f%% copies lost, %.0f frames per voqd CPU-second",
					i, d, rateOver, float64(tr.frames)/tr.sendSeconds, tr.goodput(), 100*tr.lossFrac(), perCPU[len(perCPU)-1])
			}
			mb, err := peakRSSMB(p.pid())
			if err != nil {
				return err
			}
			rss = append(rss, mb)
		}
		r.set("setup_s", median(setups), "s")
		r.set("throughput_per_s", median(perCPU), "1/s")
		r.set("peak_rss_mb", median(rss), "MB")
		r.note("mid (%.0f frames/s): %s; %.3f%% copies lost; sender p99 lateness %.2f ms", rateMid, latencySummary(mid.latMs), 100*mid.lossFrac(), percentile(mid.lagMs, 99))
		r.note("hi (%.0f frames/s): %s; %.3f%% copies lost; sender p99 lateness %.2f ms", rateHi, latencySummary(hi.latMs), 100*hi.lossFrac(), percentile(hi.lagMs, 99))
		return nil
	}

	zeroLayers(r)
	// An overload trial without the mid-trial sample is the baseline
	// for the tracing overhead; the sampled one also gives slot lag.
	plain, err := b.runTrial(rateOver, 2*scale)
	if err != nil {
		return err
	}
	b.validate(r, plain, "over", false)
	b.sample = true
	over, err := b.runTrial(rateOver, 2*scale)
	if err != nil {
		return err
	}
	b.validate(r, over, "over", false)
	capacity, err := b.capacity(r, scale)
	if err != nil {
		return err
	}

	p99used, p99, _ := tailPercentile(mid.latMs, 99)
	p99hiUsed, p99hi, _ := tailPercentile(hi.latMs, 99)
	r.set("voqd.capacity_fps", capacity, "frames/s")
	r.set("voqd.goodput_fps", over.goodput(), "frames/s")
	r.set("voqd.p50_ms", percentile(mid.latMs, 50), "ms")
	r.set("voqd.p99_ms", p99, "ms")
	r.set("voqd.p99_ms_hi", p99hi, "ms")
	r.set("voqd.mid_samples", float64(len(mid.latMs)), "count")
	r.set("voqd.hi_loss_frac", hi.lossFrac(), "ratio")
	r.set("voqd.mid_loss_frac", mid.lossFrac(), "ratio")
	r.note("latency at mid (%.0f frames/s): %s; voqd.p99_ms is p%g", rateMid, latencySummary(mid.latMs), p99used)
	r.note("latency at hi (%.0f frames/s): %s; voqd.p99_ms_hi is p%g", rateHi, latencySummary(hi.latMs), p99hiUsed)

	a, z := over.before.Daemon, over.after.Daemon
	recv := z.RecvFrames - a.RecvFrames
	r.set("daemon.cpu_us_per_frame", 1e6*over.cpuDaemon/float64(recv), "us/frame")
	r.set("daemon.ring_drops", float64(z.RingDrops-a.RingDrops), "count")
	r.set("daemon.egress_drops", float64(z.EgressDrops-a.EgressDrops), "count")
	r.set("daemon.backpressure_slots", float64(z.BackpressureSlots-a.BackpressureSlots), "count")
	r.set("daemon.datagrams_per_copy", ratio(z.EgressSends-a.EgressSends, z.Delivered-a.Delivered), "ratio")
	r.set("daemon.slot_lag", float64(over.peakLag), "slots")
	r.set("daemon.mean_copy_delay_slots", z.MeanCopyDelay, "slots")
	r.set("loadgen.lag_p99_ms", percentile(over.lagMs, 99), "ms")
	r.set("loadgen.cpu_frac", over.cpuLoad/over.wall, "ratio")
	r.set("trace_overhead", over.framesPerCPU()/plain.framesPerCPU(), "ratio")
	r.note("over (%.0f frames/s): %d frames read by voqd of %d sent, %d ring drops, %.2f%% copies lost",
		rateOver, recv, over.frames, z.RingDrops-a.RingDrops, 100*over.lossFrac())
	return nil
}

// validate applies the checks every trial must pass: no duplicate or
// corrupt copy and the daemon's own conservation. Unless ladder is set, the sender must also have
// kept to its schedule; a ladder rung it could not offer simply fails.
func (b *voqdBench) validate(r *run, tr *trialResult, name string, ladder bool) {
	r.attempted += 1 + tr.copies
	if u := unexplained(tr); u > 0 {
		r.failed += u
		r.problems = append(r.problems, fmt.Sprintf("voqd %s trial (%.0f frames/s): %d of %d lost copies explained by no drop counter",
			name, tr.rate, u, tr.lost()))
	}
	var why []string
	if tr.dups+tr.bad > 0 {
		why = append(why, fmt.Sprintf("%d duplicate and %d corrupt copies", tr.dups, tr.bad))
	}
	if g := generatorFault(tr); g != "" && !ladder {
		why = append(why, g)
	}
	if err := conservation(tr); err != nil {
		why = append(why, err.Error())
	}
	if len(why) > 0 {
		r.fail("voqd %s trial (%.0f frames/s): %s", name, tr.rate, strings.Join(why, "; "))
	}
}

// generatorFault reports a trial in which the generator, not voqd, set
// the pace: a paced trial whose sends ran late, or an overload trial
// that could not offer its rate.
func generatorFault(tr *trialResult) string {
	if tr.rate < rateOver {
		if lag := percentile(tr.lagMs, 99); lag > maxLagMs {
			return fmt.Sprintf("generator p99 lateness %.1f ms exceeds %.0f ms", lag, maxLagMs)
		}
	} else if sent := float64(tr.frames) / tr.sendSeconds; sent < minOverRate*tr.rate {
		return fmt.Sprintf("generator sent %.0f frames/s, under %.0f%% of the offered rate", sent, 100*minOverRate)
	}
	return ""
}

// capacity walks the ladder: the highest rung at which two trials in a
// row lose at most maxLossFrac of the copies.
func (b *voqdBench) capacity(r *run, scale float64) (float64, error) {
	passes := func(i int) (bool, error) {
		for k := 0; k < 2; k++ {
			tr, err := b.runTrial(ladder[i], scale)
			if err != nil {
				return false, err
			}
			b.validate(r, tr, "ladder", true)
			g := generatorFault(tr)
			r.note("ladder %.0f frames/s trial %d: %.3f%% copies lost %s", ladder[i], k, 100*tr.lossFrac(), g)
			if tr.lossFrac() > maxLossFrac || g != "" {
				return false, nil
			}
		}
		return true, nil
	}
	i := 2 // start at a rung below the seed's knee
	ok, err := passes(i)
	if err != nil {
		return 0, err
	}
	for !ok && i > 0 {
		i--
		if ok, err = passes(i); err != nil {
			return 0, err
		}
	}
	if !ok {
		return 0, nil
	}
	for i+1 < len(ladder) {
		up, err := passes(i + 1)
		if err != nil {
			return 0, err
		}
		if !up {
			break
		}
		i++
	}
	return ladder[i], nil
}

func latencySummary(sorted []float64) string {
	p, v, ok := tailPercentile(sorted, 99.9)
	if !ok {
		return fmt.Sprintf("%d copies, too few for a tail", len(sorted))
	}
	_, p99, _ := tailPercentile(sorted, 99)
	return fmt.Sprintf("%d copies, p50 %.3f ms, p99 %.3f ms, p%g %.3f ms", len(sorted), percentile(sorted, 50), p99, p, v)
}
