// Command perfbench is voqsim's benchmark: four workloads that each
// exercise different layers of the simulator and the voqd daemon, the
// end-to-end metrics a user sees, and (with --trace 1) a per-layer
// breakdown timed from outside the program. README.md in this directory
// describes the workloads, the metrics and how to run it.
//
//	perfbench --workload fig4-sweep --seed 1 --seconds 20 --trace 0
//	perfbench compare A.json B.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit status is non-zero when any output check failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// defaultSeed is the seed whose simulated statistics are pinned below.
const defaultSeed = 1

// pinnedDigests fingerprints every simulated statistic of the first
// timed run of each batch workload at defaultSeed. A change that alters
// what is simulated, not just how fast, fails the output check here.
var pinnedDigests = map[string]string{
	"fig4-sweep":    "e5bddfe4e468d39d",
	"fifoms-n256":   "e47f6dff6e519184",
	"fabric-clos16": "1d61dc0ee7b7aac8",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the saved form of one run (--out), which compare reads.
type record struct {
	Host     host     `json:"host"`
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Trace    int      `json:"trace"`
	Result   result   `json:"result"`
	Notes    []string `json:"notes,omitempty"`
}

// host identifies the machine and build a result was taken on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostRecord() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	h.Commit = commit()
	return h
}

// commit reads the checked-out commit from .git in the current
// directory, without looking above it: a checkout without .git (or a
// tree copied out of one) reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sameHost reports why two results must not be compared, or "".
func sameHost(a, b host) string {
	switch {
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("nproc %d vs %d", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("CPU %q vs %q", a.CPUModel, b.CPUModel)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion)
	}
	return ""
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS restarts the kernel's peak-RSS count of this process,
// so each job's peak can be read on its own. It reports false where
// the kernel does not support the reset.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// run is one invocation's output: metrics plus the checks behind
// correct/attempted/failed, and lines for the human-readable report.
type run struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
	notes     []string
}

func (r *run) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	voqd     string
	outDir   string
	out      string
}

var workloads = map[string]func(options, *run) error{
	"fig4-sweep":    runFig4Workload,
	"fifoms-n256":   func(o options, r *run) error { return runSeqWorkload(fifomsN256, o, r) },
	"fabric-clos16": func(o options, r *run) error { return runSeqWorkload(fabricClos16, o, r) },
	"voqd-loopback": runVoqdWorkload,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: fig4-sweep, fifoms-n256, fabric-clos16, voqd-loopback")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.voqd, "voqd", "", "built voqd binary (voqd-loopback)")
	flag.StringVar(&o.outDir, "out-dir", ".", "directory for span dumps")
	flag.StringVar(&o.out, "out", "", "also save the result with its host record to this file")
	flag.Parse()
	o.trace = trace == 1

	fn, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of fig4-sweep, fifoms-n256, fabric-clos16, voqd-loopback), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	h := hostRecord()
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n", h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Commit)
	fmt.Printf("workload: %s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, trace)

	r := &run{metrics: map[string]metric{}}
	if err := fn(o, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := r.metrics[m.name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not produce metric %s\n", o.workload, m.name)
			os.Exit(1)
		}
	}
	for name := range r.metrics {
		if !contains(want, name) {
			delete(r.metrics, name)
		}
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}

	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, p := range r.problems {
		fmt.Println("FAILED:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("fail_frac %.6g (%d failed of %d attempted)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if o.out != "" {
		b, _ := json.MarshalIndent(record{Host: h, Workload: o.workload, Seed: o.seed, Trace: trace, Result: res, Notes: r.notes}, "", "  ")
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// compare prints two saved results side by side, refusing results from
// different hosts.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p, err)
			return 2
		}
	}
	if why := sameHost(recs[0].Host, recs[1].Host); why != "" {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare results from different hosts: %s\n", why)
		return 3
	}
	if recs[0].Workload != recs[1].Workload || recs[0].Trace != recs[1].Trace {
		fmt.Fprintln(os.Stderr, "perfbench: results are of different workloads or trace modes")
		return 2
	}
	var names []string
	for n := range recs[0].Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %14s %14s %8s\n", "metric", args[0], args[1], "B/A")
	for _, n := range names {
		a, b := recs[0].Result.Metrics[n], recs[1].Result.Metrics[n]
		fmt.Printf("%-32s %14.6g %14.6g %8.3f %s\n", n, a.Value, b.Value, b.Value/a.Value, a.Unit)
	}
	return 0
}

type metricDef struct{ name, unit string }

func contains(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// endToEnd and perLayer are the metric sets of BENCHMARK.json; every
// workload reports all of them (a layer a workload does not use reads 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"traffic.ns_per_slot", "ns/slot"},
	{"traffic.share", "ratio"},
	{"traffic.arrivals_per_slot", "count/slot"},
	{"core.match_ns_per_slot", "ns/slot"},
	{"core.match_share", "ratio"},
	{"core.step_self_ns_per_slot", "ns/slot"},
	{"core.arrive_ns_per_pkt", "ns/pkt"},
	{"core.rounds_per_slot", "count/slot"},
	{"islip.match_share", "ratio"},
	{"tatra.step_share", "ratio"},
	{"oq.step_share", "ratio"},
	{"switchsim.self_ns_per_slot", "ns/slot"},
	{"switchsim.allocs_per_slot", "count/slot"},
	{"switchsim.alloc_bytes_per_slot", "B/slot"},
	{"fabric.step_ns_per_slot", "ns/slot"},
	{"fabric.node_step_ns_per_slot", "ns/slot"},
	{"fabric.self_ns_per_slot", "ns/slot"},
	{"fabric.serial_share", "ratio"},
	{"fabric.node_step_max_ns", "ns"},
	{"fabric.hop_mean", "count"},
	{"fabric.drops", "count"},
	{"experiment.point_p50_s", "s"},
	{"experiment.point_max_s", "s"},
	{"experiment.worker_busy_frac", "ratio"},
	{"experiment.tail_s", "s"},
	{"daemon.cpu_us_per_frame", "us/frame"},
	{"daemon.ring_drops", "count"},
	{"daemon.egress_drops", "count"},
	{"daemon.backpressure_slots", "count"},
	{"daemon.datagrams_per_copy", "ratio"},
	{"daemon.slot_lag", "slots"},
	{"daemon.mean_copy_delay_slots", "slots"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.cpu_frac", "ratio"},
	{"voqd.capacity_fps", "frames/s"},
	{"voqd.goodput_fps", "frames/s"},
	{"voqd.p50_ms", "ms"},
	{"voqd.p99_ms", "ms"},
	{"voqd.p99_ms_hi", "ms"},
	{"voqd.mid_samples", "count"},
	{"voqd.mid_loss_frac", "ratio"},
	{"voqd.hi_loss_frac", "ratio"},
	{"trace_overhead", "ratio"},
}

// zeroLayers sets every per-layer metric to 0, for the layers a
// workload never reaches.
func zeroLayers(r *run) {
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
}
