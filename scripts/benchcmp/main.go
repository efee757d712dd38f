// Command benchcmp compares two `go test -bench` output files and
// fails loudly on performance regressions. It is a dependency-free
// stand-in for benchstat, sized for the CI benchmark-smoke job: parse
// both files, aggregate repeated runs of each benchmark, and exit
// non-zero if any benchmark got slower (ns/op) by more than the
// threshold or started allocating where it previously did not.
//
// Usage:
//
//	benchcmp [-threshold 10] old.txt new.txt
//	benchcmp -scaling bench.txt
//
// Aggregation takes the minimum ns/op across -count repetitions: on a
// noisy shared runner the minimum is the least-contaminated estimate
// of the code's true cost, and comparing minima keeps scheduler noise
// from failing (or masking) a comparison. allocs/op takes the maximum,
// since a single allocating run is already a correctness signal.
//
// -scaling reads a single file and reports per-core scaling instead of
// a regression diff: benchmarks whose name carries a /workers=K
// sub-benchmark (e.g. BenchmarkReplicatedSweep/workers=4) are
// grouped, and each worker count is compared against the group's
// workers=1 row — speedup (t1/tK) and parallel efficiency
// (speedup/K). Groups without a workers=1 baseline are listed without
// ratios. Informational only: scaling depends on the host's core
// count, so the mode never fails a build over a ratio.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	ns     float64 // min ns/op seen
	allocs int64   // max allocs/op seen
	bytes  int64   // max B/op seen
	runs   int
}

// parseFile reads one `go test -bench` output stream, returning the
// aggregated result per benchmark name (with the -GOMAXPROCS suffix
// kept, so n=64-8 and n=64-1 never silently compare against each
// other).
func parseFile(path string) (map[string]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := make(map[string]*result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		r := out[name]
		if r == nil {
			r = &result{ns: -1}
			out[name] = r
		}
		// Walk "<value> <unit>" pairs after the iteration count.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q on line %q", path, fields[i], sc.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				if r.ns < 0 || v < r.ns {
					r.ns = v
				}
			case "allocs/op":
				if a := int64(v); a > r.allocs {
					r.allocs = a
				}
			case "B/op":
				if b := int64(v); b > r.bytes {
					r.bytes = b
				}
			}
		}
		r.runs++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// compare writes a delta table to w — ending with a geomean speedup
// row over the common benchmarks — and returns the names of
// benchmarks that regressed beyond thresholdPct (time) or regressed
// from zero to non-zero allocations.
func compare(w io.Writer, old, new map[string]*result, thresholdPct float64) []string {
	names := make([]string, 0, len(old))
	for name := range old {
		if _, ok := new[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var regressed []string
	var logSum float64
	var logN int
	fmt.Fprintf(w, "%-60s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, name := range names {
		o, n := old[name], new[name]
		delta := 0.0
		if o.ns > 0 {
			delta = (n.ns - o.ns) / o.ns * 100
		}
		if o.ns > 0 && n.ns > 0 {
			logSum += math.Log(o.ns / n.ns)
			logN++
		}
		mark := ""
		if delta > thresholdPct {
			mark = "  << REGRESSION"
			regressed = append(regressed, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%, threshold %+.1f%%)",
				name, o.ns, n.ns, delta, thresholdPct))
		}
		if o.allocs == 0 && n.allocs > 0 {
			mark = "  << ALLOC REGRESSION"
			regressed = append(regressed, fmt.Sprintf("%s: 0 -> %d allocs/op", name, n.allocs))
		}
		fmt.Fprintf(w, "%-60s %14.0f %14.0f %+7.1f%%%s\n", name, o.ns, n.ns, delta, mark)
	}
	if logN > 0 {
		// The geomean of per-benchmark old/new time ratios: >1 means the
		// new side is faster overall; the symmetric aggregate benchstat
		// reports, immune to one benchmark dominating an arithmetic mean.
		speedup := math.Exp(logSum / float64(logN))
		fmt.Fprintf(w, "%-60s %38.3fx (%+.1f%%)\n",
			fmt.Sprintf("geomean speedup (%d benchmarks)", logN), speedup, (speedup-1)*100)
	}

	// Benchmarks present on only one side are reported but never fatal:
	// renames and additions are routine.
	for name := range old {
		if _, ok := new[name]; !ok {
			fmt.Fprintf(w, "%-60s only in old file\n", name)
		}
	}
	for name := range new {
		if _, ok := old[name]; !ok {
			fmt.Fprintf(w, "%-60s only in new file\n", name)
		}
	}
	return regressed
}

// splitWorkers recognises a /workers=K sub-benchmark component in a
// benchmark name, returning the group key (the name with that
// component removed, -GOMAXPROCS suffix preserved) and K.
func splitWorkers(name string) (group string, workers int, ok bool) {
	segs := strings.Split(name, "/")
	for i, s := range segs {
		v, found := strings.CutPrefix(s, "workers=")
		if !found {
			continue
		}
		suffix := ""
		if j := strings.IndexByte(v, '-'); j >= 0 {
			suffix, v = v[j:], v[:j]
		}
		k, err := strconv.Atoi(v)
		if err != nil || k <= 0 {
			continue
		}
		rest := append(append([]string{}, segs[:i]...), segs[i+1:]...)
		return strings.Join(rest, "/") + suffix, k, true
	}
	return "", 0, false
}

// scaling writes the per-core scaling table for every /workers=K group
// in res and returns the number of groups found.
func scaling(w io.Writer, res map[string]*result) int {
	type row struct {
		workers int
		ns      float64
	}
	groups := make(map[string][]row)
	for name, r := range res {
		if g, k, ok := splitWorkers(name); ok {
			groups[g] = append(groups[g], row{k, r.ns})
		}
	}
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-52s %8s %14s %9s %11s\n", "benchmark", "workers", "ns/op", "speedup", "efficiency")
	for _, g := range names {
		rows := groups[g]
		sort.Slice(rows, func(i, j int) bool { return rows[i].workers < rows[j].workers })
		base := 0.0
		for _, r := range rows {
			if r.workers == 1 {
				base = r.ns
			}
		}
		for _, r := range rows {
			if base > 0 && r.ns > 0 {
				speedup := base / r.ns
				fmt.Fprintf(w, "%-52s %8d %14.0f %8.2fx %10.0f%%\n",
					g, r.workers, r.ns, speedup, speedup/float64(r.workers)*100)
			} else {
				fmt.Fprintf(w, "%-52s %8d %14.0f %9s %11s\n", g, r.workers, r.ns, "-", "-")
			}
		}
	}
	return len(groups)
}

func main() {
	threshold := flag.Float64("threshold", 10, "fail when ns/op grows by more than this percentage")
	scalingMode := flag.Bool("scaling", false, "read one file and report /workers=K per-core scaling instead of a diff")
	flag.Parse()
	if *scalingMode {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: benchcmp -scaling bench.txt")
			os.Exit(2)
		}
		res, err := parseFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			os.Exit(2)
		}
		if scaling(os.Stdout, res) == 0 {
			fmt.Fprintln(os.Stderr, "benchcmp: no /workers=K benchmarks found; was -bench run against the parallel benchmarks?")
			os.Exit(2)
		}
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-threshold pct] old.txt new.txt")
		os.Exit(2)
	}
	old, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	new, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	if len(old) == 0 || len(new) == 0 {
		fmt.Fprintln(os.Stderr, "benchcmp: no benchmark results parsed; was -bench run with -run '^$'?")
		os.Exit(2)
	}
	regressed := compare(os.Stdout, old, new, *threshold)
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchcmp: %d regression(s):\n", len(regressed))
		for _, r := range regressed {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(1)
	}
}
