// Command stress reruns one package's tests many times to measure how
// often they fail. Each run is a separate `go test -count=1` process,
// started only after the previous one exits, so runs never compete for
// the CPU with each other.
//
// Usage:
//
//	go run ./scripts/stress -n 200 [-race] [-gomaxprocs 2] [-run RE] ./internal/sched/islip/
//
// It prints the failure rate and the output of the first failing run,
// and exits 1 if any run failed (2 on a usage error). -gomaxprocs sets
// GOMAXPROCS for the test processes; -race and -run are passed through
// to go test.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// tally accumulates the outcome of the runs.
type tally struct {
	runs, failed int
	firstRun     int    // 1-based index of the first failing run
	firstOut     string // its combined output
}

// add records run i (1-based): failed reports whether it failed, out is
// its combined output, kept only for the first failure.
func (t *tally) add(i int, failed bool, out []byte) {
	t.runs++
	if !failed {
		return
	}
	t.failed++
	if t.failed == 1 {
		t.firstRun, t.firstOut = i, string(out)
	}
}

// report writes the failure rate and, if any run failed, the first
// failing output.
func (t *tally) report(w io.Writer, pkg string) {
	rate := 0.0
	if t.runs > 0 {
		rate = 100 * float64(t.failed) / float64(t.runs)
	}
	fmt.Fprintf(w, "stress: %s: %d/%d runs failed (%.1f%%)\n", pkg, t.failed, t.runs, rate)
	if t.failed > 0 {
		fmt.Fprintf(w, "first failure (run %d):\n%s", t.firstRun, t.firstOut)
	}
}

func main() {
	n := flag.Int("n", 100, "number of runs")
	race := flag.Bool("race", false, "run with the race detector")
	procs := flag.Int("gomaxprocs", 0, "GOMAXPROCS for the test processes (0: inherit)")
	run := flag.String("run", "", "go test -run pattern")
	flag.Parse()
	if flag.NArg() != 1 || *n < 1 {
		fmt.Fprintln(os.Stderr, "usage: stress -n N [-race] [-gomaxprocs K] [-run RE] PKG")
		os.Exit(2)
	}
	pkg := flag.Arg(0)

	args := []string{"test", "-count=1"}
	if *race {
		args = append(args, "-race")
	}
	if *run != "" {
		args = append(args, "-run", *run)
	}
	args = append(args, pkg)
	env := os.Environ()
	if *procs > 0 {
		env = append(env, "GOMAXPROCS="+strconv.Itoa(*procs))
	}

	var t tally
	for i := 1; i <= *n; i++ {
		cmd := exec.Command("go", args...)
		cmd.Env = env
		out, err := cmd.CombinedOutput()
		t.add(i, err != nil, out)
	}
	t.report(os.Stdout, pkg)
	if t.failed > 0 {
		os.Exit(1)
	}
}
