package main

import (
	"strings"
	"testing"
)

func TestTallyAllPass(t *testing.T) {
	var tl tally
	for i := 1; i <= 3; i++ {
		tl.add(i, false, []byte("ok\n"))
	}
	var b strings.Builder
	tl.report(&b, "./pkg")
	if got, want := b.String(), "stress: ./pkg: 0/3 runs failed (0.0%)\n"; got != want {
		t.Fatalf("report = %q, want %q", got, want)
	}
}

func TestTallyKeepsFirstFailure(t *testing.T) {
	var tl tally
	tl.add(1, false, []byte("ok\n"))
	tl.add(2, true, []byte("--- FAIL: TestA\n"))
	tl.add(3, false, []byte("ok\n"))
	tl.add(4, true, []byte("--- FAIL: TestB\n"))
	if tl.runs != 4 || tl.failed != 2 {
		t.Fatalf("runs/failed = %d/%d, want 4/2", tl.runs, tl.failed)
	}
	var b strings.Builder
	tl.report(&b, "./pkg")
	want := "stress: ./pkg: 2/4 runs failed (50.0%)\nfirst failure (run 2):\n--- FAIL: TestA\n"
	if b.String() != want {
		t.Fatalf("report = %q, want %q", b.String(), want)
	}
}

func TestTallyEmpty(t *testing.T) {
	var tl tally
	var b strings.Builder
	tl.report(&b, "x")
	if !strings.Contains(b.String(), "0/0 runs failed (0.0%)") {
		t.Fatalf("empty report = %q", b.String())
	}
}
