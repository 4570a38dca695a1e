package main

// The fixture pair in testdata exercises every compare verdict: a row
// within tolerance on both axes (whose advisory allocs_per_attempt and
// bytes_per_attempt got several times worse — benchdiff must ignore them;
// allocation is gated by the budget test in internal/engine), a throughput
// regression, a wall-clock regression at a healthy attempt rate (the
// stress-tier case the wall_ms axis exists for), a noisy row shielded by
// the min-attempts guard, a row missing from the fresh run, and a row new
// in it.

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareFixturePair(t *testing.T) {
	base, order, err := load(filepath.Join("testdata", "baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, freshOrder, err := load(filepath.Join("testdata", "fresh.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	failed := compare(&out, base, fresh, order, freshOrder, 2, 1000)
	got := out.String()
	t.Log("\n" + got)

	if failed != 3 {
		t.Errorf("failed = %d, want 3 (rate regression, wall regression, missing row)", failed)
	}
	wantLines := []struct{ prefix, contains string }{
		{"ok", "steady / n=3"},                     // within tolerance on both axes; alloc columns ignored
		{"FAIL", "steady / n=4"},                   // throughput regression
		{"FAIL", "steady / n=5"},                   // wall-clock regression
		{"ok", "noisy / tiny"},                     // min-attempts noise guard
		{"FAIL", "steady / dropped"},               // lost coverage
		{"new", "stress / procs=8"},                // fresh-only row passes
		{"FAIL", "3.0x longer, tolerance 2.0x"},    // wall verdict states the axis
		{"FAIL", "5.0x slower, tolerance 2.0x"},    // rate verdict states the axis
		{"ok", "below min-attempts, not compared"}, // guard is explicit
	}
	for _, w := range wantLines {
		found := false
		for _, line := range strings.Split(got, "\n") {
			if strings.HasPrefix(line, w.prefix) && strings.Contains(line, w.contains) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %q line containing %q in output", w.prefix, w.contains)
		}
	}
	// The wall-regression row must fail on wall, not rate: its rate is fine.
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "steady / n=5") && strings.Contains(line, "slower") {
			t.Errorf("n=5 failed on rate, want wall_ms: %s", line)
		}
	}
}

func TestCompareWallWithinTolerancePasses(t *testing.T) {
	base, order, err := load(filepath.Join("testdata", "baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, freshOrder, err := load(filepath.Join("testdata", "fresh.json"))
	if err != nil {
		t.Fatal(err)
	}
	// At 6x everything is within tolerance; only the dropped row still fails.
	var out strings.Builder
	if failed := compare(&out, base, fresh, order, freshOrder, 6, 1000); failed != 1 {
		t.Errorf("failed = %d at tolerance 6, want 1 (only the missing row)\n%s", failed, out.String())
	}
}
