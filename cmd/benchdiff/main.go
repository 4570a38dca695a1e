// Command benchdiff compares a fresh perf-trajectory file (composebench
// -bench-dir) against a committed baseline and fails when throughput
// regressed beyond the tolerance. Rows are keyed by (table, label); the
// compared figures are attempts_per_sec — the column of a PerfRow that
// tracks engine speed rather than workload shape — and wall_ms, which
// catches experiments (like the stress tier's fixed-duration sweeps)
// whose attempt rate is the measured quantity rather than the cost. The
// advisory allocs_per_attempt and bytes_per_attempt columns are carried
// through untouched and never compared.
//
// Usage:
//
//	benchdiff baseline.json fresh.json            # default tolerance 2x
//	benchdiff -tolerance 3 baseline.json fresh.json
//
// Wall-clock measurements are machine- and load-dependent, so the default
// tolerance is deliberately generous: a row only fails when the fresh rate
// dropped below baseline/tolerance or the fresh wall-clock grew beyond
// baseline*tolerance. Rows whose baseline ran fewer than -min-attempts
// schedules are reported but never failed — their wall-clock is
// sub-millisecond scheduling noise, not a throughput measurement. Rows
// missing from the fresh file fail (the experiment lost coverage); rows
// only in the fresh file are reported but pass (the experiment grew).
// Exit code 1 on any failure, 2 on usage or file errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

func load(path string) (map[string]bench.PerfRow, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rows []bench.PerfRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]bench.PerfRow, len(rows))
	var order []string
	for _, r := range rows {
		key := r.Table + " / " + r.Label
		if _, dup := m[key]; dup {
			return nil, nil, fmt.Errorf("%s: duplicate row %q", path, key)
		}
		m[key] = r
		order = append(order, key)
	}
	return m, order, nil
}

// compare diffs the fresh rows against the baseline and returns the number
// of failed rows. Both figures share the tolerance and the min-attempts
// noise guard: a noisy baseline row is never failed on either axis.
func compare(out io.Writer, base, fresh map[string]bench.PerfRow, order, freshOrder []string, tolerance float64, minAttempts int) int {
	failed := 0
	for _, key := range order {
		b := base[key]
		f, ok := fresh[key]
		switch {
		case !ok:
			fmt.Fprintf(out, "FAIL %-60s missing from fresh run\n", key)
			failed++
		case b.Attempts < minAttempts:
			fmt.Fprintf(out, "ok   %-60s %.0f/s -> %.0f/s (below min-attempts, not compared)\n",
				key, b.AttemptsPerSec, f.AttemptsPerSec)
		case b.AttemptsPerSec > 0 && f.AttemptsPerSec < b.AttemptsPerSec/tolerance:
			fmt.Fprintf(out, "FAIL %-60s %.0f/s -> %.0f/s (%.1fx slower, tolerance %.1fx)\n",
				key, b.AttemptsPerSec, f.AttemptsPerSec, b.AttemptsPerSec/f.AttemptsPerSec, tolerance)
			failed++
		case b.WallMS > 0 && f.WallMS > b.WallMS*tolerance:
			fmt.Fprintf(out, "FAIL %-60s %.1fms -> %.1fms (%.1fx longer, tolerance %.1fx)\n",
				key, b.WallMS, f.WallMS, f.WallMS/b.WallMS, tolerance)
			failed++
		default:
			ratio := "—"
			if b.AttemptsPerSec > 0 && f.AttemptsPerSec > 0 {
				ratio = fmt.Sprintf("%.2fx", f.AttemptsPerSec/b.AttemptsPerSec)
			}
			fmt.Fprintf(out, "ok   %-60s %.0f/s -> %.0f/s (%s, %.1fms -> %.1fms)\n",
				key, b.AttemptsPerSec, f.AttemptsPerSec, ratio, b.WallMS, f.WallMS)
		}
	}
	for _, key := range freshOrder {
		if _, ok := base[key]; !ok {
			fmt.Fprintf(out, "new  %-60s %.0f/s (no baseline)\n", key, fresh[key].AttemptsPerSec)
		}
	}
	return failed
}

func main() {
	tolerance := flag.Float64("tolerance", 2, "allowed slowdown factor before a row fails")
	minAttempts := flag.Int("min-attempts", 1000, "baseline rows below this attempt count are noise: reported, never failed")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-tolerance N] baseline.json fresh.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 || *tolerance < 1 {
		flag.Usage()
		os.Exit(2)
	}
	base, order, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	fresh, freshOrder, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	failed := compare(os.Stdout, base, fresh, order, freshOrder, *tolerance, *minAttempts)
	if failed > 0 {
		fmt.Printf("benchdiff: %d of %d rows regressed beyond %.1fx\n", failed, len(order), *tolerance)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d rows within %.1fx\n", len(order), *tolerance)
}
