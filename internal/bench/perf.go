package bench

// Perf-trajectory capture: the timed experiments (E10–E12, E14, E16)
// record one PerfRow per timed run — executions, attempts, wall-clock and the
// derived attempts/sec — alongside the markdown cells. composebench
// -bench-dir writes them to BENCH_<id>.json files, committed so the
// repository carries a throughput trajectory that CI's bench-regression
// smoke can compare fresh measurements against (see EXPERIMENTS.md,
// "Perf-trajectory files").

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// PerfRow is one timed engine run of an experiment driver. Wall-clock and
// the derived rate are machine-dependent; comparisons across machines (or
// against the committed files) must allow generous tolerance — CI uses 2x.
// AllocsPerAttempt and BytesPerAttempt (the E10 and E14 rows) are the heap
// objects and bytes the run allocated per attempt, harness construction and
// report included: advisory — benchdiff does not compare them; the gated
// form is the allocation-budget test in internal/engine.
type PerfRow struct {
	Experiment       string  `json:"experiment"`
	Table            string  `json:"table"`
	Label            string  `json:"label"`
	Executions       int     `json:"executions"`
	Attempts         int     `json:"attempts"`
	WallMS           float64 `json:"wall_ms"`
	AttemptsPerSec   float64 `json:"attempts_per_sec"`
	AllocsPerAttempt float64 `json:"allocs_per_attempt,omitempty"`
	BytesPerAttempt  float64 `json:"bytes_per_attempt,omitempty"`
}

// heapDelta is what one timed run allocated, process-wide (the experiment
// drivers run one engine at a time).
type heapDelta struct{ mallocs, bytes uint64 }

// timedWithHeap runs f and returns its wall-clock and heap allocation. The
// two runtime.ReadMemStats calls (each stops the world) sit outside the
// timed region.
func timedWithHeap(f func()) (time.Duration, heapDelta) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return wall, heapDelta{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
}

var (
	perfMu   sync.Mutex
	perfRows []PerfRow
)

// recordPerf appends one timed run to the trajectory buffer. label must be
// unique within (experiment, table) — the regression diff keys on it.
func recordPerf(experiment, table, label string, executions, attempts int, wall time.Duration) {
	recordPerfHeap(experiment, table, label, executions, attempts, wall, heapDelta{})
}

// recordPerfHeap is recordPerf for a run measured with timedWithHeap: the
// row additionally carries the per-attempt allocation figures.
func recordPerfHeap(experiment, table, label string, executions, attempts int, wall time.Duration, heap heapDelta) {
	row := PerfRow{
		Experiment: experiment,
		Table:      table,
		Label:      label,
		Executions: executions,
		Attempts:   attempts,
		WallMS:     float64(wall.Microseconds()) / 1000,
	}
	if s := wall.Seconds(); s > 0 {
		row.AttemptsPerSec = float64(attempts) / s
	}
	if attempts > 0 {
		row.AllocsPerAttempt = float64(heap.mallocs) / float64(attempts)
		row.BytesPerAttempt = float64(heap.bytes) / float64(attempts)
	}
	perfMu.Lock()
	perfRows = append(perfRows, row)
	perfMu.Unlock()
}

// TakePerf drains and returns the recorded rows of one experiment, sorted
// by (table, label) so the emitted files are deterministic up to the
// measured numbers.
func TakePerf(experiment string) []PerfRow {
	perfMu.Lock()
	defer perfMu.Unlock()
	var out, rest []PerfRow
	for _, r := range perfRows {
		if r.Experiment == experiment {
			out = append(out, r)
		} else {
			rest = append(rest, r)
		}
	}
	perfRows = rest
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Label < out[j].Label
	})
	return out
}
