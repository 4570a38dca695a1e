package main

// One workload run: set-up (repeated, median reported), the measuring
// window of repeated fixed-work units, and — in a traced run — the ledger
// and the probes. The same code runs at full and at toy size; only the
// size table differs.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/stats"
)

// procStart approximates process start: package initialisation runs before
// main, after the runtime is up.
var procStart = time.Now()

// setupReps is how many times set-up runs; setup_s is their median plus
// the one-off process-start offset.
const setupReps = 3

// runEnv is the context of one workload run: its arguments and the tally
// of verified operations and known-answer gates behind fail_share.
type runEnv struct {
	seed    int64
	seconds float64
	toy     bool
	outDir  string

	attempted int64
	failed    int64
	causes    []string
	counts    map[string]int64
}

// gate records one known-answer check. A failed gate is counted into
// fail_share and named, so a wrong verdict is never a silent number.
func (e *runEnv) gate(name string, ok bool, format string, args ...any) {
	e.attempted++
	if !ok {
		e.failed++
		e.causes = append(e.causes, name+": "+fmt.Sprintf(format, args...))
	}
}

// ops tallies verified operations and how many of them failed.
func (e *runEnv) ops(attempted, failed int64, cause string) {
	e.attempted += attempted
	if failed > 0 {
		e.failed += failed
		e.causes = append(e.causes, cause)
	}
}

// count records an exact, repeatable count; two runs of the same code with
// the same seed must agree on every one (the -aa check).
func (e *runEnv) count(name string, v int64) {
	e.counts[name] = v
}

// tracePairs is how many untraced/traced pairs of units a traced run
// alternates; trace.overhead_ratio is the ratio of the two sides' medians,
// so one cold or disturbed unit does not decide it. The exhaustive walk
// affords a single pair, whose ratio carries a walk's run-to-run spread.
const tracePairs = 3

// alternate runs n pairs of an untraced and a traced unit and returns both
// sides' wall times in seconds.
func alternate(n int, plain, traced func() time.Duration) (plainS, tracedS []float64) {
	for i := 0; i < n; i++ {
		plainS = append(plainS, plain().Seconds())
		tracedS = append(tracedS, traced().Seconds())
	}
	return plainS, tracedS
}

// unitOut is the outcome of one unit of work.
type unitOut struct {
	wall time.Duration
	ops  int64
	// lat is the merged per-operation latency histogram the stress tier
	// reports (stress.Result.Latency); nil on the other tiers, which expose
	// no per-operation distribution without instrumentation.
	lat *stats.LatencyHist
}

// workload is one of the benchmark's five inputs.
type workload interface {
	// setup builds the scenario or synthesizes the input from the seed,
	// runs the known-answer gates and a fixed-work warm-up. It is called
	// setupReps times; each call starts from scratch.
	setup(e *runEnv)
	// unit runs one unit of fixed work with tracing off.
	unit(e *runEnv) unitOut
	// trace alternates untraced units with the same unit run with the layer
	// calls wrapped, runs the layer probes, and fills the per-layer table
	// from the last traced unit's ledger.
	trace(e *runEnv, out *metricSet) *ledger
}

type workloadDef struct {
	name, why string
	make      func(toy bool) workload
}

var workloads = []workloadDef{
	{"mc-composed-n4", "exhaustive source-DPOR walk of composed n=4: the default tascheck path; engine+sched+memory do the work", newMC},
	{"sample-composed-n8", "PCT sampling of composed n=8: same engine/sched/memory layers without DPOR, one pooled reset per run", newSample},
	{"stress-composed", "native stress of composed, G=4, spot-checked: stress driver, memory.Instr and latency histogram dominate", newStressComposed},
	{"stress-tasfai-online", "native stress of tasfai with every op streamed through the online lincheck on narrow windows", newStressTASFAI},
	{"lin-wide-1m", "seeded 2^20-op TAS+FAI history with wide windows checked by linearize.CheckObjects: DFS, memo and interning dominate", newLin},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runResult is everything one run reports.
type runResult struct {
	metrics []measured
	led     *ledger // non-nil for a traced run
	env     *runEnv
}

// runWorkload executes one run of def in this process.
func runWorkload(def workloadDef, e *runEnv, traced bool) runResult {
	w := def.make(e.toy)
	res := runResult{env: e}
	if traced {
		w.setup(e)
		out := newMetricSet(perLayer)
		res.led = w.trace(e, out)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		out.set("runtime.alloc_mb", float64(ms.TotalAlloc)/(1<<20), 1)
		out.set("runtime.gc_cycles", float64(ms.NumGC), 1)
		out.set("runtime.gc_pause_ms", float64(ms.PauseTotalNs)/1e6, int64(ms.NumGC))
		res.metrics = out.ordered()
		return res
	}

	startOffset := time.Since(procStart)
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		w.setup(e)
		setups = append(setups, time.Since(t).Seconds())
	}

	// The measuring window: repeat the unit while another repetition is
	// expected to fit; at least one always runs.
	var walls, rates, p50s, p99s []float64
	windowStart := time.Now()
	for {
		u := w.unit(e)
		secs := u.wall.Seconds()
		walls = append(walls, secs)
		rates = append(rates, ratio(float64(u.ops), secs))
		if u.lat != nil {
			p50s = append(p50s, u.lat.Quantile(0.50))
			p99s = append(p99s, u.lat.Quantile(0.99))
		} else {
			// No per-operation distribution on this tier: both latency
			// metrics read the unit's mean cost per operation.
			perOp := ratio(float64(u.wall.Nanoseconds()), float64(u.ops))
			p50s = append(p50s, perOp)
			p99s = append(p99s, perOp)
		}
		if time.Since(windowStart).Seconds()+median(walls) > e.seconds {
			break
		}
	}

	out := newMetricSet(endToEnd)
	reps := int64(len(walls))
	out.set("setup_s", median(setups)+startOffset.Seconds(), setupReps)
	out.set("verdict_s", median(walls), reps)
	out.set("ops_per_s", median(rates), reps)
	out.set("op_p50_ns", median(p50s), reps)
	out.set("op_p99_ns", median(p99s), reps)
	out.set("peak_rss_mb", peakRSSMB(), 1)
	res.metrics = out.ordered()
	return res
}
