package main

// The metric tables. BENCHMARK.json at the repository root is the contract
// the acceptance driver reads; these tables are what the program prints.
// smoke_test.go pins that the two agree name for name and unit for unit.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

type metricDef struct {
	name, unit string
	// better and bound exist for end-to-end metrics only: which direction
	// is an improvement, and the share of the reference median by which the
	// metric may get worse before that counts as a regression.
	better string
	bound  float64
}

// endToEnd is what a user of the verifier sees, on every workload. Each
// workload repeats one fixed unit of work until the measuring window is
// full; every value is the median over those repetitions.
var endToEnd = []metricDef{
	// process start to timed region: build, input synthesis, known-answer gates, warm-up
	{"setup_s", "s", "lower", 0.25},
	// wall time of one unit of work, from the call to its verdict
	{"verdict_s", "s", "lower", 0.25},
	// operations run and verified per second
	{"ops_per_s", "1/s", "higher", 0.25},
	// median and tail per-operation latency (stress tiers: the driver's merged
	// histogram; other tiers: the unit's mean cost per operation)
	{"op_p50_ns", "ns", "lower", 0.25},
	{"op_p99_ns", "ns", "lower", 0.25},
	// VmHWM of the workload's process
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is the traced run's ledger, layer = package name. A metric that
// does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{name: "engine.attempts", unit: "count"},
	{name: "engine.executions", unit: "count"},
	{name: "engine.backtracks", unit: "count"},
	{name: "engine.pruned", unit: "count"},
	{name: "engine.replays", unit: "count"},
	{name: "engine.useful_ratio", unit: "ratio"},
	{name: "engine.attempt_ns", unit: "ns"},
	{name: "engine.self_ns_per_attempt", unit: "ns"},
	{name: "engine.verdict_s_w1", unit: "s"},
	{name: "engine.scaling_w2", unit: "ratio"},
	{name: "engine.sample_ns", unit: "ns"},
	{name: "engine.distinct_states", unit: "count"},
	{name: "engine.distinct_shapes", unit: "count"},
	{name: "sched.decisions", unit: "count"},
	{name: "sched.handoff_ratio", unit: "ratio"},
	{name: "sched.decision_ns", unit: "ns"},
	{name: "memory.steps", unit: "count"},
	{name: "memory.step_ns_ungated", unit: "ns"},
	{name: "memory.resets", unit: "count"},
	{name: "memory.reset_ns", unit: "ns"},
	{name: "memory.accesses_per_op", unit: "ratio"},
	{name: "memory.rmw_per_mop", unit: "ratio"},
	{name: "memory.rmw_fail_ratio", unit: "ratio"},
	{name: "scenario.build_s", unit: "s"},
	{name: "scenario.constructs", unit: "count"},
	{name: "scenario.construct_ns", unit: "ns"},
	{name: "oracle.checks", unit: "count"},
	{name: "oracle.check_ns", unit: "ns"},
	{name: "linearize.ops", unit: "count"},
	{name: "linearize.windows", unit: "count"},
	{name: "linearize.peak_window", unit: "count"},
	{name: "linearize.peak_configs", unit: "count"},
	{name: "linearize.peak_states", unit: "count"},
	{name: "linearize.ns_per_op", unit: "ns"},
	{name: "linearize.busy_share", unit: "ratio"},
	{name: "stress.rounds", unit: "count"},
	{name: "stress.ops", unit: "count"},
	{name: "stress.harness_ns_per_op", unit: "ns"},
	{name: "stress.algo_ns_per_op", unit: "ns"},
	{name: "stress.op_mean_ns", unit: "ns"},
	{name: "stress.op_p999_ns", unit: "ns"},
	{name: "stress.check_rounds", unit: "count"},
	{name: "stress.lincheck_cost_ratio", unit: "ratio"},
	{name: "obs.overhead_ratio", unit: "ratio"},
	{name: "trace.overhead_ratio", unit: "ratio"},
	{name: "runtime.alloc_mb", unit: "MB"},
	{name: "runtime.gc_cycles", unit: "count"},
	{name: "runtime.gc_pause_ms", unit: "ms"},
}

// measured is one reported metric: its value and how many samples stand
// behind it (repetitions for a median, operations for a mean or a count).
type measured struct {
	def   metricDef
	value float64
	n     int64
}

// metricSet holds the values of one run, keyed by the names of one table.
type metricSet struct {
	defs   []metricDef
	values map[string]measured
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]measured{}}
}

// set records a value. An unknown name is a bug in this package.
func (m *metricSet) set(name string, value float64, n int64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = measured{def: d, value: value, n: n}
			return
		}
	}
	panic(fmt.Sprintf("benchmark: metric %q is not in the table", name))
}

// ordered returns every metric of the table in table order; unset ones
// read 0 with no samples.
func (m *metricSet) ordered() []measured {
	out := make([]measured, 0, len(m.defs))
	for _, d := range m.defs {
		v, ok := m.values[d.name]
		if !ok {
			v = measured{def: d}
		}
		out = append(out, v)
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status, in MB; 0 where that file does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
