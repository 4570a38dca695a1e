package main

// The two native stress workloads: stress.Run on the ungated atomics path,
// closed loop (every goroutine re-arrives as soon as the round barrier
// opens), G=4 goroutines on two OS threads' worth of parallelism. A unit is
// a fixed number of rounds, so its operation count repeats exactly.
//
// stress-composed spot-checks every 64th round: the stress driver,
// memory.Instr accounting and the latency histogram dominate, the engine
// and scheduler do nothing. stress-tasfai-online streams every recorded
// operation through linearize.Stream on narrow windows, which takes about
// three quarters of its time: checker-ingest wins show there and
// stress-driver wins are diluted.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/stress"
)

// procs is the GOMAXPROCS pin of every workload: min(nproc, 2), so all
// load comes from at most nproc busy threads and a bigger box does not
// change what is measured.
var procs = min(runtime.NumCPU(), 2)

type stressSize struct {
	g          int
	rounds     int64 // per unit
	warmRounds int64
	a1Rounds   int64 // the register-only gate
	noopRounds int64 // the harness calibration probe
	offRounds  int64 // the lincheck-off side of the cost ratio
}

type stressWorkload struct {
	scenarioName string
	lin          stress.LinMode
	// opsPerBody is how many recorded operations one body performs, for the
	// online checker's completeness gate (tasfai: one TAS, two tickets).
	opsPerBody int64
	size       stressSize
	sc         scenario.Scenario
	buildS     float64
}

func newStressComposed(toy bool) workload {
	w := &stressWorkload{scenarioName: "composed", lin: stress.LinSpot,
		size: stressSize{g: 4, rounds: 500000, warmRounds: 100000, a1Rounds: 200000, noopRounds: 200000}}
	if toy {
		w.size = stressSize{g: 4, rounds: 40000, warmRounds: 2000, a1Rounds: 5000, noopRounds: 5000}
	}
	return w
}

func newStressTASFAI(toy bool) workload {
	w := &stressWorkload{scenarioName: "tasfai", lin: stress.LinOnline, opsPerBody: 3,
		size: stressSize{g: 4, rounds: 100000, warmRounds: 20000, a1Rounds: 200000, noopRounds: 200000, offRounds: 100000}}
	if toy {
		w.size = stressSize{g: 4, rounds: 8000, warmRounds: 1000, a1Rounds: 5000, noopRounds: 5000, offRounds: 5000}
	}
	return w
}

// cfg is a fixed-rounds run of sc under this workload's checking mode.
func (w *stressWorkload) cfg(e *runEnv, sc scenario.Scenario, lin stress.LinMode, rounds int64) stress.Config {
	return stress.Config{
		Scenario: sc, G: w.size.g,
		MaxRounds: rounds, Duration: time.Hour, // rounds, not the clock, end the run
		LinMode: lin, Seed: e.seed, Procs: procs,
	}
}

// run executes one stress run, tallies its operations and applies the
// gates every stress run must pass.
func (w *stressWorkload) run(e *runEnv, cfg stress.Config) (stress.Result, time.Duration) {
	t := time.Now()
	res, err := stress.Run(cfg)
	wall := time.Since(t)
	name := cfg.Scenario.Name
	e.gate("stress-run", err == nil, "%s: %v", name, err)
	e.ops(res.Ops, res.CheckFailures+res.LinFailures,
		fmt.Sprintf("stress %s: %d spot-check failures (%s), %d lincheck failures (%s)",
			name, res.CheckFailures, res.FirstCheckErr, res.LinFailures, res.FirstLinErr))
	e.gate("stress-ops-equal-latency-samples", res.Ops == res.Latency.N(),
		"%s: %d ops, %d latency samples", name, res.Ops, res.Latency.N())
	if cfg.LinMode == stress.LinOnline {
		e.gate("lincheck-complete", res.LinErr == "" && !res.LinTruncated && res.LinOps == w.opsPerBody*res.Ops,
			"%s: checker verified %d of %d ops (truncated=%v, err %q)", name, res.LinOps, w.opsPerBody*res.Ops, res.LinTruncated, res.LinErr)
	}
	return res, wall
}

func (w *stressWorkload) setup(e *runEnv) {
	t := time.Now()
	w.sc = mustScenario(w.scenarioName)
	w.sc.Build(w.size.g, scenario.Options{})
	w.buildS = time.Since(t).Seconds()

	// Gate: the paper's cost claim in its native form — A1 alone is
	// register-only, so a native run of it performs no RMW at all.
	a1, _ := w.run(e, w.cfg(e, mustScenario("a1"), stress.LinSpot, w.size.a1Rounds))
	e.gate("a1-register-only", a1.RMWs == 0, "a1 performed %d hardware RMWs, want exactly 0", a1.RMWs)

	w.run(e, w.cfg(e, w.sc, w.lin, w.size.warmRounds))
}

func (w *stressWorkload) unit(e *runEnv) unitOut {
	res, wall := w.run(e, w.cfg(e, w.sc, w.lin, w.size.rounds))
	e.count("rounds", res.Rounds)
	e.count("ops", res.Ops)
	return unitOut{wall: wall, ops: res.Ops, lat: &res.Latency}
}

func (w *stressWorkload) trace(e *runEnv, out *metricSet) *ledger {
	var l *ledger
	var tp *tap
	var plain, res stress.Result
	plainS, tracedS := alternate(tracePairs,
		func() time.Duration {
			var wall time.Duration
			plain, wall = w.run(e, w.cfg(e, w.sc, w.lin, w.size.rounds))
			return wall
		},
		func() time.Duration {
			l = newLedger("stress.Run")
			tp = &tap{l: l, obs: obs.New(w.size.g)}
			cfg := w.cfg(e, tp.scenario(w.sc), w.lin, w.size.rounds)
			cfg.Metrics = tp.obs
			start := l.now()
			var wall time.Duration
			res, wall = w.run(e, cfg)
			l.add(spRun, 0, start, l.now(), 1)
			return wall
		})
	plainWall := median(plainS)

	// The driver's own counters, read at the layer boundary.
	c := tp.obs.Snapshot().Counters
	e.gate("stress-counter-equal-latency-samples", c["stress_ops_total"] == res.Latency.N(),
		"stress_ops_total %d, latency samples %d", c["stress_ops_total"], res.Latency.N())
	ops := float64(c["stress_ops_total"])
	e.count("stress.ops", c["stress_ops_total"])
	e.count("stress.rounds", c["stress_rounds_total"])
	out.set("stress.rounds", float64(c["stress_rounds_total"]), 1)
	out.set("stress.ops", ops, 1)
	out.set("stress.check_rounds", float64(c["stress_check_rounds_total"]), 1)
	out.set("stress.op_mean_ns", plain.MeanNS, plain.Latency.N())
	out.set("stress.op_p999_ns", plain.P999, plain.Latency.N())
	out.set("memory.steps", float64(c["stress_mem_accesses_total"]), 1)
	out.set("memory.accesses_per_op", ratio(float64(c["stress_mem_accesses_total"]), ops), res.Ops)
	out.set("memory.rmw_per_mop", ratio(float64(c["stress_mem_rmw_total"])*1e6, ops), res.Ops)
	out.set("memory.rmw_fail_ratio", ratio(float64(c["stress_rmw_fail_total"]), float64(c["stress_mem_rmw_total"])), c["stress_mem_rmw_total"])
	out.set("scenario.build_s", w.buildS, 1)
	out.set("trace.overhead_ratio", ratio(median(tracedS), plainWall), tracePairs)
	tapMetrics(tp, out)

	// Calibration: the same driver over bodies that do nothing is what the
	// harness alone costs per operation; the body latency net of the no-op
	// body's (the timer's own cost) is what the algorithm costs.
	noop, noopWall := w.run(e, w.cfg(e, noopScenario(), stress.LinSpot, w.size.noopRounds))
	out.set("stress.harness_ns_per_op", ratio(float64(noopWall.Nanoseconds()), float64(noop.Ops)), noop.Ops)
	out.set("stress.algo_ns_per_op", plain.MeanNS-noop.MeanNS, plain.Latency.N())

	if w.lin == stress.LinOnline {
		out.set("linearize.ops", float64(res.LinOps), 1)
		out.set("linearize.windows", float64(res.LinWindows), 1)
		out.set("linearize.peak_window", float64(res.LinPeakWindow), 1)
		out.set("linearize.peak_configs", float64(res.LinPeakConfigs), 1)
		out.set("linearize.peak_states", float64(res.LinPeakStates), 1)
		out.set("linearize.ns_per_op", ratio(plain.LinWallMS*1e6, float64(plain.LinOps)), plain.LinOps)
		out.set("linearize.busy_share", ratio(plain.LinWallMS, plain.WallMS), 1)
		off, offWall := w.run(e, w.cfg(e, w.sc, stress.LinOff, w.size.offRounds))
		out.set("stress.lincheck_cost_ratio",
			ratio(ratio(float64(off.Ops), offWall.Seconds()), ratio(float64(plain.Ops), plainWall)), 1)
	}
	return l
}

// noopScenario is an unregistered scenario whose bodies take no step: what
// is left when stress.Run drives it is the driver itself — round barrier,
// channel hand-off, latency timer, counters.
func noopScenario() scenario.Scenario {
	return scenario.Scenario{
		Name:        "noop",
		Description: "calibration: bodies that do nothing",
		Params:      scenario.Params{MinProcs: 1},
		Build: func(n int, _ scenario.Options) (engine.Harness, scenario.Oracle) {
			h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
				bodies := make([]func(p *memory.Proc), n)
				for i := range bodies {
					bodies[i] = func(*memory.Proc) {}
				}
				return memory.NewEnv(n), bodies, func(*sched.Result) error { return nil }, func() {}
			}
			return h, scenario.Oracle{Kind: scenario.OracleInvariant, Invariant: "none"}
		},
	}
}
