package main

// The two model-checking workloads. Both run the registered `composed`
// scenario (the paper's A1→A2 one-shot test-and-set) through
// internal/engine, sched and memory; they differ in what the engine does
// on top: mc-composed-n4 walks the whole interleaving tree under
// source-DPOR, sample-composed-n8 draws PCT schedules with no race
// analysis and one pooled-executor reset per run. A race-analysis win
// therefore shows on the first and must not move the second; a
// gate-handoff or reset win shows on both.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/randexp"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// engineWorkers is the worker count of both engine workloads: the box the
// bounds were sized on has two cores.
const engineWorkers = 2

// mustScenario resolves a registered scenario; a missing one is a bug in
// this package, not an input error.
func mustScenario(name string) scenario.Scenario {
	sc, err := scenario.Lookup(name)
	if err != nil {
		panic(err)
	}
	return sc
}

// ---------------------------------------------------------------------------
// mc-composed-n4

type mcSize struct {
	n          int
	executions int // known answer of the full walk
	states     int
	warmN      int // warm-up walks run one process fewer
	warmWalks  int
	warmExecs  int
	obsWalks   int // walks per side of the obs.overhead_ratio probe
}

var (
	mcFull = mcSize{n: 4, executions: 408728, states: 60, warmN: 3, warmWalks: 20, warmExecs: 1956, obsWalks: 20}
	mcToy  = mcSize{n: 3, executions: 1956, states: 33, warmN: 2, warmWalks: 2, warmExecs: 26, obsWalks: 2}
)

// handoffLexLeast is the lexicographically least failing schedule of the
// registered planted-bug scenario at its default size, as the exhaustive
// engine must report it.
const handoffLexLeast = "[{0 false} {0 false} {0 false} {0 false} {0 false} {0 false} {0 false} {0 false} {1 false} {1 false} {0 false}]"

type mcWorkload struct {
	size    mcSize
	h       engine.Harness
	buildS  float64
	walkCfg engine.Config
}

func newMC(toy bool) workload {
	w := &mcWorkload{size: mcFull}
	if toy {
		w.size = mcToy
	}
	// tascheck's defaults: source-DPOR, snapshots auto, its -max budget.
	w.walkCfg = engine.Config{MaxExecutions: 2000000, Prune: engine.PruneSourceDPOR, Workers: engineWorkers}
	return w
}

func (w *mcWorkload) setup(e *runEnv) {
	t := time.Now()
	sc := mustScenario("composed")
	h, _ := sc.Build(w.size.n, scenario.Options{})
	w.h = h
	w.buildS = time.Since(t).Seconds()

	// Gate: the planted bug must be found, and reported as its lex-least
	// failing schedule (one worker: the representative is then exact).
	hb := mustScenario("handoffbug")
	hh, _ := hb.Build(hb.Procs(0), scenario.Options{})
	_, err := engine.Run(hh, engine.Config{Prune: engine.PruneSourceDPOR, Workers: 1})
	var ce *engine.CheckError
	found := errors.As(err, &ce)
	e.gate("handoffbug-found", found, "exhaustive walk of the planted bug returned %v", err)
	if found {
		got := fmt.Sprint(ce.Schedule)
		e.gate("handoffbug-lex-least", got == handoffLexLeast, "failing schedule %s, want %s", got, handoffLexLeast)
	}

	// Fixed-work warm-up, itself a known answer.
	wh, _ := sc.Build(w.size.warmN, scenario.Options{})
	for i := 0; i < w.size.warmWalks; i++ {
		rep, err := engine.Run(wh, w.walkCfg)
		e.gate("warm-up-walk", err == nil && rep.Executions == w.size.warmExecs,
			"composed n=%d walk: %d executions (want %d), err %v", w.size.warmN, rep.Executions, w.size.warmExecs, err)
	}
}

// walk runs the full walk once and checks its known answers.
func (w *mcWorkload) walk(e *runEnv, h engine.Harness, cfg engine.Config) (engine.Report, time.Duration) {
	t := time.Now()
	rep, err := engine.Run(h, cfg)
	wall := time.Since(t)
	bad := int64(0)
	if err != nil {
		bad = 1
	}
	e.ops(int64(rep.Executions), bad, fmt.Sprintf("mc walk: verdict %v", err))
	e.gate("mc-executions", rep.Executions == w.size.executions && !rep.Partial,
		"%d executions (partial=%v), want %d", rep.Executions, rep.Partial, w.size.executions)
	e.gate("mc-distinct-states", rep.DistinctStates == w.size.states,
		"%d distinct terminal states, want %d", rep.DistinctStates, w.size.states)
	return rep, wall
}

func (w *mcWorkload) unit(e *runEnv) unitOut {
	rep, wall := w.walk(e, w.h, w.walkCfg)
	e.count("executions", int64(rep.Executions))
	e.count("distinct_states", int64(rep.DistinctStates))
	return unitOut{wall: wall, ops: int64(rep.Executions)}
}

func (w *mcWorkload) trace(e *runEnv, out *metricSet) *ledger {
	// Both sides of the trace overhead ratio run at one worker, where every
	// engine count repeats exactly.
	cfg1 := w.walkCfg
	cfg1.Workers = 1
	_, w1 := w.walk(e, w.h, cfg1)
	_, w2 := w.walk(e, w.h, w.walkCfg)

	l := newLedger("engine.Run")
	tp := &tap{l: l, bodies: true, obs: obs.New(1)}
	cfgT := cfg1
	cfgT.Metrics = tp.obs
	start := l.now()
	rep, traced := w.walk(e, tp.harness(w.h), cfgT)
	l.add(spRun, 0, start, l.now(), 1)

	attempts := float64(rep.Attempts)
	out.set("engine.attempts", attempts, 1)
	out.set("engine.executions", float64(rep.Executions), 1)
	out.set("engine.backtracks", float64(rep.Backtracks), 1)
	out.set("engine.pruned", float64(rep.Pruned), 1)
	out.set("engine.replays", float64(rep.Replays), 1)
	out.set("engine.useful_ratio", ratio(float64(rep.Executions), attempts), int64(rep.Attempts))
	out.set("engine.attempt_ns", ratio(float64(w1.Nanoseconds()), attempts), int64(rep.Attempts))
	out.set("engine.self_ns_per_attempt", ratio(float64(l.self(spRun)), attempts), int64(rep.Attempts))
	out.set("engine.verdict_s_w1", w1.Seconds(), 1)
	out.set("engine.scaling_w2", ratio(w1.Seconds(), w2.Seconds()), 1)
	out.set("engine.distinct_states", float64(rep.DistinctStates), 1)
	out.set("trace.overhead_ratio", ratio(traced.Seconds(), w1.Seconds()), 1)
	e.count("engine.attempts", int64(rep.Attempts))
	e.count("engine.backtracks", int64(rep.Backtracks))
	e.count("engine.pruned", int64(rep.Pruned))

	e.gate("oracle-checks-equal-executions", l.count[spCheck].Load() == int64(rep.Executions),
		"check closure ran %d times, engine reports %d executions", l.count[spCheck].Load(), rep.Executions)
	engineLayerMetrics(e, tp, out, float64(rep.Attempts))
	out.set("scenario.build_s", w.buildS, 1)
	out.set("obs.overhead_ratio", w.obsOverhead(e), int64(w.size.obsWalks))
	return l
}

// obsOverhead is the cost of attaching the observability domain: the same
// small walk repeated with Config.Metrics nil and set, wall over wall.
func (w *mcWorkload) obsOverhead(e *runEnv) float64 {
	sc := mustScenario("composed")
	h, _ := sc.Build(w.size.warmN, scenario.Options{})
	walk := func(m *obs.Metrics) time.Duration {
		cfg := w.walkCfg
		cfg.Metrics = m
		t := time.Now()
		rep, err := engine.Run(h, cfg)
		wall := time.Since(t)
		e.gate("obs-probe-walk", err == nil && rep.Executions == w.size.warmExecs,
			"composed n=%d walk: %d executions (want %d), err %v", w.size.warmN, rep.Executions, w.size.warmExecs, err)
		return wall
	}
	// The two sides alternate so that drift hits both alike.
	var off, on time.Duration
	m := obs.New(engineWorkers)
	for i := 0; i < w.size.obsWalks; i++ {
		off += walk(nil)
		on += walk(m)
	}
	return ratio(on.Seconds(), off.Seconds())
}

// ---------------------------------------------------------------------------
// sample-composed-n8

type sampleSize struct {
	n       int
	samples int // per unit
	gate    int // samples of the workers-1-versus-2 equality gate
	// Pinned coverage of one unit at -seed 1 (0 = not pinned at this size).
	seed1States, seed1Shapes int
}

var (
	sampleFull = sampleSize{n: 8, samples: 100000, gate: 8000, seed1States: 96, seed1Shapes: 66403}
	sampleToy  = sampleSize{n: 8, samples: 2000, gate: 200}
)

// pctDepth is the PCT bug depth d of the sampling workload.
const pctDepth = 3

type sampleWorkload struct {
	size   sampleSize
	h      engine.Harness
	buildS float64
}

func newSample(toy bool) workload {
	w := &sampleWorkload{size: sampleFull}
	if toy {
		w.size = sampleToy
	}
	return w
}

// cfg is the unit's sampling configuration. Seeds of different -seed
// values are disjoint ranges.
func (w *sampleWorkload) cfg(e *runEnv, samples, workers int) randexp.Config {
	return randexp.Config{
		Sampler: randexp.SamplerPCT, PCTDepth: pctDepth,
		Samples: samples, Seed: e.seed * 1000003, Workers: workers,
	}
}

func (w *sampleWorkload) setup(e *runEnv) {
	t := time.Now()
	h, _ := mustScenario("composed").Build(w.size.n, scenario.Options{})
	w.h = h
	w.buildS = time.Since(t).Seconds()

	// Gate (doubling as the warm-up): the report must not depend on the
	// worker count.
	r1, err1 := randexp.Run(h, w.cfg(e, w.size.gate, 1))
	r2, err2 := randexp.Run(h, w.cfg(e, w.size.gate, engineWorkers))
	e.gate("sample-workers-agree", err1 == nil && err2 == nil &&
		r1.Executions == w.size.gate && r2.Executions == w.size.gate &&
		r1.DistinctStates == r2.DistinctStates && r1.DistinctShapes == r2.DistinctShapes,
		"workers=1: %d runs, %d states, %d shapes, err %v; workers=%d: %d runs, %d states, %d shapes, err %v",
		r1.Executions, r1.DistinctStates, r1.DistinctShapes, err1,
		engineWorkers, r2.Executions, r2.DistinctStates, r2.DistinctShapes, err2)
}

func (w *sampleWorkload) sample(e *runEnv, h engine.Harness, cfg randexp.Config) (randexp.Report, time.Duration) {
	t := time.Now()
	rep, err := randexp.Run(h, cfg)
	wall := time.Since(t)
	e.ops(int64(rep.Executions), int64(rep.Failures), fmt.Sprintf("sampling: verdict %v", err))
	e.gate("sample-executions", err == nil && rep.Executions == cfg.Samples,
		"%d sampled executions (want %d), err %v", rep.Executions, cfg.Samples, err)
	if e.seed == 1 && w.size.seed1States > 0 {
		e.gate("sample-seed1-coverage", rep.DistinctStates == w.size.seed1States && rep.DistinctShapes == w.size.seed1Shapes,
			"%d states, %d shapes; pinned %d, %d", rep.DistinctStates, rep.DistinctShapes, w.size.seed1States, w.size.seed1Shapes)
	}
	return rep, wall
}

func (w *sampleWorkload) unit(e *runEnv) unitOut {
	rep, wall := w.sample(e, w.h, w.cfg(e, w.size.samples, engineWorkers))
	e.count("executions", int64(rep.Executions))
	e.count("distinct_states", int64(rep.DistinctStates))
	e.count("distinct_shapes", int64(rep.DistinctShapes))
	return unitOut{wall: wall, ops: int64(rep.Executions)}
}

func (w *sampleWorkload) trace(e *runEnv, out *metricSet) *ledger {
	var l *ledger
	var tp *tap
	var rep randexp.Report
	plainS, tracedS := alternate(tracePairs,
		func() time.Duration {
			_, wall := w.sample(e, w.h, w.cfg(e, w.size.samples, engineWorkers))
			return wall
		},
		func() time.Duration {
			l = newLedger("randexp.Run")
			tp = &tap{l: l, bodies: true, obs: obs.New(engineWorkers)}
			cfg := w.cfg(e, w.size.samples, engineWorkers)
			cfg.Metrics = tp.obs
			start := l.now()
			var wall time.Duration
			rep, wall = w.sample(e, tp.harness(w.h), cfg)
			l.add(spRun, 0, start, l.now(), 1)
			return wall
		})
	plain := median(plainS)

	runs := float64(rep.Executions)
	out.set("engine.attempts", runs, 1)
	out.set("engine.executions", runs, 1)
	out.set("engine.useful_ratio", 1, int64(rep.Executions))
	out.set("engine.sample_ns", ratio(plain*1e9, runs), int64(rep.Executions))
	out.set("engine.distinct_states", float64(rep.DistinctStates), 1)
	out.set("engine.distinct_shapes", float64(rep.DistinctShapes), 1)
	out.set("trace.overhead_ratio", ratio(median(tracedS), plain), tracePairs)
	// One check per run, plus the PCT probe run's none.
	e.gate("oracle-checks-equal-executions", l.count[spCheck].Load() == int64(rep.Executions),
		"check closure ran %d times, sampler reports %d executions", l.count[spCheck].Load(), rep.Executions)
	engineLayerMetrics(e, tp, out, runs)
	out.set("scenario.build_s", w.buildS, 1)
	return l
}

// ---------------------------------------------------------------------------
// Shared by the engine and stress workloads: what the tapped harness saw,
// and the two bare-layer probes.

// tapMetrics fills the rows every tapped harness yields — scenario
// constructs, oracle checks, resets — and runs the bare-memory probe.
func tapMetrics(tp *tap, out *metricSet) {
	l := tp.l
	out.set("scenario.constructs", float64(l.count[spConstruct].Load()), 1)
	out.set("scenario.construct_ns", l.mean(spConstruct), l.count[spConstruct].Load())
	out.set("oracle.checks", float64(l.count[spCheck].Load()), 1)
	out.set("oracle.check_ns", l.mean(spCheck), l.count[spCheck].Load())
	out.set("memory.resets", float64(l.count[spReset].Load()), 1)
	stepNS, resetNS, soloSteps := ungatedProbe(tp)
	out.set("memory.step_ns_ungated", stepNS, soloSteps)
	out.set("memory.reset_ns", resetNS, soloRounds)
}

// engineLayerMetrics fills the sched and memory rows of a traced engine
// run over ops attempts (or samples), and runs the bare-executor probe.
func engineLayerMetrics(e *runEnv, tp *tap, out *metricSet, ops float64) {
	tapMetrics(tp, out)
	steps, rmws := tp.memoryCensus()
	out.set("memory.steps", float64(steps), 1)
	out.set("memory.accesses_per_op", ratio(float64(steps), ops), int64(ops))
	out.set("memory.rmw_per_mop", ratio(float64(rmws)*1e6, ops), int64(ops))
	e.count("memory.steps", steps)

	// The scheduler census exists only as fold sources registered for the
	// run's duration; the tap read them at its last in-run snapshot.
	tp.mu.Lock()
	c := tp.snap.Counters
	tp.mu.Unlock()
	decisions := c["sched_decisions_total"]
	out.set("sched.decisions", float64(decisions), 1)
	out.set("sched.handoff_ratio", ratio(float64(c["sched_handoffs_total"]), float64(decisions)), decisions)
	decisionNS, replayed := executorProbe(tp)
	out.set("sched.decision_ns", decisionNS, replayed)
}

// executorProbe replays the schedules the tap collected through a bare
// pooled sched.Executor with Env.Reset between runs — the scheduler and
// memory layers with no engine on top — and returns the mean cost of one
// scheduler decision and the number of decisions replayed.
func executorProbe(tp *tap) (decisionNS float64, decisions int64) {
	if len(tp.schedules) == 0 {
		return 0, 0
	}
	env, bodies, _, reset := tp.h()
	if reset == nil {
		return 0, 0
	}
	x := sched.NewExecutor(env, bodies)
	defer x.Close()
	var ns int64
	for _, s := range tp.schedules {
		t := time.Now()
		res := x.RunStrategy(sched.NewReplay(s))
		ns += time.Since(t).Nanoseconds()
		decisions += int64(len(res.Schedule))
		env.Reset()
		reset()
	}
	return ratio(float64(ns), float64(decisions)), decisions
}

// soloRounds is how many times the ungated probe runs every body.
const soloRounds = 2000

// ungatedProbe runs the bodies one after another with no gate installed,
// so every shared-memory step is the bare primitive plus the scenario's
// own recording — the floor under any gated or native per-step cost — and
// times the Env.Reset plus harness reset that follows each round.
func ungatedProbe(tp *tap) (stepNS, resetNS float64, steps int64) {
	env, bodies, _, reset := tp.h()
	if reset == nil {
		return 0, 0, 0
	}
	var runNS, rstNS int64
	for r := 0; r < soloRounds; r++ {
		t := time.Now()
		for i, body := range bodies {
			body(env.Proc(i))
		}
		runNS += time.Since(t).Nanoseconds()
		steps += env.TotalSteps()
		t = time.Now()
		env.Reset()
		reset()
		rstNS += time.Since(t).Nanoseconds()
	}
	return ratio(float64(runNS), float64(steps)), ratio(float64(rstNS), soloRounds), steps
}
