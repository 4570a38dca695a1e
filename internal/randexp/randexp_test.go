package randexp

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// lostUpdateHarness: the classic two-process non-atomic increment, with the
// final value recorded per run. Small enough that sampling saturates its
// whole behaviour space quickly.
func lostUpdateHarness(outcomes map[int64]int) engine.Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		r := memory.NewIntReg(0)
		env.Register(r)
		inc := func(p *memory.Proc) {
			v := r.Read(p)
			r.Write(p, v+1)
		}
		check := func(res *sched.Result) error {
			if outcomes != nil {
				outcomes[r.Read(env.Proc(0))]++
			}
			return nil
		}
		return env, []func(p *memory.Proc){inc, inc}, check, func() {}
	}
}

// bugCfg is the reference planted-bug configuration: n=5, a rare depth-2
// handoff bug (see scenario.HandoffBug).
const (
	bugN      = 5
	bugWarmup = 16
	bugGap    = 10
)

func TestRunBasicCoverage(t *testing.T) {
	outcomes := map[int64]int{}
	rep, err := engine.Sample(lostUpdateHarness(outcomes), engine.SampleConfig{Samples: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != 200 {
		t.Fatalf("executions = %d", rep.Executions)
	}
	if outcomes[1] == 0 || outcomes[2] == 0 || outcomes[1]+outcomes[2] != 200 {
		t.Fatalf("outcomes = %v", outcomes)
	}
	if !rep.FingerprintOK || rep.DistinctStates != 2 {
		t.Fatalf("distinct terminal states = %d (fpOK=%v), want 2", rep.DistinctStates, rep.FingerprintOK)
	}
	// Six interleavings, all of depth 4.
	if rep.DistinctShapes != 6 || rep.MaxDepth != 4 {
		t.Fatalf("shapes = %d, maxDepth = %d; want 6, 4", rep.DistinctShapes, rep.MaxDepth)
	}
	if rep.DepthHist.N != 200 || rep.DepthHist.Min != 4 || rep.DepthHist.Max != 4 {
		t.Fatalf("depth hist = %+v", rep.DepthHist)
	}
	if len(rep.CoverageCurve) == 0 || rep.CoverageCurve[0] == 0 {
		t.Fatalf("coverage curve = %v", rep.CoverageCurve)
	}
}

// TestRunRejectsUnknownSampler: an unknown sampler is an error whether or
// not there is anything to sample.
func TestRunRejectsUnknownSampler(t *testing.T) {
	for _, samples := range []int{10, 0} {
		_, err := engine.Sample(lostUpdateHarness(nil), engine.SampleConfig{Samples: samples, Sampler: "bogus"})
		if err == nil {
			t.Fatalf("unknown sampler accepted with %d samples", samples)
		}
	}
	if _, err := engine.ParseSampler("pct"); err != nil {
		t.Fatal(err)
	}
}

// TestSaturationStopsEarly: on a 6-interleaving harness the coverage
// plateaus almost immediately, so the saturation heuristic must stop the
// run long before the sample budget while having seen every behaviour.
func TestSaturationStopsEarly(t *testing.T) {
	outcomes := map[int64]int{}
	rep, err := engine.Sample(lostUpdateHarness(outcomes), engine.SampleConfig{
		Samples: 100000, Seed: 1, BatchSize: 16, SatBatches: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Saturated {
		t.Fatalf("run did not saturate: %+v", rep)
	}
	if rep.Executions >= 100000 || rep.Executions < 16 {
		t.Fatalf("executions = %d, want an early batch-aligned stop", rep.Executions)
	}
	if rep.Executions%16 != 0 {
		t.Fatalf("executions = %d, not batch-aligned", rep.Executions)
	}
	if rep.DistinctShapes != 6 || rep.DistinctStates != 2 {
		t.Fatalf("saturated before full coverage: %d shapes, %d states", rep.DistinctShapes, rep.DistinctStates)
	}
	tail := rep.CoverageCurve[len(rep.CoverageCurve)-3:]
	if tail[0] != 0 || tail[1] != 0 || tail[2] != 0 {
		t.Fatalf("coverage curve tail not a plateau: %v", rep.CoverageCurve)
	}
}

// TestPCTFindsPlantedBugFasterThanRandom is the subsystem's reason to
// exist: on the depth-2 handoff bug at n=5, PCT with matching depth must
// find the failure within the seed budget while uniform random sampling
// (and the walk, which samples the same distribution) finds nothing at
// all. Deterministic: fixed seeds, fixed batch discipline.
func TestPCTFindsPlantedBugFasterThanRandom(t *testing.T) {
	const samples = 2000
	pctRep, pctErr := engine.Sample(scenario.HandoffBug(bugN, bugWarmup, bugGap), engine.SampleConfig{
		Sampler: engine.SamplerPCT, PCTDepth: 2, Samples: samples, Seed: 1,
	})
	var ce *engine.CheckError
	if !errors.As(pctErr, &ce) {
		t.Fatalf("pct d=2 found nothing in %d runs: %v", samples, pctErr)
	}
	if ce.Seed != pctRep.FailSeed {
		t.Fatalf("CheckError seed %d != report FailSeed %d", ce.Seed, pctRep.FailSeed)
	}
	pctRuns := int(ce.Seed - 1 + 1) // seeds start at 1
	for _, sampler := range []engine.Sampler{engine.SamplerRandom, engine.SamplerWalk} {
		rep, err := engine.Sample(scenario.HandoffBug(bugN, bugWarmup, bugGap), engine.SampleConfig{
			Sampler: sampler, Samples: samples, Seed: 1, KeepGoing: true,
		})
		if err != nil || rep.Failures != 0 {
			t.Fatalf("%s found the rare bug in %d runs (failures=%d, err=%v) — the planted bug is not rare enough",
				sampler, samples, rep.Failures, err)
		}
	}
	if pctRuns > samples/2 {
		t.Fatalf("pct needed %d runs; want a measurable margin under the %d budget", pctRuns, samples)
	}
	t.Logf("pct d=2: first failing seed %d (k=%d); random/walk: 0 failures in %d runs",
		ce.Seed, pctRep.PCTSteps, samples)
}

// TestPCTDepthMatters: the handoff bug needs one priority change point
// (depth 2); with d=1 PCT degenerates to strict priority scheduling, under
// which the full handoff is impossible — process 0 either outranks process
// 1 and reads the ack before process 1 could write it, or is outranked and
// the flag is read too early.
func TestPCTDepthMatters(t *testing.T) {
	rep, err := engine.Sample(scenario.HandoffBug(bugN, bugWarmup, bugGap), engine.SampleConfig{
		Sampler: engine.SamplerPCT, PCTDepth: 1, Samples: 1000, Seed: 1, KeepGoing: true,
	})
	if err != nil || rep.Failures != 0 {
		t.Fatalf("pct d=1 triggered the depth-2 bug: failures=%d err=%v", rep.Failures, err)
	}
}

// TestRatesFindsStragglerBug: skewed rates (fast process 0, slow everyone
// else) reach the handoff ordering at constant probability per run.
func TestRatesFindsStragglerBug(t *testing.T) {
	_, err := engine.Sample(scenario.HandoffBug(bugN, bugWarmup, bugGap), engine.SampleConfig{
		Sampler: engine.SamplerRates, Rates: []float64{12, 1}, Samples: 2000, Seed: 1,
	})
	var ce *engine.CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("skewed rates found nothing: %v", err)
	}
}

// TestParallelSamplingDeterministic is the acceptance contract: w workers
// must produce the identical report — canonical failing seed included — as
// one worker.
func TestParallelSamplingDeterministic(t *testing.T) {
	run := func(workers int) (engine.SampleReport, int64) {
		rep, err := engine.Sample(scenario.HandoffBug(bugN, bugWarmup, bugGap), engine.SampleConfig{
			Sampler: engine.SamplerPCT, PCTDepth: 2, Samples: 2000, Seed: 1, Workers: workers,
		})
		var ce *engine.CheckError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: no failure found: %v", workers, err)
		}
		rep.WallTime = 0 // advisory, never worker-independent
		return rep, ce.Seed
	}
	base, baseSeed := run(1)
	for _, workers := range []int{4, 8} {
		rep, seed := run(workers)
		if seed != baseSeed {
			t.Fatalf("workers=%d: canonical failing seed %d, want %d", workers, seed, baseSeed)
		}
		if !reflect.DeepEqual(rep, base) {
			t.Fatalf("workers=%d: report diverged:\n%+v\nvs\n%+v", workers, rep, base)
		}
	}
	// Coverage-only runs must be worker-independent too.
	cov := func(workers int) engine.SampleReport {
		rep, err := engine.Sample(lostUpdateHarness(nil), engine.SampleConfig{
			Sampler: engine.SamplerWalk, Samples: 500, Seed: 7, Workers: workers, BatchSize: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.WallTime = 0
		return rep
	}
	if a, b := cov(1), cov(6); !reflect.DeepEqual(a, b) {
		t.Fatalf("walk coverage reports diverged across workers:\n%+v\nvs\n%+v", a, b)
	}
	// Exactly the started batches run, at every worker count: each executed
	// seed is checked and reset once, and no seed of a batch the stop rule
	// did not start is run at all. From seed 238 the rates sampler first
	// fails at seed 285, the last seed of the third 16-seed batch.
	for _, c := range []struct {
		name       string
		h          engine.Harness
		cfg        engine.SampleConfig
		executions int
		failSeed   int64
	}{
		{"failure stop", scenario.HandoffBug(bugN, bugWarmup, bugGap), engine.SampleConfig{
			Sampler: engine.SamplerRates, Rates: []float64{12, 1}, Samples: 2000, Seed: 238, BatchSize: 16,
		}, 48, 285},
		{"saturation stop", lostUpdateHarness(nil), engine.SampleConfig{
			Samples: 2000, Seed: 1, BatchSize: 16, SatBatches: 2,
		}, 48, 0},
	} {
		var base engine.SampleReport
		for _, workers := range []int{1, 2, 8} {
			var checks, resets atomic.Int64
			cfg := c.cfg
			cfg.Workers = workers
			rep, err := engine.Sample(counting(c.h, &checks, &resets), cfg)
			var ce *engine.CheckError
			if c.failSeed != 0 && (!errors.As(err, &ce) || ce.Seed != c.failSeed) {
				t.Fatalf("%s, workers=%d: want the failure at seed %d, got %v", c.name, workers, c.failSeed, err)
			}
			if c.failSeed == 0 && (err != nil || !rep.Saturated) {
				t.Fatalf("%s, workers=%d: saturated=%v, err %v", c.name, workers, rep.Saturated, err)
			}
			if rep.Executions != c.executions || checks.Load() != int64(rep.Executions) || resets.Load() != int64(rep.Executions) {
				t.Fatalf("%s, workers=%d: %d checks and %d resets for %d executions, want %d",
					c.name, workers, checks.Load(), resets.Load(), rep.Executions, c.executions)
			}
			rep.WallTime = 0
			if workers == 1 {
				base = rep
			} else if !reflect.DeepEqual(rep, base) {
				t.Fatalf("%s, workers=%d: report diverged:\n%+v\nvs\n%+v", c.name, workers, rep, base)
			}
		}
	}
}

// counting wraps h so that every check and every reset of every instance
// it builds is counted.
func counting(h engine.Harness, checks, resets *atomic.Int64) engine.Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env, bodies, check, reset := h()
		return env, bodies,
			func(res *sched.Result) error { checks.Add(1); return check(res) },
			func() { resets.Add(1); reset() }
	}
}

// TestFailingSeedReplays: the reported seed and schedule must both
// independently reproduce the failure.
func TestFailingSeedReplays(t *testing.T) {
	cfg := engine.SampleConfig{Sampler: engine.SamplerPCT, PCTDepth: 2, Samples: 2000, Seed: 1}
	rep, err := engine.Sample(scenario.HandoffBug(bugN, bugWarmup, bugGap), cfg)
	var ce *engine.CheckError
	if !errors.As(err, &ce) {
		t.Fatal("no failure to replay")
	}
	// (a) Re-running with the failing seed as base finds it on the first run.
	cfg2 := cfg
	cfg2.Seed = ce.Seed
	rep2, err2 := engine.Sample(scenario.HandoffBug(bugN, bugWarmup, bugGap), cfg2)
	var ce2 *engine.CheckError
	if !errors.As(err2, &ce2) || ce2.Seed != ce.Seed {
		t.Fatalf("re-running seed %d did not reproduce: %v", ce.Seed, err2)
	}
	if rep2.FailSeed != ce.Seed {
		t.Fatalf("FailSeed = %d, want %d", rep2.FailSeed, ce.Seed)
	}
	if rep2.PCTSteps != rep.PCTSteps {
		t.Fatalf("the deterministic probe measured k=%d, then k=%d", rep.PCTSteps, rep2.PCTSteps)
	}
	if !reflect.DeepEqual(ce2.Schedule, ce.Schedule) {
		t.Fatal("same seed produced a different failing schedule")
	}
	// (b) Replaying the schedule on a fresh instance reproduces the failure.
	env, bodies, check, _ := scenario.HandoffBug(bugN, bugWarmup, bugGap)()
	res := sched.Run(env, sched.NewReplay(ce.Schedule), bodies)
	if check(res) == nil {
		t.Fatal("replayed schedule did not reproduce the handoff bug")
	}
}

// TestWalkTreeEstimate: the walk's importance weights estimate the
// interleaving count; on the 6-leaf lost-update tree the estimate must
// land near 6.
func TestWalkTreeEstimate(t *testing.T) {
	rep, err := engine.Sample(lostUpdateHarness(nil), engine.SampleConfig{Sampler: engine.SamplerWalk, Samples: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TreeSizeEstimate < 5.4 || rep.TreeSizeEstimate > 6.6 {
		t.Fatalf("tree-size estimate = %v, want ~6", rep.TreeSizeEstimate)
	}
	// Other samplers must not report an estimate, and neither must a
	// crash-mode walk (crashes invalidate the estimator).
	rep, err = engine.Sample(lostUpdateHarness(nil), engine.SampleConfig{Sampler: engine.SamplerRandom, Samples: 50, Seed: 1})
	if err != nil || rep.TreeSizeEstimate != 0 {
		t.Fatalf("random sampler reported a tree estimate: %v (err %v)", rep.TreeSizeEstimate, err)
	}
	rep, err = engine.Sample(lostUpdateHarness(nil), engine.SampleConfig{Sampler: engine.SamplerWalk, Samples: 50, Seed: 1, Crashes: true})
	if err != nil || rep.TreeSizeEstimate != 0 {
		t.Fatalf("crash-mode walk reported a tree estimate: %v (err %v)", rep.TreeSizeEstimate, err)
	}
}

// TestCrashInjection: crash-mode sampling reaches crashed terminal states
// on every sampler, deterministically per seed, and crash-free sampling
// never crashes anyone.
func TestCrashInjection(t *testing.T) {
	for _, sampler := range []engine.Sampler{engine.SamplerRandom, engine.SamplerPCT, engine.SamplerWalk, engine.SamplerRates} {
		crashed := 0
		h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
			env := memory.NewEnv(3)
			r := memory.NewIntReg(0)
			env.Register(r)
			body := func(p *memory.Proc) {
				for i := 0; i < 4; i++ {
					r.Read(p)
				}
			}
			check := func(res *sched.Result) error {
				for i := 0; i < 3; i++ {
					if res.Crashed[i] {
						crashed++
					}
					if res.Crashed[i] && res.Finished[i] {
						return errors.New("crashed and finished")
					}
				}
				return nil
			}
			return env, []func(p *memory.Proc){body, body, body}, check, func() {}
		}
		rep, err := engine.Sample(h, engine.SampleConfig{Sampler: sampler, Samples: 200, Seed: 1, Crashes: true})
		if err != nil {
			t.Fatalf("%s: %v", sampler, err)
		}
		if rep.Executions != 200 || crashed == 0 {
			t.Fatalf("%s: %d executions, %d crashes", sampler, rep.Executions, crashed)
		}
		crashed = 0
		if _, err := engine.Sample(h, engine.SampleConfig{Sampler: sampler, Samples: 100, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if crashed != 0 {
			t.Fatalf("%s: crash-free sampling crashed %d processes", sampler, crashed)
		}
	}
}

// TestKeepGoingCountsAllFailures: KeepGoing must run the full budget and
// count every failure while still reporting the lex-least failing seed.
func TestKeepGoingCountsAllFailures(t *testing.T) {
	alwaysFail := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		r := memory.NewIntReg(0)
		env.Register(r)
		body := func(p *memory.Proc) { r.Read(p) }
		check := func(res *sched.Result) error { return fmt.Errorf("always") }
		return env, []func(p *memory.Proc){body, body}, check, func() {}
	}
	rep, err := engine.Sample(alwaysFail, engine.SampleConfig{Samples: 150, Seed: 10, KeepGoing: true})
	var ce *engine.CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("want CheckError, got %v", err)
	}
	if rep.Executions != 150 || rep.Failures != 150 {
		t.Fatalf("keepgoing rep = %+v", rep)
	}
	if ce.Seed != 10 || rep.FailSeed != 10 {
		t.Fatalf("canonical seed = %d / %d, want 10", ce.Seed, rep.FailSeed)
	}
	// Without KeepGoing the run stops after the first (failing) batch.
	rep, err = engine.Sample(alwaysFail, engine.SampleConfig{Samples: 150, Seed: 10})
	if !errors.As(err, &ce) || rep.Executions != engine.DefaultBatchSize {
		t.Fatalf("non-keepgoing rep = %+v, err %v", rep, err)
	}
}

// plantedBugHarness fails its check on every interleaving where the two
// increments race (the classic lost update).
func plantedBugHarness() engine.Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		r := memory.NewIntReg(0)
		env.Register(r)
		inc := func(p *memory.Proc) {
			v := r.Read(p)
			r.Write(p, v+1)
		}
		check := func(res *sched.Result) error {
			if got := r.Read(env.Proc(0)); got != 2 {
				return fmt.Errorf("lost update: got %d", got)
			}
			return nil
		}
		return env, []func(p *memory.Proc){inc, inc}, check, func() {}
	}
}

func TestSample(t *testing.T) {
	outcomes := map[int64]int{}
	rep, err := engine.Sample(lostUpdateHarness(outcomes), engine.SampleConfig{Samples: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != 20 {
		t.Fatalf("executions = %d", rep.Executions)
	}
	if outcomes[1]+outcomes[2] != 20 {
		t.Fatalf("outcomes = %v", outcomes)
	}
}

func TestSampleReportsFailure(t *testing.T) {
	h := plantedBugHarness()
	_, err := engine.Sample(h, engine.SampleConfig{Samples: 50, Seed: 3})
	var ce *engine.CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("expected CheckError from sampling, got %v", err)
	}
}

// TestSampleWithCrashes: crash-mode sampling must inject crashes (reaching
// final states impossible in crash-free runs) while staying seeded-
// deterministic, and crash-free sampling must not crash anyone.
func TestSampleWithCrashes(t *testing.T) {
	crashed := map[int64]int{}
	rep, err := engine.Sample(lostUpdateHarness(crashed), engine.SampleConfig{Samples: 300, Seed: 1, Crashes: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != 300 {
		t.Fatalf("executions = %d", rep.Executions)
	}
	if crashed[0] == 0 {
		// Final value 0 requires both increments to have been cut short.
		t.Fatalf("crash sampling never crashed both increments: %v", crashed)
	}
	clean := map[int64]int{}
	if _, err := engine.Sample(lostUpdateHarness(clean), engine.SampleConfig{Samples: 300, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if clean[0] != 0 {
		t.Fatalf("crash-free sampling produced a crashed outcome: %v", clean)
	}
	again := map[int64]int{}
	if _, err := engine.Sample(lostUpdateHarness(again), engine.SampleConfig{Samples: 300, Seed: 1, Crashes: true}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(crashed, again) {
		t.Fatalf("crash sampling not deterministic: %v vs %v", crashed, again)
	}
}

// TestSampleReportsFailingSeed: the shimmed Sample must surface the seed of
// the failing run in the CheckError, and both the seed and the schedule
// must independently reproduce the failure.
func TestSampleReportsFailingSeed(t *testing.T) {
	h := plantedBugHarness()
	const base = 40
	_, err := engine.Sample(h, engine.SampleConfig{Samples: 100, Seed: base})
	var ce *engine.CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("want CheckError, got %v", err)
	}
	if !ce.Sampled {
		t.Fatal("sampled failure not marked Sampled")
	}
	if ce.Seed < base || ce.Seed >= base+100 {
		t.Fatalf("failing seed %d outside sampled range [%d,%d)", ce.Seed, base, base+100)
	}
	// Seed 0 is a legitimate base seed: a failure there must still render
	// its seed (Sampled, not a zero-sentinel, carries the distinction).
	_, err = engine.Sample(h, engine.SampleConfig{Samples: 100, Seed: 0})
	var ce0 *engine.CheckError
	if !errors.As(err, &ce0) || !ce0.Sampled {
		t.Fatalf("seed-0 sampling failure not marked Sampled: %v", err)
	}
	if !strings.Contains(ce0.Error(), "seed") {
		t.Fatalf("seed-0 failure message lost the seed: %q", ce0.Error())
	}
	// Reproduce by seed: a 1-sample batch at exactly that seed fails too.
	_, err = engine.Sample(h, engine.SampleConfig{Samples: 1, Seed: ce.Seed})
	var ce2 *engine.CheckError
	if !errors.As(err, &ce2) || ce2.Seed != ce.Seed {
		t.Fatalf("re-running failing seed %d did not reproduce: %v", ce.Seed, err)
	}
	// Reproduce by schedule.
	env, bodies, check, _ := h()
	if check(sched.Run(env, sched.NewReplay(ce.Schedule), bodies)) == nil {
		t.Fatal("replaying the failing schedule did not reproduce the failure")
	}
}

// TestProcessLimit: every gated entry point holds at most sched.MaxProcs
// processes — the parked set is one word — and rejects one more with an
// error that wraps sched.ErrTooManyProcs and names the limit, rather than
// losing the processes a 64-bit mask cannot hold.
func TestProcessLimit(t *testing.T) {
	// n processes, each reading its own register once: one trace class.
	system := func(n int) (*memory.Env, []func(p *memory.Proc), func()) {
		env := memory.NewEnv(n)
		regs := memory.NewRegArray(n, 0)
		env.Register(regs)
		bodies := make([]func(p *memory.Proc), n)
		for i := range bodies {
			bodies[i] = func(p *memory.Proc) { regs.Read(p, i) }
		}
		return env, bodies, func() {}
	}
	harness := func(n int) engine.Harness {
		return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
			env, bodies, reset := system(n)
			return env, bodies, func(*sched.Result) error { return nil }, reset
		}
	}
	entries := []struct {
		name string
		run  func(n int) error
	}{
		{"sched.NewExecutor", func(n int) (err error) {
			defer func() {
				if r := recover(); r != nil {
					err, _ = r.(error)
				}
			}()
			env, bodies, _ := system(n)
			x := sched.NewExecutor(env, bodies)
			defer x.Close()
			if res := x.Run(sched.NewRoundRobin()); len(res.Schedule) != n {
				return fmt.Errorf("%d decisions for %d one-step processes", len(res.Schedule), n)
			}
			return nil
		}},
		{"engine.Run", func(n int) error {
			_, err := engine.Run(harness(n), engine.Config{MaxExecutions: 10, Workers: 2})
			return err
		}},
		{"engine.Sample pct", func(n int) error {
			_, err := engine.Sample(harness(n), engine.SampleConfig{Sampler: engine.SamplerPCT, Samples: 4, Workers: 2})
			return err
		}},
		{"engine.Sample random", func(n int) error {
			_, err := engine.Sample(harness(n), engine.SampleConfig{Samples: 4, Workers: 2})
			return err
		}},
	}
	for _, e := range entries {
		if err := e.run(sched.MaxProcs); err != nil {
			t.Errorf("%s at n=%d: %v", e.name, sched.MaxProcs, err)
		}
		err := e.run(sched.MaxProcs + 1)
		if !errors.Is(err, sched.ErrTooManyProcs) || !strings.Contains(err.Error(), "at most 64 processes") {
			t.Errorf("%s at n=%d: got %v, want the named limit", e.name, sched.MaxProcs+1, err)
		}
	}
}
