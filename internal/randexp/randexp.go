// Package randexp is the randomized-exploration frontend over the shared
// engine core (internal/engine): where engine.Run discharges the paper's
// universally-quantified claims by enumerating every interleaving for
// small process counts, randexp opens the large-n regime by sampling
// interleavings from structured scheduler distributions, in parallel, with
// a coverage signal and deterministic failure reporting.
//
// # Samplers
//
// Four schedulers are offered (see internal/sched for their semantics and
// guarantees):
//
//   - random: uniform choice among parked processes at every decision — what
//     Sample runs.
//   - pct: the PCT priority scheduler, whose d−1 priority change points
//     give every run probability at least 1/(n·k^(d−1)) of triggering any
//     depth-d ordering bug. The schedule-length bound k is measured by a
//     deterministic round-robin probe run unless Config.PCTSteps pins it.
//   - walk: uniform sampling that tracks the product of branching factors,
//     correcting for the tree bias of per-step uniform choice; averaging
//     the weights yields an unbiased estimate of the total interleaving
//     count (Report.TreeSizeEstimate).
//   - rates: a stochastic scheduler with per-process rate weights, the
//     "practically wait-free" scheduler model; skewed rates reach the
//     slow-straggler orderings uniform sampling essentially never produces.
//
// # Determinism
//
// Sampling proceeds in fixed-size batches of consecutive seeds
// (Config.BatchSize, independent of Workers), executed and merged by the
// engine core's batched sampling loop: within a batch, runs execute on a
// worker pool — each worker owning one harness instance, reset between
// runs — but results are merged in seed order, batch by batch. Coverage
// counters, the saturation decision, and the canonical failure (the
// lex-least failing seed, always in the first batch that contains any
// failure) are therefore identical for every worker count; only wall-clock
// changes. A reported failure replays with
// sched.NewReplay(CheckError.Schedule), or by re-running its seed.
//
// This package owns only the strategy construction and the coverage fold;
// the worker pool, pooled-executor lifecycle, batch merge and the unified
// CheckError all live in internal/engine.
//
// # Coverage and saturation
//
// Each run contributes its terminal-state fingerprint (Env.Fingerprint
// over registered objects, when available) and its schedule-shape hash
// (the (proc, crash) choice sequence). Distinct counts and a per-batch
// new-coverage curve expose how fast the sampler is still finding new
// behaviour; with Config.SatBatches set, sampling stops early once that
// many consecutive batches discover nothing new. Saturation is a stopping
// heuristic, not a soundness claim — see DESIGN.md.
package randexp

import (
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Sampler names a scheduling distribution.
type Sampler string

// The available samplers.
const (
	SamplerRandom Sampler = "random"
	SamplerPCT    Sampler = "pct"
	SamplerWalk   Sampler = "walk"
	SamplerRates  Sampler = "rates"
)

// ParseSampler validates a sampler name (as passed to tascheck -sampler).
func ParseSampler(s string) (Sampler, error) {
	switch Sampler(s) {
	case SamplerRandom, SamplerPCT, SamplerWalk, SamplerRates:
		return Sampler(s), nil
	}
	return "", fmt.Errorf("randexp: unknown sampler %q (random | pct | walk | rates)", s)
}

// Defaults for Config fields left zero.
const (
	DefaultBatchSize = 64
	DefaultPCTDepth  = 3
)

// Config parameterizes a sampling run.
type Config struct {
	// Sampler selects the scheduling distribution (default random).
	Sampler Sampler
	// Samples is the total number of seeded runs: seeds Seed..Seed+Samples-1.
	Samples int
	// Seed is the base seed.
	Seed int64
	// Workers is the number of runs executed concurrently (0 or 1 =
	// sequential). Worker count never changes any reported result, only
	// wall-clock.
	Workers int
	// CrashProb, when positive, injects seeded crashes: at each decision a
	// parked process is crashed with this probability (SampleCrashProb is the
	// conventional value).
	CrashProb float64
	// PCTDepth is the PCT bug-depth parameter d: d−1 priority change
	// points per run (default DefaultPCTDepth). Only meaningful for the
	// pct sampler.
	PCTDepth int
	// PCTSteps pins the PCT schedule-length bound k. 0 measures it with
	// one deterministic round-robin probe run before sampling starts.
	PCTSteps int
	// Rates are the per-process rate weights of the rates sampler
	// (processes beyond the slice reuse the last weight; empty = uniform).
	Rates []float64
	// BatchSize is the number of consecutive seeds merged at a time
	// (default DefaultBatchSize). It is the determinism granule: failure
	// stops and saturation stops happen on batch boundaries, so results
	// depend on BatchSize but never on Workers.
	BatchSize int
	// SatBatches, when positive, stops sampling early after this many
	// consecutive batches that discovered no new terminal fingerprint and
	// no new schedule shape. 0 disables the saturation stop.
	SatBatches int
	// KeepGoing continues sampling after a failing batch instead of
	// stopping, so failure *rates* can be measured over the full seed
	// range. The returned CheckError still reports the lex-least failing
	// seed.
	KeepGoing bool
	// Metrics, when non-nil, attaches the observability layer: completed
	// seeded runs tick the domain's sharded Samples counter, the layer fold
	// sources (scheduler and memory census) are registered for the run's
	// duration, and batch lifecycle events land in the domain's event log.
	// Strictly advisory: nothing the sampler decides reads it, so every
	// Report field is identical with Metrics attached or nil.
	Metrics *obs.Metrics
}

// Report summarizes a sampling run. All fields are independent of
// Config.Workers.
type Report struct {
	// Executions is the number of seeded runs performed (all runs of every
	// started batch).
	Executions int
	// Failures is the number of runs whose check failed.
	Failures int
	// FailSeed is the smallest failing seed (meaningful when Failures > 0).
	FailSeed int64
	// MaxDepth is the largest schedule length seen.
	MaxDepth int
	// DepthHist is the histogram of schedule lengths (bucket width 8).
	DepthHist *stats.Hist
	// DistinctStates is the number of distinct terminal-state fingerprints
	// seen; 0 when the harness does not register fingerprintable objects
	// (FingerprintOK reports which).
	DistinctStates int
	// FingerprintOK reports whether terminal states could be fingerprinted.
	FingerprintOK bool
	// DistinctShapes is the number of distinct schedule shapes (choice
	// sequences) seen.
	DistinctShapes int
	// CoverageCurve[i] is the number of new coverage units (first-seen
	// terminal fingerprints plus first-seen schedule shapes) discovered in
	// batch i.
	CoverageCurve []int
	// Saturated reports whether the run stopped early on the SatBatches
	// plateau heuristic.
	Saturated bool
	// PCTSteps is the schedule-length bound k the pct sampler used (probe
	// result or Config.PCTSteps); 0 for other samplers.
	PCTSteps int
	// TreeSizeEstimate is the walk sampler's unbiased estimate of the
	// total number of interleavings; 0 for other samplers and under crash
	// injection (which invalidates the estimator).
	TreeSizeEstimate float64
	// WallTime is the wall-clock duration of the Run call. Advisory by
	// nature: never identical across runs or machines.
	WallTime time.Duration
}

// runner holds the per-Run sampler parameters the strategy factory needs.
type runner struct {
	cfg      Config
	pctSteps int
}

// workerStrategy returns one sampling worker's engine.SeedStrategy. The
// seeded strategies are single-run state with a Reset method, so the worker
// keeps one value of the configured sampler (and one crash wrapper) and
// re-arms it per run: the draws are those of a freshly constructed strategy,
// without constructing one — a generator alone is ~5 KB — per sampled
// execution. The finish hook is non-nil only for the walk sampler, whose
// importance weight is read off the strategy after the run.
func (r *runner) workerStrategy() engine.SeedStrategy {
	var (
		random      sched.Random
		randomCrash sched.RandomCrash
		pct         sched.PCT
		walk        sched.Walk
		rates       sched.Rates
		crashes     sched.Crashes
	)
	walkWeight := func(out *engine.SeedOutcome) { out.Weight = math.Exp(walk.LogWeight()) }
	d := r.cfg.PCTDepth
	if d < 1 {
		d = DefaultPCTDepth
	}
	p := r.cfg.CrashProb
	return func(seed int64, n int) (sched.Chooser, func(out *engine.SeedOutcome)) {
		var s sched.Chooser
		var finish func(out *engine.SeedOutcome)
		switch r.cfg.Sampler {
		case SamplerPCT:
			s = pct.Reset(seed, n, r.pctSteps, d)
		case SamplerWalk:
			s = walk.Reset(seed)
			// Crash injection truncates paths and shrinks later parked
			// sets, so the walk's weight no longer inverts any fixed
			// tree's path probability; the weight is not read and no
			// estimate is reported rather than reporting a wrong one.
			if p <= 0 {
				finish = walkWeight
			}
		case SamplerRates:
			s = rates.Reset(seed, r.cfg.Rates)
		default: // SamplerRandom
			if p > 0 {
				// One stream for decisions and crashes: the draw order every
				// pinned crash-mode sample was recorded under.
				return randomCrash.Reset(seed, p), nil
			}
			return random.Reset(seed), nil
		}
		if p > 0 {
			// Crash draws come from a distinct stream so they cannot perturb
			// the structured samplers' decision state.
			s = crashes.Reset(s, seed^0x5DEECE66D, p)
		}
		return s, finish
	}
}

// Run samples cfg.Samples seeded executions of h on the engine core's
// batched sampling loop and returns the merged report. A check failure is
// returned as an *engine.CheckError (Sampled set) carrying the lex-least
// failing seed and its schedule, so re-running the seed or replaying the
// schedule with sched.NewReplay reproduces it without re-sampling the batch;
// by the batch discipline that seed (and every other Report field) is
// identical for every Config.Workers value. A harness closure that panics,
// or a harness without a reset, ends the run with an error naming it and its
// seed (see engine.Harness).
func Run(h engine.Harness, cfg Config) (rep Report, err error) {
	start := time.Now()
	rep = Report{DepthHist: stats.NewHist(8)}
	defer func() { rep.WallTime = time.Since(start) }()
	if cfg.Samples <= 0 {
		return rep, nil
	}
	if cfg.Sampler == "" {
		cfg.Sampler = SamplerRandom
	}
	if _, err := ParseSampler(string(cfg.Sampler)); err != nil {
		return rep, err
	}
	batch := cfg.BatchSize
	if batch < 1 {
		batch = DefaultBatchSize
	}

	core := engine.NewCore(h, cfg.Workers)
	defer core.Close()
	if cfg.Metrics != nil {
		remove := core.RegisterObs(cfg.Metrics)
		defer remove()
		cfg.Metrics.Event("sample_start", map[string]any{
			"sampler": string(cfg.Sampler), "samples": cfg.Samples,
			"seed": cfg.Seed, "batch": batch, "workers": cfg.Workers,
		})
	}
	r := &runner{cfg: cfg}
	if cfg.Sampler == SamplerPCT {
		r.pctSteps = cfg.PCTSteps
		if r.pctSteps < 1 {
			// One deterministic round-robin probe measures the harness's
			// schedule length, the PCT bound k.
			if r.pctSteps, err = core.Probe(sched.NewRoundRobin()); err != nil {
				return rep, err
			}
		}
		rep.PCTSteps = r.pctSteps
	}

	states := make(map[memory.Fingerprint]struct{})
	shapes := make(map[uint64]struct{})
	var firstFail *engine.SeedOutcome
	weightSum, weightRuns := 0.0, 0
	staleBatches := 0

	scfg := engine.SampleConfig{Samples: cfg.Samples, Seed: cfg.Seed, BatchSize: batch, Metrics: cfg.Metrics}
	fatal := core.SampleBatches(scfg, r.workerStrategy, func(outs []engine.SeedOutcome) bool {
		// Merge in seed order: coverage, depth accounting, failures.
		newCov := 0
		for i := range outs {
			o := &outs[i]
			rep.Executions++
			rep.DepthHist.Add(o.Depth)
			if o.Depth > rep.MaxDepth {
				rep.MaxDepth = o.Depth
			}
			if o.FingerprintOK {
				rep.FingerprintOK = true
				if _, seen := states[o.Fingerprint]; !seen {
					states[o.Fingerprint] = struct{}{}
					newCov++
				}
			}
			if _, seen := shapes[o.Shape]; !seen {
				shapes[o.Shape] = struct{}{}
				newCov++
			}
			if o.Weight > 0 {
				weightSum += o.Weight
				weightRuns++
			}
			if o.Err != nil {
				rep.Failures++
				if firstFail == nil {
					firstFail = o
					if cfg.Metrics != nil {
						cfg.Metrics.Event("failure_found", map[string]any{
							"seed": o.Seed, "depth": o.Depth, "error": o.Err.Error(),
						})
					}
				}
			}
		}
		rep.CoverageCurve = append(rep.CoverageCurve, newCov)

		if firstFail != nil && !cfg.KeepGoing {
			return false
		}
		if cfg.SatBatches > 0 {
			if newCov == 0 {
				staleBatches++
			} else {
				staleBatches = 0
			}
			if staleBatches >= cfg.SatBatches {
				rep.Saturated = true
				return false
			}
		}
		return true
	})

	if fatal != nil {
		return rep, fatal
	}
	rep.DistinctStates = len(states)
	rep.DistinctShapes = len(shapes)
	if cfg.Sampler == SamplerWalk && weightRuns > 0 {
		rep.TreeSizeEstimate = weightSum / float64(weightRuns)
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Event("sample_end", map[string]any{
			"executions": rep.Executions, "failures": rep.Failures,
			"distinct_states": rep.DistinctStates, "distinct_shapes": rep.DistinctShapes,
			"saturated": rep.Saturated,
			"wall_ms":   float64(time.Since(start).Microseconds()) / 1000,
		})
	}
	if firstFail != nil {
		rep.FailSeed = firstFail.Seed
		return rep, &engine.CheckError{Seed: firstFail.Seed, Schedule: firstFail.Schedule, Sampled: true, Err: firstFail.Err}
	}
	return rep, nil
}

// SampleCrashProb is the conventional per-decision crash probability of
// crash-mode sampling: high enough that most sampled runs exercise crash
// recovery, low enough that long, mostly-live interleavings stay in the
// sample (a uniform choice over the step-and-crash branch space engine.Run
// explores would crash at half of all decisions).
const SampleCrashProb = 0.25

// Sample runs k uniformly random interleavings of h (seeds seed..seed+k-1)
// on one worker, with seeded crash injection at SampleCrashProb when crashes
// is set: the fallback tests reach for at process counts where exhaustive
// exploration is infeasible. Sampling stops at the end of the first batch
// containing a failure, so on a failing harness Executions may exceed the
// failing run's index.
func Sample(h engine.Harness, k int, seed int64, crashes bool) (Report, error) {
	cfg := Config{Sampler: SamplerRandom, Samples: k, Seed: seed, Workers: 1}
	if crashes {
		cfg.CrashProb = SampleCrashProb
	}
	return Run(h, cfg)
}
