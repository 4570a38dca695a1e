package engine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Sampler names a scheduling distribution of Sample (see internal/sched
// for their semantics and guarantees).
type Sampler string

// The available samplers.
const (
	// SamplerRandom chooses uniformly among parked processes at every
	// decision.
	SamplerRandom Sampler = "random"
	// SamplerPCT is the PCT priority scheduler: its d−1 priority change
	// points give every run probability at least 1/(n·k^(d−1)) of
	// triggering any depth-d ordering bug. The schedule-length bound k is
	// measured by one deterministic round-robin probe run.
	SamplerPCT Sampler = "pct"
	// SamplerWalk samples uniformly but tracks the product of branching
	// factors; averaging the weights estimates the total interleaving count
	// (SampleReport.TreeSizeEstimate).
	SamplerWalk Sampler = "walk"
	// SamplerRates weights processes by per-process rates, the "practically
	// wait-free" scheduler model: skewed rates reach the slow-straggler
	// orderings uniform sampling essentially never produces.
	SamplerRates Sampler = "rates"
)

// ParseSampler validates a sampler name (as passed to tascheck -sampler).
func ParseSampler(s string) (Sampler, error) {
	switch Sampler(s) {
	case SamplerRandom, SamplerPCT, SamplerWalk, SamplerRates:
		return Sampler(s), nil
	}
	return "", fmt.Errorf("engine: unknown sampler %q (random | pct | walk | rates)", s)
}

// Defaults for SampleConfig fields left zero.
const (
	DefaultBatchSize = 64
	DefaultPCTDepth  = 3
)

// sampleCrashProb is the per-decision crash probability of crash-mode
// sampling: high enough that most sampled runs exercise crash recovery, low
// enough that long, mostly-live interleavings stay in the sample (a uniform
// choice over the step-and-crash branch space Run explores would crash at
// half of all decisions).
const sampleCrashProb = 0.25

// SampleConfig parameterizes a sampling run.
type SampleConfig struct {
	// Sampler selects the scheduling distribution (default SamplerRandom).
	Sampler Sampler
	// Samples is the total number of seeded runs: seeds Seed..Seed+Samples-1.
	Samples int
	// Seed is the base seed.
	Seed int64
	// Workers is the number of runs executed concurrently (0 or 1 =
	// sequential). Worker count never changes any reported result, only
	// wall-clock.
	Workers int
	// Crashes injects seeded crashes: at each decision a parked process is
	// crashed with probability 1/4.
	Crashes bool
	// PCTDepth is the PCT bug-depth parameter d: d−1 priority change
	// points per run (default DefaultPCTDepth). Only meaningful for the
	// pct sampler.
	PCTDepth int
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
	// SampleReport field is identical with Metrics attached or nil.
	Metrics *obs.Metrics
}

// SampleReport summarizes a sampling run. All fields are independent of
// SampleConfig.Workers.
type SampleReport struct {
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
	// PCTSteps is the schedule-length bound k the pct sampler used (the
	// probe's result); 0 for other samplers.
	PCTSteps int
	// TreeSizeEstimate is the walk sampler's unbiased estimate of the
	// total number of interleavings; 0 for other samplers and under crash
	// injection (which invalidates the estimator).
	TreeSizeEstimate float64
	// WallTime is the wall-clock duration of the Sample call. Advisory by
	// nature: never identical across runs or machines.
	WallTime time.Duration
}

// Sample runs cfg.Samples seeded executions of h and returns the merged
// report: where Run discharges a claim by enumerating every interleaving,
// Sample opens the large-n regime by drawing interleavings from a scheduler
// distribution, with a coverage signal and deterministic failure reporting.
//
// Sampling proceeds in batches of cfg.BatchSize consecutive seeds. Within
// a batch, runs execute on the worker pool — each worker owning one pooled
// instance and one re-armed strategy of the configured sampler — but
// outcomes are merged in seed order, batch by batch. Coverage, the
// saturation decision and the canonical failure (the lex-least failing
// seed, always in the first batch that contains any failure) are therefore
// identical for every worker count; only wall-clock changes.
//
// Each run contributes its terminal-state fingerprint and its schedule
// shape (the (proc, crash) choice sequence). With cfg.SatBatches set,
// sampling stops once that many consecutive batches discover neither;
// saturation is a stopping heuristic, not a soundness claim (DESIGN.md).
//
// A check failure is returned as a *CheckError (Sampled set) carrying the
// lex-least failing seed and its schedule, so re-running the seed or
// replaying the schedule with sched.NewReplay reproduces it without
// re-sampling the batch. A harness closure that panics, or a harness the
// core rejects, ends the run with an error naming the cause and, of several
// in one batch, the lowest seed reached (see Harness).
func Sample(h Harness, cfg SampleConfig) (rep SampleReport, err error) {
	start := time.Now()
	rep = SampleReport{DepthHist: stats.NewHist(8)}
	defer func() { rep.WallTime = time.Since(start) }()
	if cfg.Sampler == "" {
		cfg.Sampler = SamplerRandom
	}
	if _, err := ParseSampler(string(cfg.Sampler)); err != nil {
		return rep, err
	}
	if cfg.Samples <= 0 {
		return rep, nil
	}
	batch := cfg.BatchSize
	if batch < 1 {
		batch = DefaultBatchSize
	}
	if cfg.PCTDepth < 1 {
		cfg.PCTDepth = DefaultPCTDepth
	}

	c := newCore(h, cfg.Workers)
	defer c.close()
	if cfg.Metrics != nil {
		remove := c.registerObs(cfg.Metrics)
		defer remove()
		cfg.Metrics.Event("sample_start", map[string]any{
			"sampler": string(cfg.Sampler), "samples": cfg.Samples,
			"seed": cfg.Seed, "batch": batch, "workers": cfg.Workers,
		})
	}
	if cfg.Sampler == SamplerPCT {
		if rep.PCTSteps, err = c.probe(sched.NewRoundRobin()); err != nil {
			return rep, err
		}
	}

	states := make(map[memory.Fingerprint]struct{})
	shapes := make(map[uint64]struct{})
	var firstFail *seedOutcome
	weightSum, weightRuns := 0.0, 0
	staleBatches := 0
	samplers := make([]seedSampler, len(c.insts)) // slot w is touched only by worker w
	for next, remaining := cfg.Seed, cfg.Samples; remaining > 0; {
		m := min(batch, remaining)
		outs, fatal := c.sampleBatch(&cfg, samplers, next, m, rep.PCTSteps)
		if fatal != nil {
			return rep, fatal
		}
		next += int64(m)
		remaining -= m

		// Merge in seed order: coverage, depth accounting, failures.
		newCov := 0
		for i := range outs {
			o := &outs[i]
			rep.Executions++
			rep.DepthHist.Add(o.depth)
			rep.MaxDepth = max(rep.MaxDepth, o.depth)
			if o.fpOK {
				rep.FingerprintOK = true
				if _, seen := states[o.fp]; !seen {
					states[o.fp] = struct{}{}
					newCov++
				}
			}
			if _, seen := shapes[o.shape]; !seen {
				shapes[o.shape] = struct{}{}
				newCov++
			}
			if o.weight > 0 {
				weightSum += o.weight
				weightRuns++
			}
			if o.err != nil {
				rep.Failures++
				if firstFail == nil {
					firstFail = o
					if cfg.Metrics != nil {
						cfg.Metrics.Event("failure_found", map[string]any{
							"seed": o.seed, "depth": o.depth, "error": o.err.Error(),
						})
					}
				}
			}
		}
		rep.CoverageCurve = append(rep.CoverageCurve, newCov)

		if firstFail != nil && !cfg.KeepGoing {
			break
		}
		if cfg.SatBatches > 0 {
			if newCov == 0 {
				staleBatches++
			} else {
				staleBatches = 0
			}
			if staleBatches >= cfg.SatBatches {
				rep.Saturated = true
				break
			}
		}
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
		rep.FailSeed = firstFail.seed
		return rep, &CheckError{Seed: firstFail.seed, Schedule: firstFail.schedule, Sampled: true, Err: firstFail.err}
	}
	return rep, nil
}

// probe runs one throwaway execution under the strategy on worker 0's
// instance — resetting it afterwards — and returns the schedule length
// (minimum 1): the PCT bound k. A panicking harness is reported as in
// sampleBatch.
func (c *core) probe(s sched.Chooser) (depth int, err error) {
	inst, err := c.instanceFor(0)
	if err != nil {
		return 0, err
	}
	stage := stageRun
	defer func() {
		if r := recover(); r != nil {
			err = harnessPanic(stage, r, nil)
		}
	}()
	res := inst.exec.Run(s)
	c.checkMu.Lock()
	defer c.checkMu.Unlock()
	stage = stageReset
	inst.env.Reset()
	inst.reset()
	return max(len(res.Schedule), 1), nil
}

// seedOutcome is the record of one seeded run, merged in seed order.
type seedOutcome struct {
	seed  int64
	depth int
	shape uint64 // shapeHash of the schedule
	// fp is the terminal-state digest, taken before the instance is reset;
	// fpOK reports whether the harness registers fingerprintable objects.
	fp   memory.Fingerprint
	fpOK bool
	// weight is the walk sampler's importance weight; zero otherwise.
	weight float64
	// err is the check failure, if any; schedule is retained only then, so
	// the failing interleaving can be replayed.
	err      error
	schedule []sched.Choice
}

// seedSampler is one worker's strategies. The seeded strategies are
// single-run state with a Reset method, so the worker keeps one value of
// each (and one crash wrapper) and re-arms the configured one per run: the
// draws are those of a freshly constructed strategy, without constructing
// one — a generator alone is ~5 KB — per sampled execution.
type seedSampler struct {
	random      sched.Random
	randomCrash sched.RandomCrash
	pct         sched.PCT
	walk        sched.Walk
	rates       sched.Rates
	crashes     sched.Crashes
}

// arm re-arms the configured sampler for the run of seed over n processes;
// k is the PCT bound.
func (s *seedSampler) arm(cfg *SampleConfig, seed int64, n, k int) sched.Chooser {
	var c sched.Chooser
	switch cfg.Sampler {
	case SamplerPCT:
		c = s.pct.Reset(seed, n, k, cfg.PCTDepth)
	case SamplerWalk:
		c = s.walk.Reset(seed)
	case SamplerRates:
		c = s.rates.Reset(seed, cfg.Rates)
	default: // SamplerRandom
		if cfg.Crashes {
			// One stream for decisions and crashes: the draw order every
			// pinned crash-mode sample was recorded under.
			return s.randomCrash.Reset(seed, sampleCrashProb)
		}
		return s.random.Reset(seed)
	}
	if cfg.Crashes {
		// Crash draws come from a distinct stream so they cannot perturb
		// the structured samplers' decision state.
		c = s.crashes.Reset(c, seed^0x5DEECE66D, sampleCrashProb)
	}
	return c
}

// sampleBatch runs seeds first..first+m-1 on the core's worker pool and
// returns their outcomes in seed order. A harness closure that panics — or
// a harness the core rejects at construction — stops the workers, and the
// error names the cause on the lowest seed reached.
func (c *core) sampleBatch(cfg *SampleConfig, samplers []seedSampler, first int64, m, k int) ([]seedOutcome, error) {
	outs := make([]seedOutcome, m)
	fatal := make([]*seedFatal, len(c.insts)) // slot w is touched only by worker w
	var idx atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := range min(len(c.insts), m) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(idx.Add(1)) - 1
				if i >= m {
					return
				}
				outs[i], fatal[w] = c.runSeed(w, cfg, &samplers[w], first+int64(i), k)
				if fatal[w] != nil {
					stop.Store(true)
					return
				}
				if cfg.Metrics != nil {
					cfg.Metrics.Samples.Inc(w)
				}
			}
		}()
	}
	wg.Wait()
	if !stop.Load() {
		return outs, nil
	}
	// Seeds are claimed in order and each worker stops at its first fatal
	// run, so the lowest such seed is among the recorded ones.
	var low *seedFatal
	for _, f := range fatal {
		if f != nil && (low == nil || f.seed < low.seed) {
			low = f
		}
	}
	return nil, low
}

// seedFatal is what ends a sampling run — a harness panic, or a harness
// rejected at construction — tagged with the seed whose run hit it.
type seedFatal struct {
	seed int64
	err  error
}

func (e *seedFatal) Error() string { return fmt.Sprintf("seed %d: %v", e.seed, e.err) }
func (e *seedFatal) Unwrap() error { return e.err }

// runSeed performs one seeded run on worker w's instance and records its
// outcome. The terminal fingerprint is taken before the instance is reset,
// and a failing schedule is copied out of the executor's reused Result. A
// panic in a harness closure, or a rejected harness, comes back as fatal.
func (c *core) runSeed(w int, cfg *SampleConfig, s *seedSampler, seed int64, k int) (out seedOutcome, fatal *seedFatal) {
	inst, err := c.instanceFor(w)
	if err != nil {
		return out, &seedFatal{seed: seed, err: err}
	}
	stage := stageRun
	var res *sched.Result
	defer func() {
		if r := recover(); r != nil {
			fatal = &seedFatal{seed: seed, err: harnessPanic(stage, r, res)}
		}
	}()
	res = inst.exec.Run(s.arm(cfg, seed, inst.env.N(), k))
	out = seedOutcome{seed: seed, depth: len(res.Schedule), shape: shapeHash(res.Schedule)}
	out.fp, out.fpOK = inst.env.Fingerprint()
	// Crash injection truncates paths and shrinks later parked sets, so the
	// walk's weight no longer inverts any fixed tree's path probability: no
	// weight is read, and no estimate reported rather than a wrong one.
	if cfg.Sampler == SamplerWalk && !cfg.Crashes {
		out.weight = math.Exp(s.walk.LogWeight())
	}
	c.checkMu.Lock()
	defer c.checkMu.Unlock()
	stage = stageCheck
	if err := inst.check(res); err != nil {
		out.err = err
		out.schedule = append([]sched.Choice(nil), res.Schedule...)
	}
	stage = stageReset
	inst.env.Reset()
	inst.reset()
	return out, nil
}

// shapeHash folds a schedule's (proc, crash) sequence into a 64-bit
// signature — the coverage unit for "distinct schedule shapes".
func shapeHash(schedule []sched.Choice) uint64 {
	h := memory.NewStateHash()
	for _, c := range schedule {
		w := uint64(c.Proc) << 1
		if c.Crash {
			w |= 1
		}
		h.Add(w)
	}
	return h.Sum()
}
