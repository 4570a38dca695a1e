// Command tascheck drives the model-checking side of the reproduction over
// the scenario registry (internal/scenario): every checkable workload —
// the speculative test-and-set and its compositions, the consensus,
// snapshot and splitter substrates, the universal construction, the
// example workloads, and the seeded composition generator's gen:<seed>
// family — is a named scenario built on demand and explored exhaustively
// up to three processes (seeded-randomly beyond), with its oracle checked
// on every explored execution.
//
// Exploration runs on the unified engine core (internal/engine) through
// its exhaustive frontend: -workers sets the worker pool and -prune picks
// the partial-order reduction — source-DPOR race-driven backtracking
// (dpor, the default), the legacy sleep sets (sleep, which reproduces
// every count pinned before the engine unification), or none. -cache adds
// state-fingerprint caching in a cache shared across all workers (sleep or
// none only; see DESIGN.md for its soundness caveats), and -crashes adds
// crash branches at every decision point (seeded crash injection on the
// sampled path). Long explorations survive interruption: -timebudget cuts
// the walk after a wall-clock budget, -checkpoint-out saves the unexplored
// frontier, and -checkpoint-in resumes from it (sleep or none only:
// source-DPOR backtracking state is not serializable).
//
// Beyond -exhaustive-n processes the checker switches to the randomized
// entry point (engine.Sample): -sampler picks the scheduling distribution
// (uniform random, PCT with -pct-depth change points, the bias-corrected
// random walk, or rate-weighted stochastic scheduling with -rates),
// sampling runs on -workers parallel pooled executors with results —
// including the canonical failing seed — independent of the worker count,
// and -saturation stops early once coverage (distinct terminal states and
// schedule shapes) plateaus.
//
// -json prints the single-run result as one JSON object (scenario, mode,
// counts, verdict, canonical failure) for parity with composebench -json;
// the exit code still distinguishes ok (0) from failure (1).
//
// -scenario all runs the parallel sweep: every registered scenario,
// exhaustive below -exhaustive-n and sampled above, budgeted per scenario
// by -max and -samples, one deterministic report row each (byte-identical
// for every -workers value). -list prints the registry.
//
// Usage:
//
//	tascheck                          # scenario a1, 2 processes, exhaustive
//	tascheck -list
//	tascheck -scenario composed -n 3 -crashes
//	tascheck -scenario composed -n 3 -prune sleep    # legacy pinned counts
//	tascheck -scenario gen:7 -n 2     # a generated composition
//	tascheck -scenario a1 -n 2 -json
//	tascheck -scenario all -n 2 -max 20000 -samples 500 -workers 8
//	tascheck -scenario composed -n 5 -sampler pct -samples 5000 -workers 8
//	tascheck -scenario composed -n 8 -sampler rates -rates 8,1 -saturation 5
//	tascheck -scenario composed -n 4 -exhaustive-n 4 -prune sleep -timebudget 30s -checkpoint-out f.json
//	tascheck -scenario composed -n 4 -exhaustive-n 4 -prune sleep -checkpoint-in f.json -workers 16
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/sched"
)

func main() {
	scenarioName := flag.String("scenario", defScenario, "scenario to check: a registered name, gen:<seed>, or 'all' for the sweep (see -list)")
	list := flag.Bool("list", false, "print every registered and generator scenario with its oracle, then exit")
	n := flag.Int("n", 0, "number of processes (0 = the scenario's default; at most 64)")
	maxExecs := flag.Int("max", defMax, "max execution attempts for exhaustive exploration (per scenario in a sweep)")
	samples := flag.Int("samples", defSamples, "sampled schedules when n > -exhaustive-n (per scenario in a sweep)")
	seed := flag.Int64("seed", defSeed, "base seed for sampled schedules")
	sampler := flag.String("sampler", defSampler, "sampled-mode scheduler: random | pct | walk | rates")
	pctDepth := flag.Int("pct-depth", engine.DefaultPCTDepth, "PCT bug-depth parameter d (d-1 priority change points)")
	rates := flag.String("rates", "", "comma-separated per-process rate weights for -sampler rates (later processes reuse the last weight)")
	saturation := flag.Int("saturation", 0, "stop sampling after this many consecutive batches with no new coverage (0 = off)")
	workers := flag.Int("workers", defWorkers, "parallel exploration workers (parallel scenarios in a sweep)")
	prune := flag.String("prune", defPrune, "partial-order reduction: dpor (source-DPOR) | sleep (legacy sleep sets) | none")
	cache := flag.Bool("cache", false, "state-fingerprint caching, shared across workers (requires -prune sleep or none; see DESIGN.md caveats)")
	crashes := flag.Bool("crashes", false, "explore crash branches at every decision point")
	failFast := flag.Bool("failfast", false, "stop at the first failing schedule instead of the canonical one")
	exhaustiveN := flag.Int("exhaustive-n", 3, "largest n explored exhaustively rather than sampled")
	timeBudget := flag.Duration("timebudget", 0, "stop the exhaustive walk after this wall-clock budget (0 = none)")
	ckptOut := flag.String("checkpoint-out", "", "write the unexplored frontier of a budget-cut walk to this file")
	ckptIn := flag.String("checkpoint-in", "", "resume the walk from a frontier saved by -checkpoint-out")
	jsonOut := flag.Bool("json", false, "print the single-run result as one JSON object (not valid with -scenario all or -list)")
	progress := flag.Duration("progress", 0, "print a live status line (attempts/sec, frontier, ETA) to stderr at this interval (0 = off)")
	events := flag.String("events", "", "write run lifecycle events to this file as JSON lines")
	debugAddr := flag.String("debug-addr", "", "serve /metrics (Prometheus), /statusz (JSON) and /debug/pprof on this address for the run's duration")
	traceOut := flag.String("trace-out", "", "write a failing interleaving as a Chrome trace-event JSON file (viewable in Perfetto)")
	flag.Parse()

	pruneMode, err := engine.ParsePruneMode(*prune)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tascheck: %v\n", err)
		os.Exit(2)
	}
	cf := &cliFlags{
		sampler:    *sampler,
		pctDepth:   *pctDepth,
		rates:      *rates,
		saturation: *saturation,
		maxExecs:   *maxExecs,
		samples:    *samples,
		seed:       *seed,
		prune:      pruneMode,
		cache:      *cache,
		ckptOut:    *ckptOut,
		ckptIn:     *ckptIn,
		timeBudget: *timeBudget,
		failFast:   *failFast,
		jsonOut:    *jsonOut,
		progress:   *progress,
		events:     *events,
		debugAddr:  *debugAddr,
		traceOut:   *traceOut,
	}
	validate := func(path runPath, procs int) {
		if verr := validateFlags(cf, path, pathContexts(procs, *exhaustiveN)); verr != nil {
			fmt.Fprintf(os.Stderr, "tascheck: %v\n", verr)
			os.Exit(2)
		}
	}

	if *list {
		validate(pathList, 0)
		fmt.Print(scenario.Listing())
		return
	}

	if *scenarioName == "all" {
		validate(pathSweep, 0)
		checkProcs(*n)
		runSweep(cf, *n, *exhaustiveN, *maxExecs, *samples, *seed, *workers, *crashes)
		return
	}

	sc, err := scenario.Lookup(*scenarioName)
	if err != nil {
		exitWithListing("%v", err)
	}
	procs := sc.Procs(*n)
	checkProcs(procs)
	if *crashes && !sc.Params.Crashes {
		fmt.Fprintf(os.Stderr, "tascheck: scenario %s does not support -crashes (its checks assume every process completes)\n", sc.Name)
		os.Exit(2)
	}
	opts := scenario.Options{Crashes: *crashes}
	h, oracle := sc.Build(procs, opts)

	if procs > *exhaustiveN {
		// The sampled path has no frontier, budget or fingerprint cache;
		// reject rather than silently ignore the flags, so a user who meant
		// to resume or budget an exhaustive walk learns to raise
		// -exhaustive-n instead of reading a vacuous OK.
		validate(pathSampled, procs)
		runSampled(cf, h, sc, procs, oracle, *workers, *crashes, opts)
		return
	}
	// Symmetrically, the sampler knobs mean nothing on an exhaustive walk,
	// and source-DPOR cannot honour the cache or checkpoint flags.
	path := pathExhaustive
	if pruneMode == engine.PruneSourceDPOR {
		path = pathExhaustiveDPOR
	}
	validate(path, procs)

	session, err := newObsSession(cf, *workers, map[string]string{
		"scenario": sc.Name, "n": fmt.Sprintf("%d", procs),
		"mode": "exhaustive", "prune": pruneMode.String(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tascheck: %v\n", err)
		os.Exit(2)
	}
	if *progress > 0 {
		// A short walk-sampler probe on a fresh harness instance yields a
		// Knuth estimate of the full tree — an exact attempts target under
		// -prune none, an upper bound under any reduction.
		session.startProgress(*progress, estimateTree(sc, procs, opts), pruneMode != engine.PruneNone, sc.Name)
	}

	cfg := engine.Config{
		MaxExecutions: *maxExecs,
		TimeBudget:    *timeBudget,
		Crashes:       *crashes,
		Workers:       *workers,
		Prune:         pruneMode,
		CacheStates:   *cache,
		FailFast:      *failFast,
		Metrics:       session.metrics(),
	}
	if *ckptIn != "" {
		cfg.Resume, err = loadCheckpoint(*ckptIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tascheck: %v\n", err)
			os.Exit(2)
		}
	}
	rep, err := engine.Run(h, cfg)
	if rep.Checkpoint != nil && *ckptOut != "" {
		if werr := saveCheckpoint(*ckptOut, rep.Checkpoint); werr != nil {
			fmt.Fprintf(os.Stderr, "tascheck: %v\n", werr)
			os.Exit(2)
		}
		session.event("checkpoint_saved", map[string]any{"path": *ckptOut, "items": len(rep.Checkpoint.Items)})
		fmt.Fprintf(os.Stderr, "tascheck: frontier checkpoint (%d items) saved to %s; resume with -checkpoint-in %s\n",
			len(rep.Checkpoint.Items), *ckptOut, *ckptOut)
	}
	session.close(verdictOf(err))
	var ce *engine.CheckError
	if errors.As(err, &ce) && *traceOut != "" {
		if terr := writeTraceOut(*traceOut, sc, procs, opts, ce.Schedule); terr != nil {
			fmt.Fprintf(os.Stderr, "tascheck: %v\n", terr)
		}
	}
	how := "exhaustive"
	if *ckptIn != "" {
		how = "resumed"
	}
	if rep.Partial {
		how = "exhaustive-partial"
	}
	if *jsonOut {
		printJSON(scenario.ExhaustiveResult(sc.Name, procs, oracle, pruneMode, how, rep, err))
		if err != nil {
			os.Exit(1)
		}
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tascheck: FAILED after %d executions: %v\n", rep.Executions, err)
		if sc.Params.ExpectFail {
			fmt.Fprintf(os.Stderr, "tascheck: (scenario %s plants this bug; finding it is the expected outcome)\n", sc.Name)
		}
		os.Exit(1)
	}
	if rep.Partial {
		how = "partial (hit -max or -timebudget)"
	}
	fmt.Printf("tascheck %s (n=%d, oracle %s, prune %s): OK — %d interleavings (%s), %d pruned as redundant, %d backtracks, %d state-cache hits, %d prefix replays, max depth %d\n",
		sc.Name, procs, oracle, pruneMode, rep.Executions, how, rep.Pruned, rep.Backtracks, rep.CacheHits, rep.Replays, rep.MaxDepth)
}

// checkProcs rejects, as a usage error, a process count no gated execution
// can hold (sched.MaxProcs).
func checkProcs(n int) {
	if err := sched.CheckProcs(n); err != nil {
		fmt.Fprintf(os.Stderr, "tascheck: %v\n", err)
		os.Exit(2)
	}
}

// verdictOf folds a run error into the run_end event's verdict field.
func verdictOf(err error) string {
	if err == nil {
		return "ok"
	}
	var ce *engine.CheckError
	if errors.As(err, &ce) {
		return "fail"
	}
	return "error"
}

// printJSON emits one indented JSON object on stdout.
func printJSON(v any) {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "tascheck: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(data))
}

// exitWithListing prints the error followed by the scenario registry, the
// fix for nearly every unknown-name mistake, and exits with a usage error.
func exitWithListing(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tascheck: "+format+"\n\navailable scenarios:\n\n", args...)
	fmt.Fprint(os.Stderr, scenario.Listing())
	os.Exit(2)
}

// runSweep drives the registry-wide parallel sweep and prints its
// deterministic report.
func runSweep(cf *cliFlags, n, exhaustiveN, maxExecs, samples int, seed int64, workers int, crashes bool) {
	session, serr := newObsSession(cf, workers, map[string]string{"mode": "sweep"})
	if serr != nil {
		fmt.Fprintf(os.Stderr, "tascheck: %v\n", serr)
		os.Exit(2)
	}
	session.startProgress(cf.progress, 0, false, "sweep")
	cfg := scenario.SweepConfig{
		N:             n,
		ExhaustiveN:   exhaustiveN,
		MaxExecutions: maxExecs,
		Samples:       samples,
		Seed:          seed,
		Workers:       workers,
		Crashes:       crashes,
		Metrics:       session.metrics(),
	}
	rows, err := scenario.Sweep(scenario.Registered(), cfg)
	session.close(verdictOf(err))
	fmt.Print(scenario.Render(rows))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tascheck: %v\n", err)
		os.Exit(1)
	}
}

// runSampled drives engine.Sample for process counts beyond the
// exhaustive range and prints its coverage-aware summary.
func runSampled(cf *cliFlags, h engine.Harness, sc scenario.Scenario, procs int, oracle scenario.Oracle, workers int, crashes bool, opts scenario.Options) {
	kind, err := engine.ParseSampler(cf.sampler)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tascheck: %v\n", err)
		os.Exit(2)
	}
	weights, err := parseRates(cf.rates)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tascheck: %v\n", err)
		os.Exit(2)
	}
	session, serr := newObsSession(cf, workers, map[string]string{
		"scenario": sc.Name, "n": fmt.Sprintf("%d", procs),
		"mode": "sampled", "sampler": string(kind),
	})
	if serr != nil {
		fmt.Fprintf(os.Stderr, "tascheck: %v\n", serr)
		os.Exit(2)
	}
	// The sample count is an exact total for the ETA (saturation or a
	// failing batch may legitimately finish sooner).
	session.startProgress(cf.progress, float64(cf.samples), false, sc.Name)
	cfg := engine.SampleConfig{
		Sampler:    kind,
		Samples:    cf.samples,
		Seed:       cf.seed,
		Workers:    workers,
		PCTDepth:   cf.pctDepth,
		Rates:      weights,
		SatBatches: cf.saturation,
		Crashes:    crashes,
		Metrics:    session.metrics(),
	}
	rep, err := engine.Sample(h, cfg)
	session.close(verdictOf(err))
	var ceTrace *engine.CheckError
	if errors.As(err, &ceTrace) && cf.traceOut != "" {
		if terr := writeTraceOut(cf.traceOut, sc, procs, opts, ceTrace.Schedule); terr != nil {
			fmt.Fprintf(os.Stderr, "tascheck: %v\n", terr)
		}
	}
	if cf.jsonOut {
		printJSON(scenario.SampledResult(sc.Name, procs, oracle, string(kind), rep, err))
		if err != nil {
			os.Exit(1)
		}
		return
	}
	if err != nil {
		var ce *engine.CheckError
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "tascheck: FAILED after %d sampled executions: seed %d reproduces it (schedule %v): %v\n",
				rep.Executions, ce.Seed, ce.Schedule, ce.Err)
		} else {
			fmt.Fprintf(os.Stderr, "tascheck: %v\n", err)
		}
		os.Exit(1)
	}
	how := fmt.Sprintf("sampled, %s", kind)
	if kind == engine.SamplerPCT {
		how = fmt.Sprintf("sampled, pct d=%d k=%d", cf.pctDepth, rep.PCTSteps)
	}
	if rep.Saturated {
		how += ", saturated early"
	}
	states := "unavailable (harness registers no fingerprintable objects)"
	if rep.FingerprintOK {
		states = fmt.Sprintf("%d", rep.DistinctStates)
	}
	fmt.Printf("tascheck %s (oracle %s): OK — %d interleavings (%s), distinct terminal states %s, distinct schedule shapes %d, max depth %d\n",
		sc.Name, oracle, rep.Executions, how, states, rep.DistinctShapes, rep.MaxDepth)
	if kind == engine.SamplerWalk && rep.TreeSizeEstimate > 0 {
		fmt.Printf("tascheck: walk estimate of total interleavings: %.3g\n", rep.TreeSizeEstimate)
	}
}

// parseRates parses the -rates flag: a comma-separated list of positive
// weights.
func parseRates(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -rates entry %q: want positive numbers", p)
		}
		out = append(out, w)
	}
	return out, nil
}

func loadCheckpoint(path string) (*engine.Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading checkpoint: %w", err)
	}
	var ck engine.Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("parsing checkpoint %s: %w", path, err)
	}
	return &ck, nil
}

func saveCheckpoint(path string, ck *engine.Checkpoint) error {
	data, err := json.MarshalIndent(ck, "", " ")
	if err != nil {
		return fmt.Errorf("encoding checkpoint: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing checkpoint: %w", err)
	}
	return nil
}
