package bench

import (
	"fmt"
	"time"

	"repro/internal/engine"
)

// RunE11 measures state-fingerprint caching (CacheStates) on top of sleep
// sets, on registry harnesses (the A1 and composed scenarios by default, or
// the scenario selected with composebench -scenario): executions skipped
// because an equal (memory fingerprint, per-process progress, sleep set)
// decision point was already explored. E11b is the experiment's only table;
// the id is the one its BENCH_E11.json rows carry.
func RunE11() []*Table {
	type row struct {
		label string
		h     engine.Harness
		cfg   engine.Config
	}
	// As in E10, the attempt budget only matters when -scenario swaps in a
	// workload with a larger tree than the documented defaults.
	const budget = 200000
	mkRow := func(def string, n int, cfg engine.Config) row {
		h, label := harnessFor(def, n)
		cfg.MaxExecutions = budget
		return row{label, h, cfg}
	}

	cacheTab := &Table{
		ID:    "E11b",
		Title: "State-fingerprint caching on top of sleep sets (1 worker)",
		Claim: "Distinct interleavings that converge to the same (shared memory, per-process " +
			"progress, sleep set) have identical futures; caching the fingerprint of every " +
			"branching decision point skips re-exploring them — pruning beyond independence-" +
			"based sleep sets, under the soundness caveats recorded in DESIGN.md.",
		Columns: []string{"harness", "CacheStates", "executions", "cache hits", "pruned", "wall-clock"},
	}
	for _, r := range []row{
		mkRow("a1", 2, engine.Config{Prune: engine.PruneSleep, Workers: 1}),
		mkRow("a1", 3, engine.Config{Prune: engine.PruneSleep, Workers: 1}),
		mkRow("composed", 3, engine.Config{Prune: engine.PruneSleep, Workers: 1}),
	} {
		for _, cache := range []bool{false, true} {
			cfg := r.cfg
			cfg.CacheStates = cache
			start := time.Now()
			rep, err := engine.Run(r.h, cfg)
			wall := time.Since(start)
			if err != nil {
				cacheTab.AddRow(r.label, cache, "FAILED", err, "", "")
				continue
			}
			recordPerf("E11", cacheTab.ID, fmt.Sprintf("%s / cache=%v", r.label, cache), rep.Executions, rep.Attempts, wall)
			execs := fmt.Sprintf("%d", rep.Executions)
			if rep.Partial {
				execs += " (budget-cut)"
			}
			cacheTab.AddRow(r.label, cache, execs, rep.CacheHits, rep.Pruned,
				wall.Round(100*time.Microsecond))
		}
	}
	cacheTab.Notes = "Shape check: cached rows run no more executions than uncached ones and report " +
		"nonzero cache hits; counts are deterministic at 1 worker. The composed harness's hardware " +
		"TAS and registers all register with the Env, so its states fingerprint exactly."
	return []*Table{cacheTab}
}
