package bench

import (
	"fmt"
	"time"

	"repro/internal/explore"
	"repro/internal/stats"
)

// RunE11 characterizes the reusable execution core added on top of E10's
// engine, on registry harnesses (the A1 and composed scenarios by default,
// or the scenario selected with composebench -scenario). Table one compares
// the pooled executor (one instance per worker, Env.Reset between
// executions) against constructing everything per execution — the harness's
// object graph and a one-shot executor with its n coroutines — on identical
// walks. Both modes run the same gate protocol (there is only one); what
// the comparison prices is construction and teardown. Table two measures
// state-fingerprint caching (CacheStates) on top of sleep sets: executions
// skipped because an equal (memory fingerprint, per-process progress,
// sleep set) decision point was already explored.
func RunE11() []*Table {
	poolTab := &Table{
		ID:    "E11a",
		Title: "Execution core: pooled executors vs construct per execution (1 worker)",
		Claim: "Checking throughput is the scaling axis of the reproduction: keeping one " +
			"executor (its process coroutines) and resetting one registered object graph makes " +
			"each explored execution nearly free, where the construct-per-execution path " +
			"(harnesses without a reset) rebuilds the object graph and creates and stops a " +
			"coroutine per process for every interleaving.",
		Columns: []string{"harness", "mode", "executions", "wall-clock", "speedup"},
	}
	type row struct {
		label string
		h     explore.Harness
		cfg   explore.Config
	}
	// As in E10, the attempt budget only matters when -scenario swaps in a
	// workload with a larger tree than the documented defaults.
	const budget = 200000
	mkRow := func(def string, n int, suffix string, cfg explore.Config) row {
		h, label := harnessFor(def, n)
		cfg.MaxExecutions = budget
		return row{label + suffix, h, cfg}
	}
	const construct, pooled = "construct per execution", "pooled executor"
	for _, r := range []row{
		mkRow("a1", 2, " (seed walk: no pruning)", explore.Config{Workers: 1}),
		mkRow("a1", 3, " (sleep sets)", explore.Config{Prune: explore.PruneSleep, Workers: 1}),
		mkRow("a1", 3, " (source-DPOR)", explore.Config{Prune: explore.PruneSourceDPOR, Workers: 1}),
	} {
		var constructWall time.Duration
		for _, mode := range []string{construct, pooled} {
			h := r.h
			if mode == construct {
				h = explore.NoReset(h)
			}
			start := time.Now()
			rep, err := explore.Run(h, r.cfg)
			wall := time.Since(start)
			if err != nil {
				poolTab.AddRow(r.label, mode, "FAILED", err, "")
				continue
			}
			recordPerf("E11", poolTab.ID, r.label+" / "+mode, rep.Executions, rep.Attempts, wall)
			// Budget-cut rows are marked and excluded from the speedup
			// ratio: the two modes may have been cut at different depths.
			execs := fmt.Sprintf("%d", rep.Executions)
			if rep.Partial {
				execs += " (budget-cut)"
			}
			speedup := "—"
			if mode == construct {
				if !rep.Partial {
					constructWall = wall
				}
			} else if constructWall > 0 && !rep.Partial {
				speedup = stats.F1(float64(constructWall)/float64(wall)) + "x"
			}
			poolTab.AddRow(r.label, mode, execs, wall.Round(100*time.Microsecond), speedup)
		}
	}
	poolTab.Notes = "Shape check: execution counts per harness are identical across modes (pooling " +
		"is a pure performance change; TestSeedExecutionCountA1TwoProcs pins the 9662-execution " +
		"seed walk) and the pooled rows construct their harness once where the other mode constructs it " +
		"per attempt (TestPooledExecutorSpeedup pins 1 vs 4037 constructions)."

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
		mkRow("a1", 2, "", explore.Config{Prune: explore.PruneSleep, Workers: 1}),
		mkRow("a1", 3, "", explore.Config{Prune: explore.PruneSleep, Workers: 1}),
		mkRow("composed", 3, "", explore.Config{Prune: explore.PruneSleep, Workers: 1}),
	} {
		for _, cache := range []bool{false, true} {
			cfg := r.cfg
			cfg.CacheStates = cache
			start := time.Now()
			rep, err := explore.Run(r.h, cfg)
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
	return []*Table{poolTab, cacheTab}
}
