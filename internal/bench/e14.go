package bench

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/stats"
)

// intCell renders a count cell, marking budget-cut walks so they are never
// misread as exact.
func intCell(v int, partial bool) string {
	s := fmt.Sprintf("%d", v)
	if partial {
		s += " (budget-cut)"
	}
	return s
}

// RunE14 is the engine-unification ledger: source-DPOR versus the legacy
// sleep sets on the reference A1 and composed scenarios (or the scenario
// selected with composebench -scenario), one worker so every number is
// exact. Both reductions complete exactly one interleaving per
// Mazurkiewicz trace class, so the executions columns must coincide; the
// claim is the attempts column — the redundant, ultimately sleep-blocked
// prefixes the race-driven backtracking never starts — and the wall-clock
// that tracks it. TestSourceDPORStrictReduction pins the attempt counts
// and TestSourceDPORSpeedupOverSleepSets the >=2x wall-clock bound.
func RunE14() []*Table {
	t := &Table{
		ID:    "E14",
		Title: "Unified engine core: source-DPOR vs legacy sleep sets (1 worker)",
		Claim: "Race-driven backtracking starts only the prefixes some observed race obligates, " +
			"where sleep sets enqueue every awake sibling and discover redundancy by running " +
			"prefixes into sleep-blocked aborts; equal executions at a fraction of the attempts " +
			"is what makes the default composed n=4 exhaustive check affordable.",
		Columns: []string{"harness", "mode", "executions", "attempts", "pruned", "backtracks", "wall-clock", "attempt reduction"},
	}
	const budget = 200000
	for _, cfg := range []struct {
		def string
		n   int
	}{
		{"a1", 2}, {"a1", 3}, {"composed", 2}, {"composed", 3},
	} {
		h, label := harnessFor(cfg.def, cfg.n)
		var sleepAttempts int
		for _, mode := range []engine.PruneMode{engine.PruneSleep, engine.PruneSourceDPOR} {
			var rep engine.Report
			var err error
			wall, heap := timedWithHeap(func() {
				rep, err = engine.Run(h, engine.Config{Prune: mode, Workers: 1, MaxExecutions: budget})
			})
			if err != nil {
				t.AddRow(label, mode.String(), "FAILED", err, "", "", "", "")
				continue
			}
			recordPerfHeap("E14", t.ID, label+" / "+mode.String(), rep.Executions, rep.Attempts, wall, heap)
			attempts := intCell(rep.Attempts, rep.Partial)
			reduction := "—"
			if mode == engine.PruneSleep {
				if !rep.Partial {
					sleepAttempts = rep.Attempts
				}
			} else if sleepAttempts > 0 && !rep.Partial {
				reduction = stats.F1(float64(sleepAttempts)/float64(rep.Attempts)) + "x"
			}
			t.AddRow(label, mode.String(), intCell(rep.Executions, rep.Partial), attempts,
				rep.Pruned, rep.Backtracks, wall.Round(100*time.Microsecond), reduction)
		}
	}
	t.Notes = "Shape check: per harness the two executions cells are equal (one completed " +
		"interleaving per trace class under either reduction) and the dpor attempts cell is " +
		"strictly smaller; EXPERIMENTS.md records the reference counts (a1 n=3: 4037 -> 1127 " +
		"attempts; composed n=3: 7165 -> 1991)."
	return []*Table{t}
}
