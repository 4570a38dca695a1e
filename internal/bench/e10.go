package bench

import (
	"time"

	"repro/internal/engine"
	"repro/internal/stats"
)

// RunE10 characterizes the exploration engine itself: for the composed TAS
// harness (or the scenario selected with composebench -scenario) it
// compares the seed-equivalent sequential walk (1 worker, no pruning)
// against the partial-order-reduced parallel walk (sleep sets, 8 workers),
// reporting execution counts, pruned-branch counts and wall-clock. The n=3
// row is pruned-only: its unpruned tree is far beyond any execution
// budget, which is precisely the capability the engine adds.
func RunE10() []*Table {
	t := &Table{
		ID:    "E10",
		Title: "Exploration engine: partial-order reduction and worker pool on the composed TAS",
		Claim: "Model-checking claims quantified over all interleavings become tractable for " +
			"larger n once commuting-access reorderings are explored once instead of " +
			"exhaustively, and source-DPOR's race-driven backtracking cuts strictly deeper " +
			"than sleep sets (enables the exhaustive n=3-with-crashes and default n=4 checks).",
		Columns: []string{"harness", "mode", "executions", "attempts", "pruned", "wall-clock", "reduction"},
	}
	type mode struct {
		name string
		cfg  engine.Config
	}
	// The attempt budget keeps the unpruned seed-mode row bounded when
	// -scenario swaps in a workload with a larger tree than the composed
	// TAS; the documented default rows stay far below it, so their counts
	// are unchanged.
	const budget = 200000
	rows := []struct {
		n     int
		modes []mode
	}{
		{2, []mode{
			{"seed (1 worker, no pruning)", engine.Config{MaxExecutions: budget}},
			{"sleep sets (8 workers)", engine.Config{MaxExecutions: budget, Prune: engine.PruneSleep, Workers: 8}},
			{"source-DPOR (8 workers)", engine.Config{MaxExecutions: budget, Prune: engine.PruneSourceDPOR, Workers: 8}},
		}},
		{3, []mode{
			{"sleep sets (8 workers)", engine.Config{MaxExecutions: budget, Prune: engine.PruneSleep, Workers: 8}},
			{"source-DPOR (8 workers)", engine.Config{MaxExecutions: budget, Prune: engine.PruneSourceDPOR, Workers: 8}},
		}},
	}
	for _, r := range rows {
		h, label := harnessFor("composed", r.n)
		var base int
		for _, m := range r.modes {
			var rep engine.Report
			var err error
			wall, heap := timedWithHeap(func() { rep, err = engine.Run(h, m.cfg) })
			if err != nil {
				t.AddRow(label, m.name, "FAILED", err, "", "", "")
				continue
			}
			recordPerfHeap("E10", t.ID, label+" / "+m.name, rep.Executions, rep.Attempts, wall, heap)
			// A budget-cut walk is marked and never used as a comparison
			// baseline: a reduction against a truncated count would be
			// silently wrong.
			execs := intCell(rep.Executions, rep.Partial)
			reduction := "—"
			if m.cfg.Prune == engine.PruneNone {
				if !rep.Partial {
					base = rep.Executions
				}
			} else if base > 0 && !rep.Partial {
				reduction = stats.F1(float64(base)/float64(rep.Executions)) + "x"
			}
			t.AddRow(label, m.name, execs, rep.Attempts, rep.Pruned,
				wall.Round(100*time.Microsecond), reduction)
		}
	}
	t.Notes = "Shape check: pruned executions are a small fraction of the seed mode's at equal " +
		"coverage of distinct behaviours (both reductions complete exactly one interleaving per " +
		"trace class, so their execution counts coincide; source-DPOR attempts strictly fewer " +
		"runs), and the n=3 tree is only explorable in pruned mode."
	return []*Table{t}
}
