package bench

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// e12BugCfg is the planted rare-interleaving bug the sampler comparison
// hunts: scenario.HandoffBug at n=5 — a depth-2 ordering bug (a late flag
// publish must precede an eager first-step read, then the acknowledgement
// must land inside a narrow window), with probability about 2^-17 per run
// under uniform sampling.
const (
	e12BugN      = 5
	e12BugWarmup = 16
	e12BugGap    = 10
	e12Samples   = 1500
)

// e12Samplers are the sampler configurations both E12 tables compare.
var e12Samplers = []struct {
	name string
	cfg  engine.SampleConfig
}{
	{"uniform random", engine.SampleConfig{Sampler: engine.SamplerRandom}},
	{"pct d=1", engine.SampleConfig{Sampler: engine.SamplerPCT, PCTDepth: 1}},
	{"pct d=2", engine.SampleConfig{Sampler: engine.SamplerPCT, PCTDepth: 2}},
	{"pct d=3", engine.SampleConfig{Sampler: engine.SamplerPCT, PCTDepth: 3}},
	{"walk", engine.SampleConfig{Sampler: engine.SamplerWalk}},
	{"rates 12:1", engine.SampleConfig{Sampler: engine.SamplerRates, Rates: []float64{12, 1}}},
}

// RunE12 characterizes the randomized-exploration subsystem on the regime
// exhaustive checking cannot reach. Table one measures bug-finding power:
// each sampler hunts the planted depth-2 handoff bug at n=5 over the same
// seed range, reporting failure counts and the first failing seed — the
// PCT guarantee (and the rates model's straggler schedules) against
// uniform sampling's exponentially small hit probability. Table two
// measures coverage growth on the correct composed TAS at n=5–8: distinct
// terminal states and schedule shapes found by the same sample budget, and
// the walk sampler's unbiased estimate of the interleaving count those
// samples are drawn from.
func RunE12() []*Table {
	bugTab := &Table{
		ID:    "E12a",
		Title: fmt.Sprintf("Bug finding on the planted depth-2 handoff bug (n=%d, %d samples each)", e12BugN, e12Samples),
		Claim: "A randomized scheduler with a structural guarantee finds rare adversarial " +
			"interleavings that uniform sampling essentially never hits: PCT with d−1 priority " +
			"change points triggers any depth-d ordering bug with probability ≥ 1/(n·k^(d−1)) " +
			"per run, and rate-skewed stochastic scheduling reaches straggler orderings at " +
			"constant rate.",
		Columns: []string{"sampler", "failures", "failure rate", "first failing run", "wall-clock"},
	}
	for _, s := range e12Samplers {
		cfg := s.cfg
		cfg.Samples = e12Samples
		cfg.Seed = seedFor(1200)
		cfg.KeepGoing = true
		start := time.Now()
		rep, err := engine.Sample(scenario.HandoffBug(e12BugN, e12BugWarmup, e12BugGap), cfg)
		wall := time.Since(start)
		if err == nil && rep.Failures > 0 {
			bugTab.AddRow(s.name, "FAILED", "inconsistent report", "", "")
			continue
		}
		// Sampled runs have no redundant attempts: every sample is one
		// executed schedule, so the attempts column mirrors executions.
		recordPerf("E12", bugTab.ID, s.name, rep.Executions, rep.Executions, wall)
		first := "not found"
		if rep.Failures > 0 {
			// The 1-based index of the failing run rather than the raw
			// seed, so the column is invariant under -seed.
			first = fmt.Sprintf("%d", rep.FailSeed-cfg.Seed+1)
		}
		bugTab.AddRow(s.name, rep.Failures, stats.Ratio(rep.Failures, rep.Executions), first,
			wall.Round(100*time.Microsecond))
	}
	bugTab.Notes = "Shape check: pct d=2 (matching depth) and the skewed rates sampler find the bug; " +
		"uniform random, the walk (same distribution) and pct d=1 (no change point, so strict " +
		"priority scheduling cannot interleave the handoff) do not. " +
		"TestPCTFindsPlantedBugFasterThanRandom pins the pct-vs-uniform gap deterministically."

	covTab := &Table{
		ID:    "E12b",
		Title: fmt.Sprintf("Coverage growth on the composed TAS, %d samples per cell", e12Samples/3),
		Claim: "Beyond exhaustive reach, coverage must be measured, not assumed: distinct terminal " +
			"fingerprints and schedule shapes per sample budget differ by sampler, and the walk's " +
			"importance weights estimate the interleaving-space size the budget is drawn from.",
		Columns: []string{"n", "sampler", "executions", "terminal states", "schedule shapes", "est. interleavings"},
	}
	covSamples := e12Samples / 3
	for _, n := range []int{5, 8} {
		for _, s := range e12Samplers {
			if s.name == "pct d=1" || s.name == "pct d=3" {
				continue // one PCT row per n is enough for the coverage story
			}
			cfg := s.cfg
			cfg.Samples = covSamples
			cfg.Seed = seedFor(1300)
			h, _ := harnessFor("composed", n)
			rep, err := engine.Sample(h, cfg)
			if err != nil {
				covTab.AddRow(n, s.name, "FAILED", err, "", "")
				continue
			}
			est := "—"
			if rep.TreeSizeEstimate > 0 {
				est = fmt.Sprintf("%.2g", rep.TreeSizeEstimate)
			}
			covTab.AddRow(n, s.name, rep.Executions, rep.DistinctStates, rep.DistinctShapes, est)
		}
	}
	covTab.Notes = "Shape check: the composed TAS stays correct under every sampler (wait-free, unique " +
		"winner), schedule-shape counts approach the sample budget as n grows (almost every sampled " +
		"schedule is new — the space is astronomically larger than any budget, as the walk estimate " +
		"shows), and uniform/walk find more distinct terminal states than pct, whose priority " +
		"schedules revisit solo-like orderings."
	return []*Table{bugTab, covTab}
}
