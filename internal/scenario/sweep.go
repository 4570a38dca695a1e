package scenario

// The parallel sweep: run a set of scenarios — exhaustively below the
// exhaustive-n threshold, sampled above it — and emit one deterministic
// report row per scenario. Exhaustive rows run the default source-DPOR
// reduction. Parallelism is across scenarios: each scenario runs on a
// single engine worker (the only mode in which a *budget-cut* or
// source-DPOR exploration reports every count deterministically), while
// up to Workers scenarios run concurrently. Rows are merged in input
// order, so the rendered report is byte-identical for every worker count.

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/randexp"
)

// SweepConfig bounds a sweep.
type SweepConfig struct {
	// N is the requested process count (clamped per scenario by
	// Scenario.Procs; 0 = each scenario's default).
	N int
	// ExhaustiveN is the largest n explored exhaustively; beyond it a
	// scenario is sampled (default 3).
	ExhaustiveN int
	// MaxExecutions is the per-scenario budget of an exhaustive run
	// (0 = unbounded).
	MaxExecutions int
	// Samples is the per-scenario budget of a sampled run (default 1000).
	Samples int
	// Seed is the base seed of sampled runs.
	Seed int64
	// Workers is the number of scenarios run concurrently. It never changes
	// any reported result, only wall-clock.
	Workers int
	// Crashes explores crash branches (or injects sampled crashes) on every
	// scenario that declares crash-aware checks; others run crash-free.
	Crashes bool
	// Metrics, when non-nil, attaches the observability layer to every
	// scenario's engine run and emits one scenario_done event per row.
	// Strictly advisory: rows are byte-identical with Metrics attached or
	// nil (pinned by the obs equivalence tests). Concurrent engines fold
	// into the same domain — same-name layer sources sum on read.
	Metrics *obs.Metrics
}

// Row is one scenario's deterministic sweep result. It carries no
// wall-clock fields: every field is identical run to run and for every
// SweepConfig.Workers value.
type Row struct {
	Name       string
	N          int
	Mode       string // "exhaustive", "exhaustive-partial", or "sampled"
	Oracle     string
	Executions int
	Pruned     int
	MaxDepth   int
	Outcome    string
}

// RunOne runs a single scenario under the sweep discipline and returns its
// row. The engine runs with one worker, so even budget-cut explorations
// report deterministically.
func RunOne(sc Scenario, cfg SweepConfig) Row {
	n := sc.Procs(cfg.N)
	exhaustiveN := cfg.ExhaustiveN
	if exhaustiveN <= 0 {
		exhaustiveN = 3
	}
	samples := cfg.Samples
	if samples <= 0 {
		samples = 1000
	}
	opts := Options{Crashes: cfg.Crashes && sc.Params.Crashes}
	h, oracle := sc.Build(n, opts)
	row := Row{Name: sc.Name, N: n, Oracle: oracle.String()}

	if n <= exhaustiveN {
		rep, err := engine.Run(h, engine.Config{
			MaxExecutions: cfg.MaxExecutions,
			Crashes:       opts.Crashes,
			Workers:       1,
			Prune:         engine.PruneSourceDPOR,
			Metrics:       cfg.Metrics,
		})
		row.Mode = "exhaustive"
		if rep.Partial {
			row.Mode = "exhaustive-partial"
		}
		row.Executions, row.Pruned, row.MaxDepth = rep.Executions, rep.Pruned, rep.MaxDepth
		row.Outcome = outcomeText(err, sc.Params.ExpectFail, !rep.Partial)
		noteRow(cfg.Metrics, row)
		return row
	}

	rcfg := randexp.Config{
		Sampler: randexp.SamplerRandom,
		Samples: samples,
		Seed:    cfg.Seed,
		Workers: 1,
		Metrics: cfg.Metrics,
	}
	if opts.Crashes {
		rcfg.CrashProb = randexp.SampleCrashProb
	}
	rep, err := randexp.Run(h, rcfg)
	row.Mode = "sampled"
	row.Executions, row.MaxDepth = rep.Executions, rep.MaxDepth
	// A sample (like a budget-cut walk) is never exhaustive, so an
	// ExpectFail scenario that survives it proves nothing either way.
	row.Outcome = outcomeText(err, sc.Params.ExpectFail, false)
	noteRow(cfg.Metrics, row)
	return row
}

// noteRow emits the per-scenario sweep lifecycle event.
func noteRow(m *obs.Metrics, row Row) {
	if m == nil {
		return
	}
	m.Event("scenario_done", map[string]any{
		"scenario": row.Name, "n": row.N, "mode": row.Mode,
		"executions": row.Executions, "outcome": row.Outcome,
	})
}

// outcomeText folds a run result into the deterministic outcome column.
// Schedules are elided (they can be arbitrarily long); the canonical
// failure cause — deterministic for completed explorations and for any
// sampled run — is kept, as is the reproducing seed of a sampled failure.
// exhaustive reports whether every interleaving was covered: only then is
// an ExpectFail scenario with no failure a genuine MISSED regression —
// a budget-cut or sampled run may simply not have reached the planted bug.
func outcomeText(err error, expectFail, exhaustive bool) string {
	if err == nil {
		if expectFail {
			if exhaustive {
				return "MISSED: expected a failing interleaving, found none"
			}
			return "no failure within budget (planted bug not reached; raise the budget to confirm)"
		}
		return "ok"
	}
	var ce *engine.CheckError
	if !errors.As(err, &ce) {
		return "error: " + err.Error()
	}
	cause := ce.Err.Error()
	if ce.Sampled {
		cause = fmt.Sprintf("seed %d: %v", ce.Seed, ce.Err)
	}
	if expectFail {
		return "FAIL(expected): " + cause
	}
	return "FAIL: " + cause
}

// Sweep runs every scenario in scs under cfg, up to cfg.Workers at a time,
// and returns their rows in input order plus an error if any scenario
// failed unexpectedly (an ExpectFail scenario failing is the expected
// outcome; it *not* failing is a regression).
func Sweep(scs []Scenario, cfg SweepConfig) ([]Row, error) {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(scs) {
		workers = len(scs)
	}
	rows := make([]Row, len(scs))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(scs) {
					return
				}
				rows[i] = RunOne(scs[i], cfg)
			}
		}()
	}
	wg.Wait()

	var bad []string
	for _, r := range rows {
		if strings.HasPrefix(r.Outcome, "FAIL:") || strings.HasPrefix(r.Outcome, "MISSED") ||
			strings.HasPrefix(r.Outcome, "error:") {
			bad = append(bad, r.Name)
		}
	}
	if len(bad) > 0 {
		return rows, fmt.Errorf("scenario sweep: unexpected outcome in %s", strings.Join(bad, ", "))
	}
	return rows, nil
}

// Render formats sweep rows as the fixed-width report tascheck prints and
// CI archives. The rendering is a pure function of the rows, so a report is
// byte-identical whenever the rows are.
func Render(rows []Row) string {
	headers := []string{"scenario", "n", "mode", "oracle", "executions", "pruned", "maxdepth", "outcome"}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{
			r.Name,
			fmt.Sprintf("%d", r.N),
			r.Mode,
			r.Oracle,
			fmt.Sprintf("%d", r.Executions),
			fmt.Sprintf("%d", r.Pruned),
			fmt.Sprintf("%d", r.MaxDepth),
			r.Outcome,
		}
	}
	widths := make([]int, len(headers))
	for i, hcol := range headers {
		widths[i] = len(hcol)
	}
	for _, row := range cells {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(row)-1 {
				b.WriteString(c) // no trailing padding on the last column
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
