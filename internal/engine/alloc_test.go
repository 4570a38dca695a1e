package engine_test

// Allocation budgets of the attempt path. An attempt must allocate nothing
// that dies with it (DESIGN.md "Allocation discipline") — otherwise the
// garbage collector, not the engine, sets the exhaustive time-to-verdict.
// These tests pin that in a form that does not depend on machine load:
// runtime.MemStats deltas over a one-worker walk whose attempt count is
// exact.

import (
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// Per-attempt budgets. The walk needs ≈12 mallocs and ≈1.1 KB for the
// decision nodes and frontier items it retains; the headroom absorbs
// scenario and Go-version drift, not a per-attempt buffer.
const (
	maxMallocsPerAttempt = 24
	maxBytesPerAttempt   = 4 << 10
)

// measureAllocs reports the mallocs and bytes f allocates, process-wide.
// The tests in this package do not run in parallel, so nothing else
// allocates meanwhile.
func measureAllocs(f func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

func assertAllocBudget(t *testing.T, label string, attempts int, mallocs, bytes uint64) {
	t.Helper()
	perM := float64(mallocs) / float64(attempts)
	perB := float64(bytes) / float64(attempts)
	t.Logf("%s: %d attempts, %.1f mallocs and %.0f bytes per attempt", label, attempts, perM, perB)
	if perM > maxMallocsPerAttempt {
		t.Errorf("%s: %.1f mallocs per attempt, budget %d", label, perM, maxMallocsPerAttempt)
	}
	if perB > maxBytesPerAttempt {
		t.Errorf("%s: %.0f bytes per attempt, budget %d", label, perB, maxBytesPerAttempt)
	}
}

// TestAllocBudgetExhaustive walks composed n=3 under source-DPOR at one
// worker (1956 executions in 1991 attempts, both exact) and holds the whole
// walk — harness construction, executor start-up and report included — to
// the per-attempt budget.
func TestAllocBudgetExhaustive(t *testing.T) {
	sc, err := scenario.Lookup("composed")
	if err != nil {
		t.Fatal(err)
	}
	h, _ := sc.Build(3, scenario.Options{})
	var rep engine.Report
	mallocs, bytes := measureAllocs(func() {
		rep, err = engine.Run(h, engine.Config{Prune: engine.PruneSourceDPOR, Workers: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != 1956 || rep.Attempts != 1991 {
		t.Fatalf("composed n=3 walk: %d executions in %d attempts, want 1956 in 1991", rep.Executions, rep.Attempts)
	}
	assertAllocBudget(t, "composed n=3 source-DPOR", rep.Attempts, mallocs, bytes)
}

// TestAllocBudgetSampled holds one PCT batch on composed n=8 — the sampled
// side of the same executor and oracle path — to the same budget.
func TestAllocBudgetSampled(t *testing.T) {
	sc, err := scenario.Lookup("composed")
	if err != nil {
		t.Fatal(err)
	}
	h, _ := sc.Build(8, scenario.Options{})
	cfg := engine.SampleConfig{Sampler: engine.SamplerPCT, PCTDepth: 3, Samples: 2000, Seed: 1, Workers: 1, BatchSize: 2000}
	var rep engine.SampleReport
	mallocs, bytes := measureAllocs(func() {
		rep, err = engine.Sample(h, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != cfg.Samples {
		t.Fatalf("sampled %d runs, want %d", rep.Executions, cfg.Samples)
	}
	assertAllocBudget(t, "composed n=8 PCT batch", rep.Executions, mallocs, bytes)
}
