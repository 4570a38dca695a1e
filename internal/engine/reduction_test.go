package engine_test

// Reduction soundness at three processes: source-DPOR must visit exactly
// the behaviours the unpruned walk visits — the same set of distinct
// terminal fingerprints where the harness fingerprints, the same number of
// completed trace classes as the legacy sleep sets, and the same verdict.
// TestRegistryDifferential checks the same relation over the registry at
// n=2.

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// reductionBudget bounds each walk: a scenario whose tree exceeds it in
// some mode is compared only in the modes that complete (a1's dpor-vs-sleep
// pair must complete, enforced below, so the test cannot skip everything).
const reductionBudget = 30000

func runMode(t *testing.T, sc scenario.Scenario, n int, mode engine.PruneMode) (engine.Report, error) {
	t.Helper()
	h, _ := sc.Build(n, scenario.Options{})
	rep, err := engine.Run(h, engine.Config{Prune: mode, Workers: 4, MaxExecutions: reductionBudget})
	var ce *engine.CheckError
	if err != nil && !errors.As(err, &ce) {
		t.Fatalf("%s n=%d %v: engine error: %v", sc.Name, n, mode, err)
	}
	return rep, err
}

// compareReductions runs one scenario at one process count in all three
// modes and asserts every completed pair agrees on the deterministic
// fields. It reports whether the dpor/sleep pair completed.
func compareReductions(t *testing.T, sc scenario.Scenario, n int) bool {
	t.Helper()
	dpor, dporErr := runMode(t, sc, n, engine.PruneSourceDPOR)
	sleep, sleepErr := runMode(t, sc, n, engine.PruneSleep)
	if dpor.Partial || sleep.Partial {
		t.Logf("%s n=%d: tree exceeds %d attempts (dpor partial=%v, sleep partial=%v) — skipped", sc.Name, n, reductionBudget, dpor.Partial, sleep.Partial)
		return false
	}
	if (dporErr != nil) != (sleepErr != nil) {
		t.Fatalf("%s n=%d: verdicts diverged: dpor=%v sleep=%v", sc.Name, n, dporErr, sleepErr)
	}
	if sc.Params.ExpectFail && dporErr == nil {
		t.Fatalf("%s n=%d: planted bug not found by either reduction", sc.Name, n)
	}
	// Both reductions complete exactly one interleaving per trace class,
	// so on a completed walk their counts must coincide exactly.
	if dpor.Executions != sleep.Executions {
		t.Fatalf("%s n=%d: dpor completed %d interleavings, sleep sets %d — a reduction lost or repeated a trace class",
			sc.Name, n, dpor.Executions, sleep.Executions)
	}
	if dpor.FingerprintOK != sleep.FingerprintOK {
		t.Fatalf("%s n=%d: FingerprintOK diverged", sc.Name, n)
	}
	if !reflect.DeepEqual(dpor.TerminalStates, sleep.TerminalStates) {
		t.Fatalf("%s n=%d: dpor and sleep terminal-state sets diverged (%d vs %d)", sc.Name, n, dpor.DistinctStates, sleep.DistinctStates)
	}

	// Where the unpruned walk is feasible too, it is the ground truth: the
	// reduction must preserve its terminal-fingerprint set exactly while
	// never running more interleavings.
	if none, noneErr := runMode(t, sc, n, engine.PruneNone); !none.Partial {
		if (noneErr != nil) != (dporErr != nil) {
			t.Fatalf("%s n=%d: unpruned verdict %v, dpor verdict %v", sc.Name, n, noneErr, dporErr)
		}
		if dpor.FingerprintOK && !reflect.DeepEqual(dpor.TerminalStates, none.TerminalStates) {
			t.Fatalf("%s n=%d: dpor lost terminal states vs the unpruned walk (%d vs %d)", sc.Name, n, dpor.DistinctStates, none.DistinctStates)
		}
		if dpor.Executions > none.Executions {
			t.Fatalf("%s n=%d: dpor ran more interleavings (%d) than unpruned (%d)", sc.Name, n, dpor.Executions, none.Executions)
		}
	}
	return true
}

// TestReductionEquivalenceDeeper extends the property to three processes
// on the reference scenarios whose pruned trees stay tractable: a1
// (which also anchors the pinned counts) and fai at its largest fully
// explorable count. fai's three-process tree exceeds every budget in
// every mode (≥3·10^5 trace classes), so its pruned-pair equivalence is
// checked at the deepest count that completes.
func TestReductionEquivalenceDeeper(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: deep exhaustive walks")
	}
	for _, name := range []string{"a1", "fai"} {
		sc, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !compareReductions(t, sc, 3) && name == "a1" {
			t.Fatalf("a1 n=3 must fit the reduction budget")
		}
	}
}
