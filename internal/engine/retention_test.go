package engine_test

// Retention safety of the allocation-free attempt path. A worker's chooser
// scratch and its executor's Result are overwritten by every later attempt,
// so whatever outlives an attempt — the walk's best failure, a sampled
// failure — must have been copied out when it was retained. Each test here
// retains something early, lets hundreds to thousands of later attempts
// reuse the buffers, and then holds the retained value to a known answer.
// Run them under -race -count=10.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/randexp"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// handoffLexLeast is the lexicographically least failing schedule of the
// registered planted-bug scenario at its default size (two processes), as
// the exhaustive engine must report it (the benchmark gates on the same
// string). At three processes the third — warm-up noise, four private
// reads — runs last.
const (
	handoffLexLeast   = "[{0 false} {0 false} {0 false} {0 false} {0 false} {0 false} {0 false} {0 false} {1 false} {1 false} {0 false}]"
	handoffLexLeastN3 = "[{0 false} {0 false} {0 false} {0 false} {0 false} {0 false} {0 false} {0 false} {1 false} {1 false} {0 false} {2 false} {2 false} {2 false} {2 false}]"
)

// replayFails reports whether replaying schedule on a fresh instance of h
// makes its check fail.
func replayFails(h engine.Harness, schedule []sched.Choice) bool {
	env, bodies, check, _ := h()
	return check(sched.Run(env, sched.NewReplay(schedule), bodies)) != nil
}

// TestFailureSurvivesBufferReuse walks the planted handoff bug to the end
// (no FailFast): the lex-least failure is found within the first few dozen
// attempts of the depth-first order and must come back byte for byte after
// every later attempt has reused the path scratch and the Result it was
// copied from — 25 480 attempts unpruned at three processes.
func TestFailureSurvivesBufferReuse(t *testing.T) {
	sc, err := scenario.Lookup("handoffbug")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		n        int
		prune    engine.PruneMode
		attempts int
		want     string
	}{
		{2, engine.PruneSourceDPOR, 3, handoffLexLeast},
		{3, engine.PruneNone, 25480, handoffLexLeastN3},
	} {
		for _, workers := range []int{1, 4} {
			h, _ := sc.Build(c.n, scenario.Options{})
			rep, err := engine.Run(h, engine.Config{Prune: c.prune, Workers: workers})
			var ce *engine.CheckError
			if !errors.As(err, &ce) {
				t.Fatalf("n=%d %v workers=%d: planted bug not reported: %v", c.n, c.prune, workers, err)
			}
			if rep.Attempts != c.attempts || rep.Partial {
				t.Fatalf("n=%d %v workers=%d: %d attempts (partial=%v), want the full walk's %d", c.n, c.prune, workers, rep.Attempts, rep.Partial, c.attempts)
			}
			if got := fmt.Sprint(ce.Schedule); got != c.want {
				t.Fatalf("n=%d %v workers=%d: failing schedule\n%s\nwant\n%s", c.n, c.prune, workers, got, c.want)
			}
			if !replayFails(h, ce.Schedule) {
				t.Fatalf("n=%d %v workers=%d: reported schedule does not replay to a failure", c.n, c.prune, workers)
			}
		}
	}
}

// TestSampledFailureSurvivesBufferReuse pins the sampled twin: PCT (d=2) on
// the n=5 planted bug first fails at seed 29 with probe bound k=77, in the
// first batch; with KeepGoing the remaining ~1900 runs reuse the executor's
// Result the failing schedule was copied from, and the reported schedule
// must still replay to the failure through sched.NewReplay.
func TestSampledFailureSurvivesBufferReuse(t *testing.T) {
	h := randexp.HandoffBug(5, 16, 10)
	var first []sched.Choice
	for _, workers := range []int{1, 4} {
		rep, err := randexp.Run(h, randexp.Config{
			Sampler: randexp.SamplerPCT, PCTDepth: 2, Samples: 2000, Seed: 1, Workers: workers, KeepGoing: true,
		})
		var ce *engine.CheckError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: planted bug not reported: %v", workers, err)
		}
		if ce.Seed != 29 || rep.PCTSteps != 77 || rep.Executions != 2000 {
			t.Fatalf("workers=%d: first failing seed %d with k=%d over %d runs, want seed 29, k=77, 2000 runs", workers, ce.Seed, rep.PCTSteps, rep.Executions)
		}
		if !replayFails(h, ce.Schedule) {
			t.Fatalf("workers=%d: seed 29's reported schedule does not replay to a failure: %v", workers, ce.Schedule)
		}
		if first == nil {
			first = ce.Schedule
		} else if fmt.Sprint(first) != fmt.Sprint(ce.Schedule) {
			t.Fatalf("seed 29's schedule depends on the worker count:\n%v\nvs\n%v", first, ce.Schedule)
		}
	}
}
