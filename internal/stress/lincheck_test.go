package stress

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/linearize"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/trace"
)

// tasfaiRounds records k rounds shaped like the tasfai scenario's at g
// processes: every process invokes its TAS before any TAS responds, then
// takes two fetch-and-increment tickets in two fully concurrent waves. A
// round listed in planted has two TAS winners, so it cannot linearize.
func tasfaiRounds(g, k int, planted ...int) [][]trace.Op {
	rec := trace.NewRecorder(g)
	rounds := make([][]trace.Op, k)
	for r := range rounds {
		bad := slices.Contains(planted, r)
		for i := 0; i < g; i++ {
			rec.RecordInvoke(i, spec.Request{ID: int64(3*i + 1), Proc: i, Op: spec.OpTAS})
		}
		for i := 0; i < g; i++ {
			resp := spec.Loser
			if i == 0 || bad && i == 1 {
				resp = spec.Winner
			}
			rec.RecordCommit(i, spec.Request{ID: int64(3*i + 1), Proc: i, Op: spec.OpTAS}, resp, "tas")
		}
		for wave := int64(0); wave < 2; wave++ {
			for i := 0; i < g; i++ {
				rec.RecordInvoke(i, spec.Request{ID: int64(3*i) + 2 + wave, Proc: i, Op: spec.OpInc})
			}
			for i := 0; i < g; i++ {
				m := spec.Request{ID: int64(3*i) + 2 + wave, Proc: i, Op: spec.OpInc}
				rec.RecordCommit(i, m, wave*int64(g)+int64(i), "fai")
			}
		}
		rounds[r] = rec.Ops()
		rec.Reset()
	}
	return rounds
}

// feedInBatches runs rounds through a fresh checker for the tasfai oracle,
// perBatch rounds to a batch (the last one partial), and finishes it.
func feedInBatches(t *testing.T, rounds [][]trace.Op, perBatch int, maxOps int64) (*linChecker, obs.Snapshot) {
	t.Helper()
	_, oracle := mustScenario(t, "tasfai").Build(4, scenario.Options{})
	m := obs.New(1)
	lc, err := newLinChecker(oracle, linearize.JITConfig{}, maxOps, m)
	if err != nil {
		t.Fatal(err)
	}
	var b linBatch
	for i, ops := range rounds {
		b.add(func(dst []trace.Op) []trace.Op { return append(dst, ops...) })
		if len(b.ends) == perBatch || i == len(rounds)-1 {
			lc.feedBatch(&b)
			b.ops, b.ends = b.ops[:0], b.ends[:0]
		}
	}
	lc.finish()
	if lc.err != nil {
		t.Fatalf("batches of %d: contract error %v", perBatch, lc.err)
	}
	return lc, m.Snapshot()
}

// TestFeedBatchMatchesFeedRound: batching only changes how often the
// hand-off and the bookkeeping happen, never the verdict. Every grouping of
// the same rounds — one round per batch, the online tier's batches with a
// partial last one, all rounds in one batch — must verify the same
// operations, count the same failures with the same first reason, truncate
// at the same operation and fold the same checker telemetry.
func TestFeedBatchMatchesFeedRound(t *testing.T) {
	const g, opsPerRound = 4, 12
	k := 2*linBatchRounds + 5
	for _, tc := range []struct {
		name      string
		planted   []int
		maxOps    int64
		wantFed   int64
		wantFails int64
		truncated bool
	}{
		// A two-winner round mid-batch, and another in the partial last
		// batch: the first is counted once and its stream restarted, so the
		// second, later round is still judged.
		{name: "planted", planted: []int{linBatchRounds + 7, 2*linBatchRounds + 2},
			wantFed: int64(k * opsPerRound), wantFails: 2},
		// A cap that lands mid-round inside the second batch.
		{name: "capped", maxOps: (linBatchRounds+7)*opsPerRound + 5,
			wantFed: (linBatchRounds+7)*opsPerRound + 5, truncated: true},
		{name: "clean", wantFed: int64(k * opsPerRound)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rounds := tasfaiRounds(g, k, tc.planted...)
			ref, refSnap := feedInBatches(t, rounds, 1, tc.maxOps)
			if ref.fed != tc.wantFed || ref.failures != tc.wantFails || ref.truncated != tc.truncated {
				t.Fatalf("one round per batch: fed %d failures %d truncated %v, want %d %d %v",
					ref.fed, ref.failures, ref.truncated, tc.wantFed, tc.wantFails, tc.truncated)
			}
			if ref.stats.Ops != ref.fed {
				t.Errorf("streams saw %d ops, fed %d: a restart lost operations", ref.stats.Ops, ref.fed)
			}
			if tc.wantFails > 0 && !strings.Contains(ref.firstErr, "test-and-set") {
				t.Errorf("first failure %q does not name the TAS object", ref.firstErr)
			}
			for _, per := range []int{linBatchRounds, k} {
				lc, snap := feedInBatches(t, rounds, per, tc.maxOps)
				if lc.fed != ref.fed || lc.failures != ref.failures || lc.firstErr != ref.firstErr ||
					lc.truncated != ref.truncated || lc.stats != ref.stats {
					t.Errorf("batches of %d: fed %d failures %d %q truncated %v stats %+v;\none round per batch: fed %d failures %d %q truncated %v stats %+v",
						per, lc.fed, lc.failures, lc.firstErr, lc.truncated, lc.stats,
						ref.fed, ref.failures, ref.firstErr, ref.truncated, ref.stats)
				}
				for _, c := range []string{"stress_lincheck_ops_total", "stress_lincheck_rounds_total", "stress_lincheck_failures_total"} {
					if snap.Counters[c] != refSnap.Counters[c] {
						t.Errorf("batches of %d: %s = %d, one round per batch %d", per, c, snap.Counters[c], refSnap.Counters[c])
					}
				}
			}
			if got := refSnap.Counters["stress_lincheck_rounds_total"]; got != int64(k) {
				t.Errorf("stress_lincheck_rounds_total = %d, want %d", got, k)
			}
		})
	}
}

// feedOne feeds one round through a fresh checker for the tasfai oracle.
func feedOne(t *testing.T, round []trace.Op) *linChecker {
	t.Helper()
	_, oracle := mustScenario(t, "tasfai").Build(4, scenario.Options{})
	lc, err := newLinChecker(oracle, linearize.JITConfig{}, 0, obs.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var b linBatch
	b.add(func(dst []trace.Op) []trace.Op { return append(dst, round...) })
	lc.feedBatch(&b)
	lc.finish()
	return lc
}

// TestOnlineFailureTextMatchesModelTier: a round that does not linearize
// reads the same, object named, whether the model tier's oracle judges it
// or the online tier streams it.
func TestOnlineFailureTextMatchesModelTier(t *testing.T) {
	round := tasfaiRounds(4, 1, 0)[0]
	_, oracle := mustScenario(t, "tasfai").Build(4, scenario.Options{})
	model := oracle.Check(slices.Clone(round))
	lc := feedOne(t, round)
	if model == nil || lc.failures != 1 || lc.firstErr != model.Error() {
		t.Fatalf("online: %d failures, first %q; model tier: %v", lc.failures, lc.firstErr, model)
	}
	if want := `not linearizable (composed): object "tas" (test-and-set): `; !strings.HasPrefix(lc.firstErr, want) {
		t.Fatalf("failure %q does not start %q", lc.firstErr, want)
	}
}

// TestOnlineUnknownModule: an operation labeled with a module outside the
// oracle is the front door's ErrUnknownModule, a contract error that stops
// verification, and a stress run reports it in LinErr.
func TestOnlineUnknownModule(t *testing.T) {
	round := tasfaiRounds(4, 1)[0]
	round[5].Module = "mystery"
	if lc := feedOne(t, round); !errors.Is(lc.err, linearize.ErrUnknownModule) || lc.fed != 5 {
		t.Fatalf("fed %d ops, error %v; want 5 and ErrUnknownModule", lc.fed, lc.err)
	}

	_, oracle := mustScenario(t, "tasfai").Build(2, scenario.Options{})
	mislabeled := scenario.Scenario{
		Name: "mislabeled",
		Build: func(n int, _ scenario.Options) (engine.Harness, scenario.Oracle) {
			return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
				env := memory.NewEnv(n)
				env.SetHistorySource(trace.Source(func(dst []trace.Op) []trace.Op {
					return append(dst, trace.Op{Req: spec.Request{ID: 1, Op: spec.OpTAS}, Module: "mystery", Inv: 1, Ret: 2})
				}))
				return env, slices.Repeat([]func(p *memory.Proc){func(*memory.Proc) {}}, n), nil, func() {}
			}, oracle
		},
	}
	r, err := Run(Config{Scenario: mislabeled, G: 2, Duration: time.Minute, MaxRounds: 3, LinMode: LinOnline})
	if err != nil {
		t.Fatal(err)
	}
	want := `stress: linearize: operation tas#1@p0 labeled with unknown module "mystery"`
	if r.LinErr != want || r.LinOps != 0 || r.LinFailures != 0 {
		t.Fatalf("LinErr %q, %d ops verified, %d failures; want %q, 0, 0", r.LinErr, r.LinOps, r.LinFailures, want)
	}
}

// TestOnlineLincheckAllocBudget pins what the online tier allocates per
// round as a runtime.MemStats delta, not a wall-clock: the difference
// between a 20000- and a 60000-round run of tasfai at G=4 cancels the
// set-up and leaves the per-round cost. A fresh history slice per round,
// handed to the checker one round at a time, cost 20 mallocs per round.
func TestOnlineLincheckAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("80000 native rounds")
	}
	const maxMallocsPerRound = 0.5
	sc := mustScenario(t, "tasfai")
	mallocs := func(rounds int64) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r, err := Run(Config{Scenario: sc, G: 4, Duration: time.Hour, MaxRounds: rounds, LinMode: LinOnline, Seed: 9})
		runtime.ReadMemStats(&after)
		if err != nil || r.LinErr != "" || r.LinOps != 3*r.Ops {
			t.Fatalf("%d rounds: err %v, lincheck err %q, %d of %d ops verified", rounds, err, r.LinErr, r.LinOps, 3*r.Ops)
		}
		return float64(after.Mallocs - before.Mallocs)
	}
	short, long := mallocs(20000), mallocs(60000)
	per := (long - short) / 40000
	t.Logf("%.3f mallocs per round (%.0f at 20000 rounds, %.0f at 60000)", per, short, long)
	if per > maxMallocsPerRound {
		t.Errorf("%.3f mallocs per round, budget %.1f", per, maxMallocsPerRound)
	}
}
