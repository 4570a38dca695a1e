package engine

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/memory"
	"repro/internal/sched"
)

// mixedHarness has three processes touching a mix of private and shared
// registers, so its interleaving tree contains both commuting and
// conflicting adjacent steps and several distinct final states. outcomes,
// when non-nil, accumulates the multiset of final states (the engine
// serializes check calls, so a plain map is safe at any worker count).
func mixedHarness(outcomes map[string]int) Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(3)
		shared := memory.NewIntReg(0)
		private := memory.NewRegArray(3, 0)
		env.Register(shared, private)
		bodies := make([]func(p *memory.Proc), 3)
		for i := 0; i < 3; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				v := shared.Read(p)
				private.Write(p, i, v+int64(i))
				if i != 1 {
					shared.Write(p, int64(10*(i+1)))
				}
			}
		}
		check := func(res *sched.Result) error {
			if outcomes != nil {
				key := fmt.Sprintf("%d/%v", shared.Read(env.Proc(0)), private.Collect(env.Proc(0)))
				outcomes[key]++
			}
			return nil
		}
		return env, bodies, check, func() {}
	}
}

// plantedBugHarness fails its check on every interleaving where the two
// increments race (the classic lost update).
func plantedBugHarness() Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		r := memory.NewIntReg(0)
		env.Register(r)
		inc := func(p *memory.Proc) {
			v := r.Read(p)
			r.Write(p, v+1)
		}
		check := func(res *sched.Result) error {
			if got := r.Read(env.Proc(0)); got != 2 {
				return fmt.Errorf("lost update: got %d", got)
			}
			return nil
		}
		return env, []func(p *memory.Proc){inc, inc}, check, func() {}
	}
}

// TestDeterministicAcrossWorkers is the engine's core reproducibility
// guarantee: same harness + same config ⇒ identical execution counts, and
// on a failing harness the identical canonical CheckError.Schedule, no
// matter how many workers run the queue. (Source-DPOR promises this only
// at one worker — its race-discovery order is timing-dependent beyond — so
// its cross-worker guarantee is the deterministic-fields contract, pinned
// by TestSourceDPORDeterministicFieldsAcrossWorkers.)
func TestDeterministicAcrossWorkers(t *testing.T) {
	for _, prune := range []PruneMode{PruneNone, PruneSleep} {
		var wantExecs int
		var wantSchedule []sched.Choice
		for _, workers := range []int{1, 4, 8} {
			rep, err := Run(plantedBugHarness(), Config{Workers: workers, Prune: prune})
			var ce *CheckError
			if !errors.As(err, &ce) {
				t.Fatalf("prune=%v workers=%d: want CheckError, got %v", prune, workers, err)
			}
			if workers == 1 {
				wantExecs = rep.Executions
				wantSchedule = ce.Schedule
				continue
			}
			if rep.Executions != wantExecs {
				t.Fatalf("prune=%v workers=%d: executions = %d, want %d", prune, workers, rep.Executions, wantExecs)
			}
			if !reflect.DeepEqual(ce.Schedule, wantSchedule) {
				t.Fatalf("prune=%v workers=%d: schedule = %v, want %v", prune, workers, ce.Schedule, wantSchedule)
			}
		}
	}
	// Source-DPOR at one worker is the sequential depth-first algorithm:
	// repeated runs must agree exactly.
	var first Report
	var firstCE *CheckError
	for i := 0; i < 3; i++ {
		rep, err := Run(plantedBugHarness(), Config{Workers: 1, Prune: PruneSourceDPOR})
		var ce *CheckError
		if !errors.As(err, &ce) {
			t.Fatalf("dpor run %d: want CheckError, got %v", i, err)
		}
		if i == 0 {
			first, firstCE = rep, ce
			continue
		}
		if rep.Executions != first.Executions || rep.Backtracks != first.Backtracks {
			t.Fatalf("dpor run %d diverged: %+v vs %+v", i, rep, first)
		}
		if !reflect.DeepEqual(ce.Schedule, firstCE.Schedule) {
			t.Fatalf("dpor run %d: schedule %v, want %v", i, ce.Schedule, firstCE.Schedule)
		}
	}
}

// TestSourceDPORDeterministicFieldsAcrossWorkers pins the deterministic
// half of the source-DPOR report contract: the verdict, the execution
// count of the completed walk (one interleaving per trace class under any
// launch order), and the terminal-state coverage (and MaxDepth) are
// identical for every worker count — only the attempt/pruned/backtrack
// bookkeeping is advisory beyond one worker.
func TestSourceDPORDeterministicFieldsAcrossWorkers(t *testing.T) {
	base, baseErr := Run(mixedHarness(nil), Config{Workers: 1, Prune: PruneSourceDPOR, Crashes: true})
	if baseErr != nil {
		t.Fatal(baseErr)
	}
	if !base.FingerprintOK || base.DistinctStates == 0 {
		t.Fatalf("mixed harness must fingerprint: %+v", base)
	}
	for _, workers := range []int{4, 8} {
		rep, err := Run(mixedHarness(nil), Config{Workers: workers, Prune: PruneSourceDPOR, Crashes: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Executions != base.Executions {
			t.Fatalf("workers=%d: completed %d interleavings, want the 1-worker walk's %d", workers, rep.Executions, base.Executions)
		}
		if !reflect.DeepEqual(rep.TerminalStates, base.TerminalStates) || rep.MaxDepth != base.MaxDepth {
			t.Fatalf("workers=%d: deterministic fields diverged:\n%+v\nvs\n%+v", workers, rep, base)
		}
	}
	// And the verdict on a failing harness: found at every worker count.
	for _, workers := range []int{1, 4} {
		_, err := Run(plantedBugHarness(), Config{Workers: workers, Prune: PruneSourceDPOR})
		var ce *CheckError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: want CheckError, got %v", workers, err)
		}
	}
}

// TestDeterministicCountsCrashes extends the worker-count determinism to
// crash branches on a passing harness.
func TestDeterministicCountsCrashes(t *testing.T) {
	for _, prune := range []PruneMode{PruneNone, PruneSleep} {
		var want Report
		for _, workers := range []int{1, 8} {
			rep, err := Run(mixedHarness(nil), Config{Crashes: true, Workers: workers, Prune: prune})
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				want = rep
				continue
			}
			if rep.Executions != want.Executions || rep.Pruned != want.Pruned {
				t.Fatalf("prune=%v: workers=8 report %+v, workers=1 %+v", prune, rep, want)
			}
		}
	}
}

// TestSequentialUnprunedMatchesSeedCount pins the 1-worker no-pruning mode
// to the seed engine's exact execution count on a combinatorially known
// tree: C(4,2) interleavings of two 2-step processes.
func TestSequentialUnprunedMatchesSeedCount(t *testing.T) {
	outcomes := map[int64]int{}
	rep, err := Run(lostUpdateHarness(outcomes), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != 6 || rep.Pruned != 0 {
		t.Fatalf("rep = %+v, want 6 executions, 0 pruned", rep)
	}
}

// TestPruningPreservesDistinctOutcomes is the no-lost-interleaving check:
// sleep-set pruning must skip only re-orderings, so the set of distinct
// final states of the pruned walk equals the unpruned one, while executing
// strictly fewer interleavings.
func TestPruningPreservesDistinctOutcomes(t *testing.T) {
	for _, prune := range []PruneMode{PruneSleep, PruneSourceDPOR} {
		for _, crashes := range []bool{false, true} {
			full := map[string]int{}
			frep, err := Run(mixedHarness(full), Config{Crashes: crashes})
			if err != nil {
				t.Fatal(err)
			}
			pruned := map[string]int{}
			prep, err := Run(mixedHarness(pruned), Config{Crashes: crashes, Prune: prune, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			distinct := func(m map[string]int) []string {
				var out []string
				for k := range m {
					out = append(out, k)
				}
				return out
			}
			f, p := distinct(full), distinct(pruned)
			if len(f) != len(p) {
				t.Fatalf("prune=%v crashes=%v: pruned walk found %d distinct outcomes, full %d", prune, crashes, len(p), len(f))
			}
			for k := range full {
				if pruned[k] == 0 {
					t.Fatalf("prune=%v crashes=%v: pruned walk lost outcome %q", prune, crashes, k)
				}
			}
			if prep.Executions >= frep.Executions {
				t.Fatalf("prune=%v crashes=%v: pruning did not reduce executions: %d vs %d", prune, crashes, prep.Executions, frep.Executions)
			}
			// The pruned and unpruned walks must also agree on the terminal-
			// state coverage witness (the deterministic Report field).
			if !reflect.DeepEqual(prep.TerminalStates, frep.TerminalStates) {
				t.Fatalf("prune=%v crashes=%v: terminal-state sets diverged", prune, crashes)
			}
			t.Logf("prune=%v crashes=%v: %d -> %d executions (%d pruned, %d backtracks), %d distinct outcomes",
				prune, crashes, frep.Executions, prep.Executions, prep.Pruned, prep.Backtracks, len(f))
		}
	}
}

// TestPruningFindsPlantedBug: reduction must never prune away a buggy
// outcome, only re-orderings of it.
func TestPruningFindsPlantedBug(t *testing.T) {
	for _, prune := range []PruneMode{PruneSleep, PruneSourceDPOR} {
		_, err := Run(plantedBugHarness(), Config{Prune: prune, Workers: 4})
		var ce *CheckError
		if !errors.As(err, &ce) {
			t.Fatalf("prune=%v: want CheckError, got %v", prune, err)
		}
		// The reported canonical schedule must reproduce the failure.
		env, bodies, check, _ := plantedBugHarness()()
		if check(sched.Run(env, sched.NewReplay(ce.Schedule), bodies)) == nil {
			t.Fatalf("prune=%v: replayed schedule did not reproduce the lost update", prune)
		}
	}
}

// TestCheckpointResume cuts an exploration with MaxExecutions and resumes
// it from the reported frontier until done; the stitched-together walk must
// cover exactly the outcomes and count of an uninterrupted one.
func TestCheckpointResume(t *testing.T) {
	for _, prune := range []PruneMode{PruneNone, PruneSleep} {
		full := map[string]int{}
		frep, err := Run(mixedHarness(full), Config{Prune: prune})
		if err != nil {
			t.Fatal(err)
		}

		got := map[string]int{}
		total := 0
		var resume *Checkpoint
		rounds := 0
		for {
			rep, err := Run(mixedHarness(got), Config{Prune: prune, MaxExecutions: 7, Resume: resume})
			if err != nil {
				t.Fatal(err)
			}
			total += rep.Executions
			rounds++
			if !rep.Partial {
				break
			}
			if rep.Checkpoint == nil || len(rep.Checkpoint.Items) == 0 {
				t.Fatal("partial report without a resumable checkpoint")
			}
			resume = rep.Checkpoint
			if rounds > 1000 {
				t.Fatal("resume loop did not terminate")
			}
		}
		if rounds < 2 {
			t.Fatalf("prune=%v: expected the budget to force multiple rounds, got %d", prune, rounds)
		}
		if total != frep.Executions {
			t.Fatalf("prune=%v: resumed walk ran %d executions, uninterrupted ran %d", prune, total, frep.Executions)
		}
		for k, n := range full {
			if got[k] != n {
				t.Fatalf("prune=%v: outcome %q seen %d times resumed, %d uninterrupted", prune, k, got[k], n)
			}
		}
	}
}

// TestMaxDepthTruncates: a depth bound must cut off branching below it and
// flag the report partial.
func TestMaxDepthTruncates(t *testing.T) {
	outcomes := map[int64]int{}
	rep, err := Run(lostUpdateHarness(outcomes), Config{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Fatal("depth-truncated walk should be partial")
	}
	// Branching only at depths 0: the root's 2 branches, each run straight.
	if rep.Executions != 2 {
		t.Fatalf("executions = %d, want 2", rep.Executions)
	}
}

// TestTimeBudget: an absurdly small wall-clock budget stops the walk with
// a resumable frontier instead of an error, and resuming finishes it.
func TestTimeBudget(t *testing.T) {
	rep, err := Run(mixedHarness(nil), Config{TimeBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial || rep.Checkpoint == nil {
		t.Fatalf("nanosecond budget should cut the walk: %+v", rep)
	}
	rep2, err := Run(mixedHarness(nil), Config{Resume: rep.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Partial {
		t.Fatal("resumed walk should finish")
	}
	if rep.Executions+rep2.Executions == 0 {
		t.Fatal("no executions at all")
	}
}

// TestFailFastStops: FailFast returns a failure without walking the whole
// tree (the count is timing-dependent in general; with one worker it just
// stops at the canonical first failure like the seed engine did).
func TestFailFastStops(t *testing.T) {
	rep, err := Run(plantedBugHarness(), Config{FailFast: true, Workers: 1})
	var ce *CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("want CheckError, got %v", err)
	}
	if rep.Executions >= 6 {
		t.Fatalf("fail-fast still walked the whole tree (%d executions)", rep.Executions)
	}
}

// checkedRun is one execution a walk checked: its schedule, the check's
// verdict and the terminal fingerprint, taken before the instance was reset.
type checkedRun struct {
	schedule []sched.Choice
	err      error
	fp       memory.Fingerprint
	fpOK     bool
}

// recordRuns wraps h so that every execution a walk checks is appended to
// log (the engine serializes check calls, so a plain slice is safe).
func recordRuns(h Harness, log *[]checkedRun) Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env, bodies, check, reset := h()
		return env, bodies, func(res *sched.Result) error {
			run := checkedRun{schedule: append([]sched.Choice(nil), res.Schedule...)}
			run.fp, run.fpOK = env.Fingerprint()
			run.err = check(res)
			*log = append(*log, run)
			return run.err
		}, reset
	}
}

// replayOnFresh is the reset-completeness reference: every recorded schedule,
// replayed on a freshly constructed h through the one-shot executor, must
// reproduce the schedule, verdict and terminal fingerprint the reused
// instance produced.
func replayOnFresh(t *testing.T, h Harness, log []checkedRun) {
	t.Helper()
	for _, want := range log {
		env, bodies, check, _ := h()
		res := sched.Run(env, sched.NewReplay(want.schedule), bodies)
		if !reflect.DeepEqual(res.Schedule, want.schedule) {
			t.Fatalf("fresh instance ran %v, reused instance %v", res.Schedule, want.schedule)
		}
		fp, ok := env.Fingerprint()
		if fp != want.fp || ok != want.fpOK {
			t.Fatalf("schedule %v: fresh fingerprint %v (ok=%v), reused %v (ok=%v)", want.schedule, fp, ok, want.fp, want.fpOK)
		}
		if err := check(res); fmt.Sprint(err) != fmt.Sprint(want.err) {
			t.Fatalf("schedule %v: fresh verdict %v, reused %v", want.schedule, err, want.err)
		}
	}
}

// TestPooledMatchesSpawnPath: reusing one instance through the pooled
// executor must be a pure performance change — every execution a walk
// checks replays, on a fresh instance through the one-shot executor, to the
// same verdict and terminal state, so the outcome multisets agree too.
func TestPooledMatchesSpawnPath(t *testing.T) {
	for _, prune := range []PruneMode{PruneNone, PruneSleep, PruneSourceDPOR} {
		outsPooled := map[string]int{}
		outsSpawn := map[string]int{}
		var runs []checkedRun
		pooled, err := Run(recordRuns(mixedHarness(outsPooled), &runs), Config{Prune: prune, Crashes: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != pooled.Executions {
			t.Fatalf("prune=%v: recorded %d checked runs of %d executions", prune, len(runs), pooled.Executions)
		}
		replayOnFresh(t, mixedHarness(outsSpawn), runs)
		if !reflect.DeepEqual(outsPooled, outsSpawn) {
			t.Fatalf("prune=%v: outcome multisets diverge: %v vs %v", prune, outsPooled, outsSpawn)
		}

		// Failing harness: the failing executions fail on a fresh instance
		// too, the canonical one included.
		runs = nil
		_, err = Run(recordRuns(plantedBugHarness(), &runs), Config{Prune: prune, Workers: 4})
		var ce *CheckError
		if !errors.As(err, &ce) {
			t.Fatalf("prune=%v: want CheckError, got %v", prune, err)
		}
		replayOnFresh(t, plantedBugHarness(), runs)
		if !slices.ContainsFunc(runs, func(r checkedRun) bool { return r.err != nil && reflect.DeepEqual(r.schedule, ce.Schedule) }) {
			t.Fatalf("prune=%v: canonical failure %v is not among the checked runs", prune, ce.Schedule)
		}
	}
}

// convergingHarness has two processes whose writes make distinct
// interleavings converge to identical states with identical per-process
// progress: p0 writes 1 then 2, p1 writes 1 then 3. The two orders of the
// conflicting (so never sleep-set-prunable) initial writes of 1 meet in
// the same state, which is exactly what state caching prunes and sleep
// sets cannot. Bodies carry no cross-step local state, so the
// (fingerprint, step counts, sleep set) key fully determines the future —
// the harness is cache-sound.
func convergingHarness(outcomes map[int64]int) Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		shared := memory.NewIntReg(0)
		env.Register(shared)
		mk := func(second int64) func(p *memory.Proc) {
			return func(p *memory.Proc) {
				shared.Write(p, 1)
				shared.Write(p, second)
			}
		}
		check := func(res *sched.Result) error {
			if outcomes != nil {
				outcomes[shared.Read(env.Proc(0))]++
			}
			return nil
		}
		return env, []func(p *memory.Proc){mk(2), mk(3)}, check, func() {}
	}
}

// TestCacheStatesPrunesBeyondSleepSets: state caching must cut executions
// on the converging harness — including under sleep sets, whose
// independence-based pruning cannot collapse the conflicting writes — while
// preserving the set of distinct final states, and must report its hits.
func TestCacheStatesPrunesBeyondSleepSets(t *testing.T) {
	for _, prune := range []PruneMode{PruneNone, PruneSleep} {
		base := map[int64]int{}
		baseRep, err := Run(convergingHarness(base), Config{Prune: prune, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		cached := map[int64]int{}
		cachedRep, err := Run(convergingHarness(cached), Config{Prune: prune, Workers: 1, CacheStates: true})
		if err != nil {
			t.Fatal(err)
		}
		if cachedRep.CacheHits == 0 {
			t.Fatalf("prune=%v: no cache hits on the converging harness", prune)
		}
		if cachedRep.Executions >= baseRep.Executions {
			t.Fatalf("prune=%v: caching did not cut executions: %d vs %d", prune, cachedRep.Executions, baseRep.Executions)
		}
		for k := range base {
			if cached[k] == 0 {
				t.Fatalf("prune=%v: caching lost final state %d (%v vs %v)", prune, k, cached, base)
			}
		}
		// One-worker cached walks are deterministic.
		again := map[int64]int{}
		againRep, err := Run(convergingHarness(again), Config{Prune: prune, Workers: 1, CacheStates: true})
		if err != nil {
			t.Fatal(err)
		}
		if againRep.Executions != cachedRep.Executions || againRep.CacheHits != cachedRep.CacheHits {
			t.Fatalf("prune=%v: cached walk not deterministic: %+v vs %+v", prune, againRep, cachedRep)
		}
	}
}

// TestCacheStatesInertWithoutRegistration: a harness that registers
// nothing cannot be fingerprinted, so caching must change nothing (rather
// than aliasing every state to one key).
func TestCacheStatesInertWithoutRegistration(t *testing.T) {
	unregistered := func(outcomes map[int64]int) Harness {
		return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
			env := memory.NewEnv(2)
			r := memory.NewIntReg(0)
			inc := func(p *memory.Proc) {
				v := r.Read(p)
				r.Write(p, v+1)
			}
			check := func(res *sched.Result) error {
				outcomes[r.Read(env.Proc(0))]++
				return nil
			}
			return env, []func(p *memory.Proc){inc, inc}, check, r.ResetState
		}
	}
	base := map[int64]int{}
	baseRep, err := Run(unregistered(base), Config{})
	if err != nil {
		t.Fatal(err)
	}
	cached := map[int64]int{}
	cachedRep, err := Run(unregistered(cached), Config{CacheStates: true})
	if err != nil {
		t.Fatal(err)
	}
	if cachedRep.Executions != baseRep.Executions || cachedRep.CacheHits != 0 {
		t.Fatalf("caching must be inert without registration: %+v vs %+v", cachedRep, baseRep)
	}
	if !reflect.DeepEqual(base, cached) {
		t.Fatalf("outcomes diverged: %v vs %v", base, cached)
	}
}

// uniqueFailureHarness fails on exactly one interleaving — the strictly
// alternating 0,1,0,1 schedule — so failure reporting can be compared
// across differently cut walks without path bookkeeping. The bodies write
// (conflicting accesses), so sleep sets cannot prune any leaf and the
// failing schedule survives under every config.
func uniqueFailureHarness() Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		r := memory.NewIntReg(0)
		env.Register(r)
		body := func(p *memory.Proc) {
			r.Write(p, 1)
			r.Write(p, 2)
		}
		check := func(res *sched.Result) error {
			want := []sched.Choice{{Proc: 0}, {Proc: 1}, {Proc: 0}, {Proc: 1}}
			if reflect.DeepEqual(res.Schedule, want) {
				return errors.New("planted: alternating schedule")
			}
			return nil
		}
		return env, []func(p *memory.Proc){body, body}, check, func() {}
	}
}

// TestResumeDeterminism is the checkpoint contract: a TimeBudget-cut walk,
// resumed under a different worker count (and a further MaxExecutions
// cut), must report the same total execution count and surface the same
// canonically least failure as an uncut run.
func TestResumeDeterminism(t *testing.T) {
	for _, prune := range []PruneMode{PruneNone, PruneSleep} {
		uncut, uncutErr := Run(uniqueFailureHarness(), Config{Prune: prune, Workers: 1})
		var uncutCE *CheckError
		if !errors.As(uncutErr, &uncutCE) {
			t.Fatalf("prune=%v: uncut walk must fail, got %v", prune, uncutErr)
		}

		// Round 1: a nanosecond budget cuts the walk at (or near) the root.
		rep, err := Run(uniqueFailureHarness(), Config{Prune: prune, Workers: 1, TimeBudget: time.Nanosecond})
		total := rep.Executions
		var failures []*CheckError
		var ce *CheckError
		if errors.As(err, &ce) {
			failures = append(failures, ce)
		} else if err != nil {
			t.Fatal(err)
		}
		if !rep.Partial || rep.Checkpoint == nil {
			t.Fatalf("prune=%v: nanosecond budget should cut the walk: %+v", prune, rep)
		}

		// Later rounds: resume under different worker counts, first with an
		// execution budget, then to completion.
		cfgs := []Config{
			{Prune: prune, Workers: 4, MaxExecutions: 2},
			{Prune: prune, Workers: 8},
		}
		for i := 0; rep.Partial; i++ {
			cfg := cfgs[0]
			if i >= 1 {
				cfg = cfgs[1]
			}
			cfg.Resume = rep.Checkpoint
			rep, err = Run(uniqueFailureHarness(), cfg)
			total += rep.Executions
			ce = nil
			if errors.As(err, &ce) {
				failures = append(failures, ce)
			} else if err != nil {
				t.Fatal(err)
			}
			if rep.Partial && rep.Checkpoint == nil {
				t.Fatalf("prune=%v: partial report without checkpoint", prune)
			}
			if i > 100 {
				t.Fatal("resume loop did not terminate")
			}
		}
		if total != uncut.Executions {
			t.Fatalf("prune=%v: stitched walk ran %d executions, uncut ran %d", prune, total, uncut.Executions)
		}
		if len(failures) != 1 {
			t.Fatalf("prune=%v: unique failure reported %d times", prune, len(failures))
		}
		if !reflect.DeepEqual(failures[0].Schedule, uncutCE.Schedule) {
			t.Fatalf("prune=%v: resumed failure %v, uncut %v", prune, failures[0].Schedule, uncutCE.Schedule)
		}
	}
}

// TestSourceDPORRejectsIncompatibleConfigs: caching and checkpoints are
// sleep/none features; the engine must refuse the combination loudly
// rather than run an unsound or unresumable walk.
func TestSourceDPORRejectsIncompatibleConfigs(t *testing.T) {
	if _, err := Run(mixedHarness(nil), Config{Prune: PruneSourceDPOR, CacheStates: true}); err == nil {
		t.Fatal("source-DPOR with CacheStates must error")
	}
	if _, err := Run(mixedHarness(nil), Config{Prune: PruneSourceDPOR, Resume: &Checkpoint{}}); err == nil {
		t.Fatal("source-DPOR with Resume must error")
	}
	// And a budget-cut source-DPOR walk must not hand out a bogus frontier.
	rep, err := Run(mixedHarness(nil), Config{Prune: PruneSourceDPOR, MaxExecutions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial || rep.Checkpoint != nil {
		t.Fatalf("budget-cut dpor walk: %+v, want Partial with nil Checkpoint", rep)
	}
}

// TestSharedCacheDeterministicFieldsAcrossWorkers pins the report contract
// of the cross-worker sharded cache: executions, pruned and cache hits are
// advisory with more than one worker, but the verdict, the terminal-state
// coverage and MaxDepth must match the 1-worker run exactly.
func TestSharedCacheDeterministicFieldsAcrossWorkers(t *testing.T) {
	for _, prune := range []PruneMode{PruneNone, PruneSleep} {
		base, err := Run(convergingHarness(nil), Config{Prune: prune, Workers: 1, CacheStates: true})
		if err != nil {
			t.Fatal(err)
		}
		if base.CacheHits == 0 || !base.FingerprintOK {
			t.Fatalf("prune=%v: cache inert on the converging harness: %+v", prune, base)
		}
		for _, workers := range []int{4, 8} {
			rep, err := Run(convergingHarness(nil), Config{Prune: prune, Workers: workers, CacheStates: true})
			if err != nil {
				t.Fatalf("prune=%v workers=%d: %v", prune, workers, err)
			}
			if !reflect.DeepEqual(rep.TerminalStates, base.TerminalStates) ||
				rep.DistinctStates != base.DistinctStates || rep.MaxDepth != base.MaxDepth {
				t.Fatalf("prune=%v workers=%d: deterministic fields diverged:\n%+v\nvs\n%+v", prune, workers, rep, base)
			}
		}
	}
}
