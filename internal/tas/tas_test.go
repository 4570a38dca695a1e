package tas

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/linearize"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/trace"
)

func TestSoloA1WinsConstantSteps(t *testing.T) {
	env := memory.NewEnv(1)
	a1 := NewA1()
	p := env.Proc(0)
	out, resp, _ := a1.Invoke(p, spec.Request{ID: 1}, nil)
	if out != core.Committed || resp != spec.Winner {
		t.Fatalf("solo A1 = (%v, %d), want committed winner", out, resp)
	}
	if p.Steps() > 9 {
		t.Fatalf("solo A1 steps = %d, want constant ≤ 9", p.Steps())
	}
	if p.RMWs() != 0 {
		t.Fatalf("A1 must be register-only, saw %d RMWs", p.RMWs())
	}
}

func TestSequentialA1SecondLoses(t *testing.T) {
	env := memory.NewEnv(2)
	a1 := NewA1()
	out, resp, _ := a1.Invoke(env.Proc(0), spec.Request{ID: 1}, nil)
	if out != core.Committed || resp != spec.Winner {
		t.Fatal("first must win")
	}
	p1 := env.Proc(1)
	out, resp, _ = a1.Invoke(p1, spec.Request{ID: 2}, nil)
	if out != core.Committed || resp != spec.Loser {
		t.Fatal("second must lose")
	}
	if p1.Steps() > 2 {
		t.Fatalf("sequential loser path = %d steps, want ≤ 2", p1.Steps())
	}
}

func TestA1InheritedLLosesImmediately(t *testing.T) {
	env := memory.NewEnv(1)
	a1 := NewA1()
	out, resp, _ := a1.Invoke(env.Proc(0), spec.Request{ID: 1}, L)
	if out != core.Committed || resp != spec.Loser {
		t.Fatalf("A1(L) = (%v, %d), want committed loser", out, resp)
	}
}

func TestA2WaitFree(t *testing.T) {
	env := memory.NewEnv(3)
	a2 := NewA2()
	out, resp, _ := a2.Invoke(env.Proc(0), spec.Request{ID: 1}, W)
	if out != core.Committed || resp != spec.Winner {
		t.Fatalf("first A2(W) = (%v, %d)", out, resp)
	}
	out, resp, _ = a2.Invoke(env.Proc(1), spec.Request{ID: 2}, W)
	if out != core.Committed || resp != spec.Loser {
		t.Fatalf("second A2(W) = (%v, %d)", out, resp)
	}
	p2 := env.Proc(2)
	p2.ResetCounters()
	out, resp, _ = a2.Invoke(p2, spec.Request{ID: 3}, L)
	if out != core.Committed || resp != spec.Loser || p2.Steps() != 0 {
		t.Fatalf("A2(L) = (%v, %d) in %d steps, want loser in 0 steps", out, resp, p2.Steps())
	}
}

func TestSoloComposedZeroRMW(t *testing.T) {
	// E6: the uncontended fast path of the composed object performs no RMW
	// (optimal fence complexity) and a constant number of steps.
	env := memory.NewEnv(1)
	o := NewOneShot()
	p := env.Proc(0)
	v, module := o.TestAndSetTraced(p)
	if v != spec.Winner || module != 0 {
		t.Fatalf("solo composed = (%d, module %d)", v, module)
	}
	if p.RMWs() != 0 {
		t.Fatalf("uncontended composed TAS used %d RMWs, want 0", p.RMWs())
	}
	if p.Steps() > 9 {
		t.Fatalf("uncontended composed TAS took %d steps", p.Steps())
	}
}

// stamped wires a recorder to the environment's schedule-derived stamps
// (memory.Proc.EventStamp), so that recorded traces depend only on the
// scheduler's choices.
func stamped(env *memory.Env, rec *trace.Recorder) *trace.Recorder {
	rec.SetStampSource(func(proc int) int64 { return env.Proc(proc).EventStamp() })
	return rec
}

// a1Outcome captures one process's result from an A1-only execution.
type a1Outcome struct {
	committed bool
	resp      int64
	sv        SV
}

// checkLemma4Invariants verifies invariants 1–5 of Lemma 4 plus
// linearizability of the committed projection on a recorded A1 execution.
func checkLemma4Invariants(outs []a1Outcome, ops []trace.Op, res *sched.Result) error {
	winners, wAborts, lAborts := 0, 0, 0
	for _, o := range outs {
		switch {
		case o.committed && o.resp == spec.Winner:
			winners++
		case !o.committed && o.sv == W:
			wAborts++
		case !o.committed && o.sv == L:
			lAborts++
		}
	}
	// Invariant 1: at most one process commits winner.
	if winners > 1 {
		return fmt.Errorf("invariant 1: %d winners", winners)
	}
	// Invariant 2: a committed winner excludes W-aborts.
	if winners == 1 && wAborts > 0 {
		return fmt.Errorf("invariant 2: winner and %d W-aborts coexist", wAborts)
	}
	// Extract per-op data in real time.
	minLoserRet := int64(1<<62 - 1)
	for _, op := range ops {
		if op.Committed() && op.Resp == spec.Loser && op.Ret < minLoserRet {
			minLoserRet = op.Ret
		}
	}
	hasLoser := minLoserRet < 1<<62-1
	// Invariant 3: if any loser committed, some operation that crashed,
	// won, or W-aborted was invoked before any loser committed.
	if hasLoser {
		ok := false
		for _, op := range ops {
			cand := op.Pending || // crashed / cut off
				(op.Committed() && op.Resp == spec.Winner) ||
				(op.Aborted && op.SV == core.SwitchValue(W))
			if cand && op.Inv < minLoserRet {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("invariant 3: losers committed with no candidate winner invoked before")
		}
	}
	// Invariant 4: no W-abort starts after a loser commits.
	for _, op := range ops {
		if op.Aborted && op.SV == core.SwitchValue(W) && op.Inv > minLoserRet {
			return fmt.Errorf("invariant 4: W-abort invoked after a loser committed")
		}
	}
	// Invariant 5: operations starting after an abort abort; after an
	// L-abort they abort with L.
	for _, a := range ops {
		if !a.Aborted {
			continue
		}
		for _, b := range ops {
			if b.Pending || b.Inv < a.Ret {
				continue
			}
			if !b.Aborted {
				return fmt.Errorf("invariant 5: operation committed after an abort")
			}
			if a.SV == core.SwitchValue(L) && b.SV != core.SwitchValue(L) {
				return fmt.Errorf("invariant 5: non-L abort after an L abort")
			}
		}
	}
	// Linearizability of the invoke/commit projection (Theorem 3 for A1):
	// aborted operations project to pending invocations — they may have
	// taken partial effect, which is exactly how a committed loser can be
	// explained when no winner committed.
	var committed []trace.Op
	for _, op := range ops {
		switch {
		case op.Committed(), op.Pending:
			committed = append(committed, op)
		case op.Aborted:
			pendingOp := op
			pendingOp.Aborted = false
			pendingOp.Pending = true
			pendingOp.Ret = 0
			committed = append(committed, pendingOp)
		}
	}
	if lr, lerr := linearize.CheckTAS(committed); lerr != nil || !lr.Ok {
		return fmt.Errorf("committed projection not linearizable: %s", lr.Reason)
	}
	return nil
}

// a1Harness builds an exploration harness running one A1 TAS per process,
// checking Lemma 4's invariants (and optionally Definition 2) on every
// interleaving.
func a1Harness(n int, withDef2 bool, crashes bool) engine.Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		a1 := NewA1()
		env.Register(a1)
		rec := stamped(env, trace.NewRecorder(n))
		outs := make([]a1Outcome, n)
		bodies := make([]func(p *memory.Proc), n)
		for i := 0; i < n; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				m := spec.Request{ID: int64(i + 1), Proc: i, Op: spec.OpTAS}
				rec.RecordInvoke(i, m)
				out, resp, sv := a1.Invoke(p, m, nil)
				if out == core.Committed {
					outs[i] = a1Outcome{committed: true, resp: resp}
					rec.RecordCommit(i, m, resp, "A1")
				} else {
					outs[i] = a1Outcome{committed: false, sv: sv.(SV)}
					rec.RecordAbort(i, m, sv, "A1")
				}
			}
		}
		check := func(res *sched.Result) error {
			live := outs
			if crashes {
				// Crashed processes never reported an outcome; rebuild the
				// outcome list from completed operations only.
				live = nil
				for i, o := range outs {
					if res.Finished[i] {
						live = append(live, o)
					}
				}
			}
			if err := checkLemma4Invariants(live, rec.Ops(), res); err != nil {
				return err
			}
			if withDef2 {
				if err := core.CheckDefinition2(spec.TASType{}, MConstraint{}, rec.Events()); err != nil {
					return err
				}
			}
			return nil
		}
		reset := func() {
			rec.Reset()
			clear(outs)
		}
		return env, bodies, check, reset
	}
}

// engineCfg is the exploration config the reference harnesses run under:
// sleep-set pruning plus a worker pool. Pruning skips only re-orderings of
// commuting steps, so the universally quantified checks still cover every
// distinct behaviour.
var engineCfg = engine.Config{Prune: engine.PruneSourceDPOR, Workers: 8}

func withCrashes(cfg engine.Config) engine.Config {
	cfg.Crashes = true
	return cfg
}

func TestExhaustiveA1Invariants(t *testing.T) {
	rep, err := engine.Run(a1Harness(2, false, false), engineCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("two-process A1 exploration should be exhaustive")
	}
	t.Logf("A1 n=2: %d interleavings (%d pruned), max depth %d", rep.Executions, rep.Pruned, rep.MaxDepth)
}

func TestExhaustiveA1InvariantsThreeProcs(t *testing.T) {
	// Previously only sampled: pruning makes the n=3 tree exhaustively
	// checkable in well under a second.
	rep, err := engine.Run(a1Harness(3, false, false), engineCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("three-process A1 exploration should be exhaustive")
	}
	t.Logf("A1 n=3: %d interleavings (%d pruned), max depth %d", rep.Executions, rep.Pruned, rep.MaxDepth)
}

func TestExhaustiveA1Definition2(t *testing.T) {
	// Lemma 4 checked mechanically: every interleaving's trace admits a
	// valid interpretation for every abort-candidate equivalence class.
	rep, err := engine.Run(a1Harness(2, true, false), engineCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("A1 Def.2 n=2: %d interleavings (%d pruned)", rep.Executions, rep.Pruned)
}

func TestExhaustiveA1WithCrashes(t *testing.T) {
	rep, err := engine.Run(a1Harness(2, false, true), withCrashes(engineCfg))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("two-process crash exploration should be exhaustive under pruning")
	}
	t.Logf("A1 n=2 with crashes: %d interleavings (%d pruned)", rep.Executions, rep.Pruned)
}

func TestExhaustiveA1ThreeProcsWithCrashes(t *testing.T) {
	// Crash branches commute with other processes' steps, so pruning tames
	// the 2^depth crash blow-up that made this configuration infeasible.
	rep, err := engine.Run(a1Harness(3, false, true), withCrashes(engineCfg))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("three-process crash exploration should be exhaustive under pruning")
	}
	t.Logf("A1 n=3 with crashes: %d interleavings (%d pruned)", rep.Executions, rep.Pruned)
}

func TestRandomizedA1ThreeProcs(t *testing.T) {
	if _, err := engine.Sample(a1Harness(3, true, false), engine.SampleConfig{Samples: 2500, Seed: 5}); err != nil {
		t.Fatal(err)
	}
}

// composedHarness runs the packaged OneShot (the A1→A2 composition) per
// process with per-module trace recording, checking wait-freedom, unique
// winner, linearizability, and Definition 2 for each module's trace.
func composedHarness(n int, withDef2 bool) engine.Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		recA1 := stamped(env, trace.NewRecorder(n))
		recA2 := stamped(env, trace.NewRecorder(n))
		recAll := stamped(env, trace.NewRecorder(n))
		o := NewOneShot()
		env.Register(o)
		comp := o.WithRecorders(recA1, recA2)
		resps := make([]int64, n)
		modules := make([]int, n)
		bodies := make([]func(p *memory.Proc), n)
		for i := 0; i < n; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				m := spec.Request{ID: int64(i + 1), Proc: i, Op: spec.OpTAS}
				recAll.RecordInvoke(i, m)
				out, resp, _, k := comp.Invoke(p, m)
				if out != core.Committed {
					panic("composition with wait-free tail aborted")
				}
				resps[i] = resp
				modules[i] = k
				recAll.RecordCommit(i, m, resp, fmt.Sprintf("module%d", k))
			}
		}
		check := func(res *sched.Result) error {
			winners := 0
			for _, r := range resps {
				if r == spec.Winner {
					winners++
				}
			}
			if winners != 1 {
				return fmt.Errorf("composed TAS produced %d winners", winners)
			}
			if lr, lerr := linearize.CheckTAS(recAll.Ops()); lerr != nil || !lr.Ok {
				return fmt.Errorf("composed execution not linearizable: %s", lr.Reason)
			}
			if withDef2 {
				if err := core.CheckDefinition2(spec.TASType{}, MConstraint{}, recA1.Events()); err != nil {
					return fmt.Errorf("A1 trace: %w", err)
				}
				if err := core.CheckDefinition2(spec.TASType{}, MConstraint{}, recA2.Events()); err != nil {
					return fmt.Errorf("A2 trace: %w", err)
				}
				if err := core.CheckDefinition2(spec.TASType{}, MConstraint{}, recAll.Events()); err != nil {
					return fmt.Errorf("composed trace (Theorem 2): %w", err)
				}
			}
			return nil
		}
		reset := func() {
			recA1.Reset()
			recA2.Reset()
			recAll.Reset()
			clear(resps)
			clear(modules)
		}
		return env, bodies, check, reset
	}
}

func TestExhaustiveComposedOneShot(t *testing.T) {
	rep, err := engine.Run(composedHarness(2, true), engineCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("two-process composed exploration should be exhaustive")
	}
	t.Logf("composed n=2: %d interleavings (%d pruned)", rep.Executions, rep.Pruned)
}

func TestExhaustiveComposedThreeProcs(t *testing.T) {
	// Previously capped at 25000 interleavings for n=2 and sampled for
	// n=3; the pruned engine checks every three-process behaviour.
	rep, err := engine.Run(composedHarness(3, true), engineCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("three-process composed exploration should be exhaustive")
	}
	t.Logf("composed n=3: %d interleavings (%d pruned), max depth %d", rep.Executions, rep.Pruned, rep.MaxDepth)
}

// crashComposedHarness is composedHarness made crash-aware: winners are
// counted over committed operations only (a crashed process's operation
// stays pending, which CheckTAS accounts for), and survivors must finish
// (wait-freedom of the A2 tail).
func crashComposedHarness(n int) engine.Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		o := NewOneShot()
		env.Register(o)
		rec := stamped(env, trace.NewRecorder(n))
		bodies := make([]func(p *memory.Proc), n)
		for i := 0; i < n; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				m := spec.Request{ID: int64(i + 1), Proc: i, Op: spec.OpTAS}
				rec.RecordInvoke(i, m)
				v := o.TestAndSet(p)
				rec.RecordCommit(i, m, v, "")
			}
		}
		check := func(res *sched.Result) error {
			ops := rec.Ops()
			winners := 0
			for _, op := range ops {
				if op.Committed() && op.Resp == spec.Winner {
					winners++
				}
			}
			if winners > 1 {
				return fmt.Errorf("%d winners", winners)
			}
			for i := 0; i < n; i++ {
				if !res.Crashed[i] && !res.Finished[i] {
					return fmt.Errorf("survivor %d did not finish", i)
				}
			}
			if lr, lerr := linearize.CheckTAS(ops); lerr != nil || !lr.Ok {
				return fmt.Errorf("not linearizable: %s", lr.Reason)
			}
			return nil
		}
		return env, bodies, check, rec.Reset
	}
}

func TestExhaustiveComposedThreeProcsWithCrashes(t *testing.T) {
	// The flagship previously-infeasible configuration: the full one-shot
	// composition under every interleaving of three processes *and* every
	// crash pattern. Unpruned this tree is astronomically large (the n=2
	// crash tree already had 80514 leaves); sleep sets collapse it to a
	// few tens of thousands of representative executions. EXPERIMENTS.md
	// records the reference counts.
	if testing.Short() {
		t.Skip("short mode: ~2s unraced, longer under -race")
	}
	rep, err := engine.Run(crashComposedHarness(3), withCrashes(engineCfg))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("composed n=3 crash exploration should be exhaustive")
	}
	if rep.Pruned == 0 {
		t.Fatal("crash exploration at n=3 is only feasible because of pruning; report claims none")
	}
	t.Logf("composed n=3 with crashes: %d interleavings (%d pruned), max depth %d",
		rep.Executions, rep.Pruned, rep.MaxDepth)
}

func TestExhaustiveComposedFourProcs(t *testing.T) {
	// The full one-shot composition under every four-process interleaving,
	// a default check since source-DPOR: ~15s on the 8-worker pool, where
	// PR 1's sleep-set engine needed ~100s and gated it behind
	// REPRO_EXHAUSTIVE_N4. Short mode (CI) still skips it. The execution
	// count is pinned: it must equal the legacy engine's 408728 (both
	// reductions complete exactly one interleaving per trace class), and
	// EXPERIMENTS.md records the attempt counts that differ.
	if testing.Short() {
		t.Skip("short mode: ~15s exhaustive walk")
	}
	rep, err := engine.Run(composedHarness(4, false), engineCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("four-process composed exploration should be exhaustive")
	}
	if rep.Executions != 408728 {
		t.Fatalf("composed n=4 = %d executions, want the engine-independent 408728", rep.Executions)
	}
	t.Logf("composed n=4: %d interleavings (%d attempts, %d pruned, %d backtracks), max depth %d",
		rep.Executions, rep.Attempts, rep.Pruned, rep.Backtracks, rep.MaxDepth)
}

func TestRandomizedComposedThreeProcs(t *testing.T) {
	if _, err := engine.Sample(composedHarness(3, true), engine.SampleConfig{Samples: 1500, Seed: 17}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSpeedupOverSeedBaseline pins the headline acceptance property
// of the engine in its load-independent form: on the reference A1 harness
// the seed-equivalent walk (one worker, no pruning) runs exactly 9662
// executions and the default engine (source-DPOR, 8 workers) exactly 22 —
// execution counts of completed walks are deterministic for every worker
// count. How much wall-clock that buys is a benchmark's question
// (BENCH_E10.json, benchmark/), not a unit test's.
func TestEngineSpeedupOverSeedBaseline(t *testing.T) {
	seedRep, err := engine.Run(a1Harness(2, false, false), engine.Config{}) // seed mode: 1 worker, no pruning
	if err != nil {
		t.Fatal(err)
	}
	newRep, err := engine.Run(a1Harness(2, false, false), engineCfg)
	if err != nil {
		t.Fatal(err)
	}
	if seedRep.Partial || newRep.Partial {
		t.Fatal("both explorations must be exhaustive")
	}
	if seedRep.Executions != 9662 || newRep.Executions != 22 {
		t.Fatalf("A1 n=2: seed mode ran %d executions, the pruned engine %d; want 9662 and 22", seedRep.Executions, newRep.Executions)
	}
	if !reflect.DeepEqual(seedRep.TerminalStates, newRep.TerminalStates) {
		t.Fatalf("pruning lost terminal states: %d vs the seed walk's %d", newRep.DistinctStates, seedRep.DistinctStates)
	}
}

// TestSourceDPORStrictReduction pins the headline of the unified engine
// core: on the reference A1 and composed harnesses at n=3, source-DPOR
// must complete the *same* interleavings as the legacy sleep sets (both
// reductions are one-execution-per-trace-class, so equal counts are the
// correctness witness) while attempting strictly — here >3x — fewer runs.
// All counts are exact at one worker; EXPERIMENTS.md E14 records them.
func TestSourceDPORStrictReduction(t *testing.T) {
	type want struct {
		execs                       int
		dporAttempts, sleepAttempts int
	}
	cases := []struct {
		name string
		h    engine.Harness
		want want
	}{
		{"a1-n3", a1Harness(3, false, false), want{1092, 1127, 4037}},
		{"composed-n3", composedHarness(3, false), want{1956, 1991, 7165}},
	}
	for _, c := range cases {
		dpor, err := engine.Run(c.h, engine.Config{Prune: engine.PruneSourceDPOR, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		sleep, err := engine.Run(c.h, engine.Config{Prune: engine.PruneSleep, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if dpor.Executions != c.want.execs || sleep.Executions != c.want.execs {
			t.Fatalf("%s: executions dpor=%d sleep=%d, want both %d", c.name, dpor.Executions, sleep.Executions, c.want.execs)
		}
		if dpor.Attempts != c.want.dporAttempts || sleep.Attempts != c.want.sleepAttempts {
			t.Fatalf("%s: attempts dpor=%d sleep=%d, want %d / %d", c.name, dpor.Attempts, sleep.Attempts, c.want.dporAttempts, c.want.sleepAttempts)
		}
		if dpor.Attempts*3 > sleep.Attempts {
			t.Fatalf("%s: source-DPOR attempted %d runs, want <= 1/3 of sleep sets' %d", c.name, dpor.Attempts, sleep.Attempts)
		}
		if !reflect.DeepEqual(dpor.TerminalStates, sleep.TerminalStates) {
			t.Fatalf("%s: terminal-state coverage diverged (%d vs %d states)", c.name, dpor.DistinctStates, sleep.DistinctStates)
		}
	}
}

// TestLegacyCachedCountsReproduce pins the PR 2 state-caching counts under
// the legacy sleep-set mode with the widened 128-bit fingerprint lanes:
// the cache key changed representation, but equal states still collide and
// distinct states still do not, so the deterministic 1-worker counts must
// be exactly the ledger's (A1 n=3: 1092 -> 273; composed n=3: 1956 -> 421).
func TestLegacyCachedCountsReproduce(t *testing.T) {
	cfg := engine.Config{Prune: engine.PruneSleep, Workers: 1, CacheStates: true}
	rep, err := engine.Run(a1Harness(3, false, false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != 273 {
		t.Fatalf("cached A1 n=3 = %d executions, want 273", rep.Executions)
	}
	rep, err = engine.Run(composedHarness(3, false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != 421 {
		t.Fatalf("cached composed n=3 = %d executions, want 421", rep.Executions)
	}
}

// countingHarness wraps h so a test can read what a one-worker walk cost in
// load-independent units: how many times the harness was constructed, and
// (from the environment it built last) the cumulative shared-memory steps
// executed through it.
type countingHarness struct {
	constructs int
	env        *memory.Env
}

func (c *countingHarness) wrap(h engine.Harness) engine.Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env, bodies, check, reset := h()
		c.constructs++
		c.env = env
		return env, bodies, check, reset
	}
}

func (c *countingHarness) steps() int64 {
	steps, _, _ := c.env.CumulativeCounts()
	return steps
}

// TestSourceDPORSpeedupOverSleepSets pins the work half of the E14 claim in
// its load-independent form: on the composed n=3 walk at one worker
// source-DPOR runs 1991 attempts where the legacy sleep sets run 7165, and
// executes less than half the gated shared-memory steps (prefix replay
// included), which is what wall-clock tracks. The wall-clock itself lives in BENCH_E14.json.
func TestSourceDPORSpeedupOverSleepSets(t *testing.T) {
	measure := func(mode engine.PruneMode) (attempts int, steps int64) {
		var c countingHarness
		cfg := engine.Config{Prune: mode, Workers: 1}
		rep, err := engine.Run(c.wrap(composedHarness(3, false)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Executions != 1956 {
			t.Fatalf("%v: %d executions, want 1956", mode, rep.Executions)
		}
		return rep.Attempts, c.steps()
	}
	sleepAttempts, sleepSteps := measure(engine.PruneSleep)
	dporAttempts, dporSteps := measure(engine.PruneSourceDPOR)
	if sleepAttempts != 7165 || dporAttempts != 1991 {
		t.Fatalf("attempts sleep=%d dpor=%d, want 7165 / 1991", sleepAttempts, dporAttempts)
	}
	if sleepSteps != composedN3SleepSteps || dporSteps != composedN3DPORSteps {
		t.Fatalf("gated steps sleep=%d dpor=%d, want %d / %d", sleepSteps, dporSteps, composedN3SleepSteps, composedN3DPORSteps)
	}
	if dporSteps*2 > sleepSteps {
		t.Fatalf("source-DPOR executed %d steps, want <= 1/2 of sleep sets' %d", dporSteps, sleepSteps)
	}
}

// The gated shared-memory steps of the composed n=3 walk at one worker,
// prefix replay included: exact, like every one-worker count.
const (
	composedN3SleepSteps = 177069
	composedN3DPORSteps  = 52142
)

func TestTheorem2A1ComposedWithItself(t *testing.T) {
	// "Module A1 can also be composed with itself" (Section 6.3). The
	// A1→A1 composition may abort as a whole; Definition 2 must hold for
	// both module traces and for the composed trace.
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		rec1 := stamped(env, trace.NewRecorder(2))
		rec2 := stamped(env, trace.NewRecorder(2))
		recAll := stamped(env, trace.NewRecorder(2))
		m1, m2 := NewA1(), NewA1()
		env.Register(m1, m2)
		comp := core.NewComposition(m1, m2).WithRecorders(rec1, rec2)
		bodies := make([]func(p *memory.Proc), 2)
		for i := 0; i < 2; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				m := spec.Request{ID: int64(i + 1), Proc: i, Op: spec.OpTAS}
				recAll.RecordInvoke(i, m)
				out, resp, sv, k := comp.Invoke(p, m)
				if out == core.Committed {
					recAll.RecordCommit(i, m, resp, fmt.Sprintf("module%d", k))
				} else {
					recAll.RecordAbort(i, m, sv, fmt.Sprintf("module%d", k))
				}
			}
		}
		check := func(res *sched.Result) error {
			for name, events := range map[string][]trace.Event{
				"A1a": rec1.Events(), "A1b": rec2.Events(), "composed": recAll.Events(),
			} {
				if err := core.CheckDefinition2(spec.TASType{}, MConstraint{}, events); err != nil {
					return fmt.Errorf("%s trace: %w", name, err)
				}
			}
			return nil
		}
		reset := func() {
			rec1.Reset()
			rec2.Reset()
			recAll.Reset()
		}
		return env, bodies, check, reset
	}
	rep, err := engine.Run(h, engineCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("A1∘A1 n=2: %d interleavings (partial=%v)", rep.Executions, rep.Partial)
}

func TestLemma6NoAbortWithoutStepContention(t *testing.T) {
	// Solo schedules (contiguous steps per operation) must never abort,
	// for every completion order — even though logical intervals overlap
	// (interval contention without step contention).
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}} {
		env := memory.NewEnv(3)
		a1 := NewA1()
		outs := make([]core.Outcome, 3)
		bodies := make([]func(p *memory.Proc), 3)
		for i := 0; i < 3; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				outs[i], _, _ = a1.Invoke(p, spec.Request{ID: int64(i + 1)}, nil)
			}
		}
		sched.Run(env, sched.NewSolo(order...), bodies)
		for i, out := range outs {
			if out != core.Committed {
				t.Fatalf("order %v: process %d aborted without step contention", order, i)
			}
		}
	}
}

func TestContendedComposedUsesHardwareOnce(t *testing.T) {
	// Round-robin (maximal step contention): the composition stays
	// wait-free, produces one winner, and charges at most one RMW per
	// operation (the hardware TAS).
	env := memory.NewEnv(4)
	o := NewOneShot()
	resps := make([]int64, 4)
	bodies := make([]func(p *memory.Proc), 4)
	for i := 0; i < 4; i++ {
		i := i
		bodies[i] = func(p *memory.Proc) { resps[i] = o.TestAndSet(p) }
	}
	res := sched.Run(env, sched.NewRoundRobin(), bodies)
	winners := 0
	for i, r := range resps {
		if r == spec.Winner {
			winners++
		}
		if env.Proc(i).RMWs() > 1 {
			t.Fatalf("process %d used %d RMWs, want ≤ 1", i, env.Proc(i).RMWs())
		}
		if res.Steps[i] > 15 {
			t.Fatalf("process %d took %d steps, want constant", i, res.Steps[i])
		}
	}
	if winners != 1 {
		t.Fatalf("winners = %d", winners)
	}
}

func TestLongLivedSequentialRounds(t *testing.T) {
	env := memory.NewEnv(2)
	ll := NewLongLived(2)
	p0, p1 := env.Proc(0), env.Proc(1)
	for round := 0; round < 5; round++ {
		if v := ll.TestAndSet(p0); v != spec.Winner {
			t.Fatalf("round %d: p0 should win a fresh round, got %d", round, v)
		}
		if v := ll.TestAndSet(p1); v != spec.Loser {
			t.Fatalf("round %d: p1 should lose, got %d", round, v)
		}
		// A loser's reset is a no-op.
		ll.Reset(p1)
		if v := ll.TestAndSet(p1); v != spec.Loser {
			t.Fatal("loser reset must not revert the object")
		}
		ll.Reset(p0)
		if ll.Round(p0) != int64(round+1) {
			t.Fatalf("round counter = %d, want %d", ll.Round(p0), round+1)
		}
	}
}

func TestLongLivedResetRestoresSpeculation(t *testing.T) {
	// Figure 1's back edge: after contention forces the hardware module,
	// a reset reverts subsequent solo operations to the register-only
	// fast path.
	env := memory.NewEnv(3)
	ll := NewLongLived(3)
	// Force contention in round 0 via round-robin: someone reaches A2.
	bodies := make([]func(p *memory.Proc), 3)
	winner := -1
	modules := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		bodies[i] = func(p *memory.Proc) {
			v, mod := ll.TestAndSetTraced(p)
			modules[i] = mod
			if v == spec.Winner {
				winner = i
			}
		}
	}
	sched.Run(env, sched.NewRoundRobin(), bodies)
	if winner < 0 {
		t.Fatal("round 0 must produce a winner")
	}
	usedHW := false
	for _, m := range modules {
		if m == 1 {
			usedHW = true
		}
	}
	if !usedHW {
		t.Fatal("round-robin contention should have engaged the hardware module")
	}
	// Winner resets; a solo operation must now be served by A1 with 0 RMW.
	ll.Reset(env.Proc(winner))
	p := env.Proc(winner)
	p.ResetCounters()
	v, mod := ll.TestAndSetTraced(p)
	if v != spec.Winner || mod != 0 {
		t.Fatalf("post-reset solo = (%d, module %d), want winner on A1", v, mod)
	}
	if p.RMWs() != 0 {
		t.Fatalf("post-reset solo used %d RMWs", p.RMWs())
	}
}

func TestLongLivedStressUniqueWinnerPerRound(t *testing.T) {
	const n, rounds = 6, 40
	env := memory.NewEnv(n)
	ll := NewLongLived(n)
	for round := 0; round < rounds; round++ {
		resps := make([]int64, n)
		done := make(chan int, n)
		for i := 0; i < n; i++ {
			go func(i int) {
				resps[i] = ll.TestAndSet(env.Proc(i))
				done <- i
			}(i)
		}
		for i := 0; i < n; i++ {
			<-done
		}
		winners := 0
		w := -1
		for i, r := range resps {
			if r == spec.Winner {
				winners++
				w = i
			}
		}
		if winners != 1 {
			t.Fatalf("round %d: %d winners", round, winners)
		}
		ll.Reset(env.Proc(w))
	}
	if got := ll.Round(env.Proc(0)); got != rounds {
		t.Fatalf("round counter = %d, want %d", got, rounds)
	}
}

func TestSoloFastDifference(t *testing.T) {
	// Deterministic round-robin duel poisons the instance: both procs
	// abort with W, the flag is set, V = 1.
	poison := func(a1 *A1) {
		env := memory.NewEnv(2)
		outs := make([]core.Outcome, 2)
		bodies := make([]func(p *memory.Proc), 2)
		for i := 0; i < 2; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				outs[i], _, _ = a1.Invoke(p, spec.Request{ID: int64(i + 1)}, nil)
			}
		}
		sched.Run(env, sched.NewRoundRobin(), bodies)
		if outs[0] != core.Aborted && outs[1] != core.Aborted {
			panic("round-robin duel should abort at least one process")
		}
	}

	// Original A1: a later solo operation sees the aborted flag and aborts.
	a1 := NewA1()
	poison(a1)
	env := memory.NewEnv(3)
	out, _, sv := a1.Invoke(env.Proc(2), spec.Request{ID: 10}, nil)
	if out != core.Aborted {
		t.Fatal("original A1 must abort a solo op once the instance is flagged")
	}
	if sv.(SV) != L {
		t.Fatalf("V=1 flagged instance should abort with L, got %v", sv)
	}

	// Solo-fast A1: the same solo operation commits (loser), so a process
	// only reverts to hardware on its own step contention (Appendix B).
	sf := NewSoloFastA1()
	poison(sf)
	out, resp, _ := sf.Invoke(env.Proc(2), spec.Request{ID: 11}, nil)
	if out != core.Committed || resp != spec.Loser {
		t.Fatalf("solo-fast A1 solo op = (%v, %d), want committed loser", out, resp)
	}
}

func TestSoloFastComposedStillCorrect(t *testing.T) {
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		o := NewSoloFastOneShot()
		env.Register(o)
		resps := make([]int64, 2)
		bodies := make([]func(p *memory.Proc), 2)
		rec := stamped(env, trace.NewRecorder(2))
		for i := 0; i < 2; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				m := spec.Request{ID: int64(i + 1), Proc: i, Op: spec.OpTAS}
				rec.RecordInvoke(i, m)
				resps[i] = o.TestAndSet(p)
				rec.RecordCommit(i, m, resps[i], "")
			}
		}
		check := func(res *sched.Result) error {
			winners := 0
			for _, r := range resps {
				if r == spec.Winner {
					winners++
				}
			}
			if winners != 1 {
				return fmt.Errorf("%d winners", winners)
			}
			if lr, lerr := linearize.CheckTAS(rec.Ops()); lerr != nil || !lr.Ok {
				return fmt.Errorf("not linearizable: %s", lr.Reason)
			}
			return nil
		}
		reset := func() {
			rec.Reset()
			clear(resps)
		}
		return env, bodies, check, reset
	}
	rep, err := engine.Run(h, engineCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("solo-fast composed n=2: %d interleavings (partial=%v)", rep.Executions, rep.Partial)
}

func TestMConstraintContains(t *testing.T) {
	m := MConstraint{}
	r1 := spec.Request{ID: 1, Op: spec.OpTAS}
	r2 := spec.Request{ID: 2, Op: spec.OpTAS}
	r3 := spec.Request{ID: 3, Op: spec.OpTAS}

	withW := []core.Token{{Req: r1, Val: W}, {Req: r2, Val: L}}
	if !m.Contains(withW, spec.History{r1, r2}) {
		t.Fatal("W-headed history containing all requests should be in M")
	}
	if m.Contains(withW, spec.History{r2, r1}) {
		t.Fatal("history headed by an L-request should not be in M")
	}
	if m.Contains(withW, spec.History{r1}) {
		t.Fatal("history missing a token request should not be in M")
	}
	if !m.Contains(withW, spec.History{r1, r3, r2}) {
		t.Fatal("extra requests are allowed")
	}
	if m.Contains(withW, spec.History{r1, r1, r2}) {
		t.Fatal("duplicates must be rejected")
	}

	noW := []core.Token{{Req: r1, Val: L}, {Req: r2, Val: L}}
	if !m.Contains(noW, spec.History{r3, r1, r2}) {
		t.Fatal("history headed by a non-token request should be in M")
	}
	if m.Contains(noW, spec.History{r1, r2}) {
		t.Fatal("history headed by a token request should not be in M (no W)")
	}
	if m.Contains(noW, nil) {
		t.Fatal("empty history is never in M")
	}
}

func TestMConstraintCandidatesPhantom(t *testing.T) {
	m := MConstraint{}
	r1 := spec.Request{ID: 1, Op: spec.OpTAS}
	r2 := spec.Request{ID: 2, Op: spec.OpTAS}
	// All-L token set with only the token requests available: a phantom
	// head must be synthesized.
	noW := []core.Token{{Req: r1, Val: L}, {Req: r2, Val: L}}
	cands := m.Candidates(noW, []spec.Request{r1, r2})
	if len(cands) == 0 {
		t.Fatal("candidates should include phantom-headed histories")
	}
	for _, h := range cands {
		if h[0].ID != -999 {
			t.Fatalf("candidate %v not phantom-headed", h)
		}
	}
}

func TestSVAndRender(t *testing.T) {
	if W.String() != "W" || L.String() != "L" {
		t.Fatal("bad SV strings")
	}
}

func TestCompositionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	core.NewComposition()
}

func TestCompositionOutcomeString(t *testing.T) {
	if core.Committed.String() != "committed" || core.Aborted.String() != "aborted" {
		t.Fatal("bad outcome strings")
	}
}

// TestSeedExecutionCountA1TwoProcs pins the compatibility anchor of the
// execution core: in unpruned, uncached, 1-worker mode the pooled engine
// visits exactly the seed engine's 9662 interleavings of the two-process
// A1 harness, re-entering each of its 9661 branches by prefix replay.
func TestSeedExecutionCountA1TwoProcs(t *testing.T) {
	rep, err := engine.Run(a1Harness(2, false, false), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != 9662 || rep.Replays != 9661 || rep.Pruned != 0 || rep.CacheHits != 0 {
		t.Fatalf("pooled seed-mode walk: %+v, want exactly 9662 executions and 9661 replays", rep)
	}
}

// Wall-clock benchmark of the execution core on the A1 n=3 walk. One
// iteration is one full pruned exploration.
func BenchmarkExploreA1n3Pooled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(a1Harness(3, false, false), engine.Config{Prune: engine.PruneSleep, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLateArrivalCounterexample pins the finding of ROADMAP open item 1: the
// composed one-shot TAS is not linearizable once a process may be *invoked*
// after another has returned. p2 takes one private gated step before its
// invocation is recorded, and stamps come from the recorder's own counter
// (registered scenarios stamp every invocation at schedule position 0, so
// no explored execution exercises this). In the replay p1 commits loser on
// A1's register path; p0 then aborts with W; p2 arrives, aborts with W too
// and wins A2's hardware TAS — after p1's loser response. When a repair of
// A1.Invoke lands (item 1(c)) the rejections below flip, deliberately.
func TestLateArrivalCounterexample(t *testing.T) {
	const n = 3
	env := memory.NewEnv(n)
	o := NewOneShot()
	arrive := memory.NewIntReg(0)
	rec := trace.NewRecorder(n)
	bodies := make([]func(p *memory.Proc), n)
	for i := 0; i < n; i++ {
		i := i
		bodies[i] = func(p *memory.Proc) {
			if i == 2 {
				arrive.Read(p)
			}
			m := spec.Request{ID: int64(i + 1), Proc: i, Op: spec.OpTAS}
			rec.RecordInvoke(i, m)
			rec.RecordCommit(i, m, o.TestAndSet(p), "")
		}
	}
	var schedule []sched.Choice
	for _, run := range [][2]int{{1, 3}, {0, 6}, {1, 2}, {0, 3}, {2, 4}, {0, 1}} {
		for k := 0; k < run[1]; k++ {
			schedule = append(schedule, sched.Choice{Proc: run[0]})
		}
	}
	res := sched.Run(env, sched.NewReplay(schedule), bodies)
	if len(res.Schedule) != len(schedule) || !res.Finished[0] || !res.Finished[1] || !res.Finished[2] {
		t.Fatalf("replay took %d decisions (want %d), finished %v", len(res.Schedule), len(schedule), res.Finished)
	}

	ops := rec.Ops()
	want := []trace.Op{
		{Proc: 0, Inv: 1, Ret: 6, Resp: spec.Loser},
		{Proc: 1, Inv: 2, Ret: 3, Resp: spec.Loser},
		{Proc: 2, Inv: 4, Ret: 5, Resp: spec.Winner},
	}
	if len(ops) != n {
		t.Fatalf("recorded %d operations, want %d: %+v", len(ops), n, ops)
	}
	for _, got := range ops {
		w := want[got.Proc]
		if got.Inv != w.Inv || got.Ret != w.Ret || got.Resp != w.Resp || !got.Committed() {
			t.Fatalf("p%d: Inv %d Ret %d Resp %d (committed %v), want Inv %d Ret %d Resp %d",
				w.Proc, got.Inv, got.Ret, got.Resp, got.Committed(), w.Inv, w.Ret, w.Resp)
		}
	}

	lr, err := linearize.CheckTAS(ops)
	if err != nil || lr.Ok || lr.Reason != "a loser completed before the winner was invoked" {
		t.Fatalf("CheckTAS = %+v, %v; want the loser-before-winner rejection", lr, err)
	}
	jr, st, err := linearize.CheckJIT(spec.TASType{}, ops, linearize.JITConfig{})
	if err != nil || jr.Ok || st.Windows != 1 || st.PeakWindow != 3 {
		t.Fatalf("CheckJIT = %+v, %+v, %v; want a rejection in one 3-op window", jr, st, err)
	}
}
