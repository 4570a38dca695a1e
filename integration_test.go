// Integration tests across the whole stack: the speculative TAS, the
// universal construction, the checkers and the exploration machinery,
// exercised together the way a downstream user would combine them.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/abstract"
	"repro/internal/bench"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/linearize"
	"repro/internal/memory"
	"repro/internal/randexp"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/tas"
	"repro/internal/trace"
)

// TestIntegrationComposedTASWithCrashes explores interleavings of the
// composed one-shot TAS including crash branches: a crashed process simply
// stops; survivors must still be wait-free served, with at most one winner
// overall and a linearizable projection (crashed operations count as
// pending).
func TestIntegrationComposedTASWithCrashes(t *testing.T) {
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		o := tas.NewOneShot()
		env.Register(o)
		rec := trace.NewRecorder(2)
		bodies := make([]func(p *memory.Proc), 2)
		for i := 0; i < 2; i++ {
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
			// Survivors must have completed (wait-freedom of the tail).
			for i := 0; i < 2; i++ {
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
	rep, err := engine.Run(h, engine.Config{Crashes: true, Prune: engine.PruneSourceDPOR, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("pruned two-process crash exploration should be exhaustive (the seed engine capped out at 60000)")
	}
	t.Logf("composed TAS with crashes: %d interleavings (%d pruned)", rep.Executions, rep.Pruned)
}

// TestIntegrationFullStackSoak drives a three-stage universal queue and a
// long-lived TAS side by side under seeded random schedules, running every
// checker on the recorded traces.
func TestIntegrationFullStackSoak(t *testing.T) {
	const n = 3
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		queue := abstract.NewObject(spec.QueueType{}, n,
			abstract.StageSpec{Name: "cf", MkCons: func(int) consensus.Abortable { return consensus.NewSplitConsensus() }},
			abstract.StageSpec{Name: "of", MkCons: func(int) consensus.Abortable { return consensus.NewBakery(n) }},
			abstract.StageSpec{Name: "wf", MkCons: func(int) consensus.Abortable { return consensus.NewCASConsensus() }},
		)
		ll := tas.NewLongLived(n)
		env.Register(queue, ll)
		qRec := trace.NewRecorder(n)
		tasRec := trace.NewRecorder(n)
		bodies := make([]func(p *memory.Proc), n)
		for i := 0; i < n; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				// One queue op.
				op := spec.OpEnq
				if i == n-1 {
					op = spec.OpDeq
				}
				m := spec.Request{ID: int64(i + 1), Proc: i, Op: op, Arg: int64(100 + i)}
				qRec.RecordInvoke(i, m)
				out, resp, hist, stage := queue.Invoke(p, m)
				mod := fmt.Sprintf("stage%d", stage)
				if out == abstract.Commit {
					qRec.RecordCommitSV(i, m, resp, hist, mod)
				} else {
					qRec.RecordAbort(i, m, hist, mod)
				}
				// One long-lived TAS op + conditional reset, both recorded
				// so the round can be checked against the resettable
				// sequential specification.
				tm := spec.Request{ID: int64(10 + i), Proc: i, Op: spec.OpTAS}
				tasRec.RecordInvoke(i, tm)
				v := ll.TestAndSet(p)
				tasRec.RecordCommit(i, tm, v, "")
				if v == spec.Winner {
					rm := spec.Request{ID: int64(20 + i), Proc: i, Op: spec.OpReset}
					tasRec.RecordInvoke(i, rm)
					ll.Reset(p)
					tasRec.RecordCommit(i, rm, 0, "")
				}
			}
		}
		check := func(res *sched.Result) error {
			if err := abstract.CheckTrace(qRec.Events()); err != nil {
				return fmt.Errorf("queue Abstract properties: %w", err)
			}
			var committed []trace.Op
			for _, op := range qRec.Ops() {
				if op.Committed() {
					committed = append(committed, op)
				}
			}
			if lr, _, lerr := linearize.CheckJIT(spec.QueueType{}, committed, linearize.JITConfig{}); lerr != nil {
				return fmt.Errorf("queue projection: %w", lerr)
			} else if !lr.Ok {
				return fmt.Errorf("queue projection not linearizable: %s", lr.Reason)
			}
			// The long-lived object with resets linearizes against the
			// resettable TAS type (Theorem 4), checked with the generic
			// checker since CheckTAS models only one-shot instances.
			if lr, _, lerr := linearize.CheckJIT(spec.TASType{}, tasRec.Ops(), linearize.JITConfig{}); lerr != nil {
				return fmt.Errorf("TAS round: %w", lerr)
			} else if !lr.Ok {
				return fmt.Errorf("TAS round not linearizable: %s", lr.Reason)
			}
			return nil
		}
		return env, bodies, check, func() { qRec.Reset(); tasRec.Reset() }
	}
	if _, err := randexp.Sample(h, 600, 31, false); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationDefinition2OnLongLivedRound checks safe composability of
// the per-module traces produced by one contended round of the long-lived
// object, rebuilt through core.Composition (the checker needs per-module
// events, which the packaged OneShot does not record).
func TestIntegrationDefinition2OnLongLivedRound(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		env := memory.NewEnv(2)
		recA1 := trace.NewRecorder(2)
		recA2 := trace.NewRecorder(2)
		comp := core.NewComposition(tas.NewA1(), tas.NewA2()).WithRecorders(recA1, recA2)
		bodies := make([]func(p *memory.Proc), 2)
		for i := 0; i < 2; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				m := spec.Request{ID: int64(i + 1), Proc: i, Op: spec.OpTAS}
				comp.Invoke(p, m)
			}
		}
		sched.Run(env, sched.NewRandom(seed), bodies)
		if err := core.CheckDefinition2(spec.TASType{}, tas.MConstraint{}, recA1.Events()); err != nil {
			t.Fatalf("seed %d, A1 trace: %v", seed, err)
		}
		if err := core.CheckDefinition2(spec.TASType{}, tas.MConstraint{}, recA2.Events()); err != nil {
			t.Fatalf("seed %d, A2 trace: %v", seed, err)
		}
	}
}

// TestIntegrationExperimentsRunnable smoke-runs every registered experiment
// driver end to end (the per-experiment shape assertions live in
// internal/bench; this guards the composebench surface itself).
func TestIntegrationExperimentsRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, e := range benchAll() {
		tables := e.Run()
		if len(tables) == 0 {
			t.Fatalf("experiment %s produced no tables", e.ID)
		}
		for _, tab := range tables {
			if len(tab.Rows) == 0 || tab.Markdown() == "" {
				t.Fatalf("experiment %s produced an empty table", e.ID)
			}
		}
	}
}

// benchAll re-exports the experiment registry for the smoke test.
func benchAll() []bench.Experiment { return bench.All() }
