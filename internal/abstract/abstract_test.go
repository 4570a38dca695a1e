package abstract

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/consensus"
	"repro/internal/engine"
	"repro/internal/linearize"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/trace"
)

// stage factories for the three progress levels of Section 4.2.
func splitSpec() StageSpec {
	return StageSpec{Name: "contention-free", MkCons: func(int) consensus.Abortable {
		return consensus.NewSplitConsensus()
	}}
}

func bakerySpec(n int) StageSpec {
	return StageSpec{Name: "obstruction-free", MkCons: func(int) consensus.Abortable {
		return consensus.NewBakery(n)
	}}
}

func casSpec() StageSpec {
	return StageSpec{Name: "wait-free", MkCons: func(int) consensus.Abortable {
		return consensus.NewCASConsensus()
	}}
}

func fullObject(typ spec.Type, n int) *Object {
	return NewObject(typ, n, splitSpec(), bakerySpec(n), casSpec())
}

func TestSoloCounterCommitsOnFastPath(t *testing.T) {
	env := memory.NewEnv(1)
	o := fullObject(spec.FetchIncType{}, 1)
	p := env.Proc(0)
	for i := 0; i < 5; i++ {
		m := spec.Request{ID: int64(i + 1), Proc: 0, Op: spec.OpInc}
		out, resp, h, stage := o.Invoke(p, m)
		if out != Commit {
			t.Fatalf("solo invoke %d aborted", i)
		}
		if resp != int64(i) {
			t.Fatalf("inc %d returned %d", i, resp)
		}
		if stage != 0 {
			t.Fatalf("solo run must stay on the contention-free stage, used %d", stage)
		}
		if len(h) != i+1 || h[len(h)-1].ID != m.ID {
			t.Fatalf("commit history %v", h)
		}
	}
}

func TestSoloQueueFIFO(t *testing.T) {
	env := memory.NewEnv(1)
	o := fullObject(spec.QueueType{}, 1)
	p := env.Proc(0)
	id := int64(0)
	inv := func(op string, arg int64) int64 {
		id++
		out, resp, _, _ := o.Invoke(p, spec.Request{ID: id, Proc: 0, Op: op, Arg: arg})
		if out != Commit {
			t.Fatalf("solo %s aborted", op)
		}
		return resp
	}
	inv(spec.OpEnq, 10)
	inv(spec.OpEnq, 20)
	if got := inv(spec.OpDeq, 0); got != 10 {
		t.Fatalf("deq = %d, want 10", got)
	}
	if got := inv(spec.OpDeq, 0); got != 20 {
		t.Fatalf("deq = %d, want 20", got)
	}
	if got := inv(spec.OpDeq, 0); got != spec.EmptyQueue {
		t.Fatalf("deq on empty = %d", got)
	}
}

func TestRegisterOnlyCompositionAborts(t *testing.T) {
	// A composition without a wait-free tail may abort as a whole; the
	// abort history must contain the request (Termination).
	env := memory.NewEnv(2)
	o := NewObject(spec.FetchIncType{}, 2, splitSpec())
	outs := make([]Outcome, 2)
	hists := make([]spec.History, 2)
	bodies := []func(p *memory.Proc){
		func(p *memory.Proc) {
			outs[0], _, hists[0], _ = o.Invoke(p, spec.Request{ID: 1, Proc: 0, Op: spec.OpInc})
		},
		func(p *memory.Proc) {
			outs[1], _, hists[1], _ = o.Invoke(p, spec.Request{ID: 2, Proc: 1, Op: spec.OpInc})
		},
	}
	sched.Run(env, sched.NewRoundRobin(), bodies)
	aborts := 0
	for i, out := range outs {
		if out == Abort {
			aborts++
			if !hists[i].Contains(int64(i + 1)) {
				t.Fatalf("abort history %v lacks own request", hists[i])
			}
		}
	}
	if aborts == 0 {
		t.Skip("round-robin schedule did not force an abort (acceptable)")
	}
}

func TestConcurrentCounterLinearizable(t *testing.T) {
	// Free-running goroutines on the wait-free composition: all fetch-inc
	// responses must be distinct and form 0..total-1.
	const n, per = 4, 25
	env := memory.NewEnv(n)
	o := fullObject(spec.FetchIncType{}, n)
	resps := make([][]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := env.Proc(i)
			for k := 0; k < per; k++ {
				id := int64(i*per + k + 1)
				out, resp, _, _ := o.Invoke(p, spec.Request{ID: id, Proc: i, Op: spec.OpInc})
				if out != Commit {
					t.Errorf("wait-free object aborted")
					return
				}
				resps[i] = append(resps[i], resp)
			}
		}(i)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, rs := range resps {
		for _, r := range rs {
			if seen[r] {
				t.Fatalf("duplicate fetch-inc response %d", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != n*per {
		t.Fatalf("got %d distinct responses, want %d", len(seen), n*per)
	}
	for v := int64(0); v < n*per; v++ {
		if !seen[v] {
			t.Fatalf("missing response %d", v)
		}
	}
}

// abstractHarness drives k ops per process on a composed object under the
// controlled scheduler, records an Abstract trace per stage, and checks
// Definition 1 plus linearizability of the committed projection.
func abstractHarness(nproc, opsPer int, specs func(n int) []StageSpec) engine.Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(nproc)
		typ := spec.FetchIncType{}
		o := NewObject(typ, nproc, specs(nproc)...)
		env.Register(o)
		rec := trace.NewRecorder(nproc)
		bodies := make([]func(p *memory.Proc), nproc)
		for i := 0; i < nproc; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				for k := 0; k < opsPer; k++ {
					m := spec.Request{ID: int64(i*opsPer + k + 1), Proc: i, Op: spec.OpInc}
					rec.RecordInvoke(i, m)
					out, resp, h, stage := o.Invoke(p, m)
					mod := fmt.Sprintf("stage%d", stage)
					if out == Commit {
						rec.RecordCommitSV(i, m, resp, h, mod)
					} else {
						rec.RecordAbort(i, m, h, mod)
					}
				}
			}
		}
		check := func(res *sched.Result) error {
			events := rec.Events()
			if err := CheckTrace(events); err != nil {
				return err
			}
			var committed []trace.Op
			for _, op := range rec.Ops() {
				if op.Committed() {
					committed = append(committed, op)
				}
			}
			if lr, _, lerr := linearize.CheckJIT(spec.FetchIncType{}, committed, linearize.JITConfig{}); lerr != nil {
				return fmt.Errorf("committed projection: %w", lerr)
			} else if !lr.Ok {
				return fmt.Errorf("committed projection not linearizable: %s", lr.Reason)
			}
			return nil
		}
		return env, bodies, check, rec.Reset
	}
}

// TestObjectResetMatchesFreshConstruction runs k seeded random schedules
// (crashes included, so resets also follow half-finished operations) on one
// object, reset in between, and on k freshly constructed objects: every
// operation must end with the same outcome, response and history on the
// same stage, and every process bound to the same stage.
func TestObjectResetMatchesFreshConstruction(t *testing.T) {
	const n, opsPer, k = 3, 2, 300
	type system struct {
		env    *memory.Env
		o      *Object
		bodies []func(p *memory.Proc)
		ops    []string // one line per operation, in (process, k) order
	}
	build := func() *system {
		s := &system{env: memory.NewEnv(n), o: fullObject(spec.QueueType{}, n), ops: make([]string, n*opsPer)}
		s.env.Register(s.o)
		for i := 0; i < n; i++ {
			i := i
			s.bodies = append(s.bodies, func(p *memory.Proc) {
				for j := 0; j < opsPer; j++ {
					m := spec.Request{ID: int64(i*opsPer + j + 1), Proc: i, Op: spec.OpEnq, Arg: int64(10*i + j)}
					if i == n-1 {
						m.Op = spec.OpDeq
					}
					out, resp, h, stage := s.o.Invoke(p, m)
					s.ops[i*opsPer+j] = fmt.Sprint(out, resp, h.IDs(), stage)
				}
			})
		}
		return s
	}
	run := func(s *system, seed int64) string {
		clear(s.ops)
		sched.Run(s.env, sched.NewRandomCrash(seed, 0.002), s.bodies)
		line := fmt.Sprint(s.ops)
		for _, p := range s.env.Procs() {
			line += fmt.Sprint(" ", s.o.CurrentStage(p))
		}
		return line
	}
	reused := build()
	stages := map[int]bool{}
	for seed := int64(1); seed <= k; seed++ {
		got, want := run(reused, seed), run(build(), seed)
		if got != want {
			t.Fatalf("seed %d: reset object\n%s\nfresh object\n%s", seed, got, want)
		}
		for _, p := range reused.env.Procs() {
			stages[reused.o.CurrentStage(p)] = true
		}
		reused.env.Reset()
	}
	if len(stages) < 2 {
		t.Fatalf("schedules never left stage 0 (%v): the later stages' reset went unexercised", stages)
	}
}

func TestExhaustiveAbstractProperties(t *testing.T) {
	specs := func(n int) []StageSpec { return []StageSpec{splitSpec(), casSpec()} }
	rep, err := engine.Run(abstractHarness(2, 1, specs), engine.Config{Prune: engine.PruneSourceDPOR, Workers: 8, MaxExecutions: 10000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d interleavings (partial=%v, depth %d)", rep.Executions, rep.Partial, rep.MaxDepth)
}

func TestRandomizedAbstractProperties(t *testing.T) {
	specs := func(n int) []StageSpec { return []StageSpec{splitSpec(), bakerySpec(n), casSpec()} }
	if _, err := engine.Sample(abstractHarness(3, 2, specs), engine.SampleConfig{Samples: 1200, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	// Register-only composition: aborts allowed, properties must still hold.
	specsReg := func(n int) []StageSpec { return []StageSpec{splitSpec(), bakerySpec(n)} }
	if _, err := engine.Sample(abstractHarness(3, 2, specsReg), engine.SampleConfig{Samples: 1200, Seed: 11}); err != nil {
		t.Fatal(err)
	}
}

func TestProposition2ConsensusFromAbstract(t *testing.T) {
	// Any wait-free Abstract of a non-trivial type solves consensus: here a
	// FIFO queue Abstract. Each process proposes via DecideFirstWins.
	for trial := 0; trial < 50; trial++ {
		const n = 4
		env := memory.NewEnv(n)
		o := fullObject(spec.QueueType{}, n)
		decisions := make([]int64, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				m := spec.Request{ID: int64(trial*n + i + 1), Proc: i, Op: spec.OpEnq, Arg: int64(100 + i)}
				d, err := DecideFirstWins(o, env.Proc(i), m)
				if err != nil {
					t.Error(err)
					return
				}
				decisions[i] = d
			}(i)
		}
		wg.Wait()
		for i := 1; i < n; i++ {
			if decisions[i] != decisions[0] {
				t.Fatalf("trial %d: consensus disagreement: %v", trial, decisions)
			}
		}
		if decisions[0] < 100 || decisions[0] >= 100+n {
			t.Fatalf("trial %d: decision %d not a proposal", trial, decisions[0])
		}
	}
}

func TestCheckTraceRejectsViolations(t *testing.T) {
	m1 := spec.Request{ID: 1, Proc: 0, Op: spec.OpInc}
	m2 := spec.Request{ID: 2, Proc: 1, Op: spec.OpInc}
	mk := func() *trace.Recorder { return trace.NewRecorder(2) }

	// Commit Order violation: two commits with unrelated histories.
	r := mk()
	r.RecordInvoke(0, m1)
	r.RecordInvoke(1, m2)
	r.RecordCommitSV(0, m1, 0, spec.History{m1}, "s")
	r.RecordCommitSV(1, m2, 0, spec.History{m2}, "s")
	if err := CheckTrace(r.Events()); err == nil {
		t.Fatal("unrelated commit histories accepted")
	}

	// Abort Ordering violation: commit history not a prefix of abort
	// history.
	r = mk()
	r.RecordInvoke(0, m1)
	r.RecordInvoke(1, m2)
	r.RecordCommitSV(0, m1, 0, spec.History{m1}, "s")
	r.RecordAbort(1, m2, spec.History{m2}, "s")
	if err := CheckTrace(r.Events()); err == nil {
		t.Fatal("abort history missing committed prefix accepted")
	}

	// Validity violation: history contains a request never invoked.
	r = mk()
	r.RecordInvoke(0, m1)
	r.RecordCommitSV(0, m1, 0, spec.History{m2, m1}, "s")
	if err := CheckTrace(r.Events()); err == nil {
		t.Fatal("uninvoked request in history accepted")
	}

	// Termination/Validity: history must contain the request itself.
	r = mk()
	r.RecordInvoke(0, m1)
	r.RecordInvoke(1, m2)
	r.RecordCommitSV(0, m1, 0, spec.History{m2}, "s")
	if err := CheckTrace(r.Events()); err == nil {
		t.Fatal("history lacking own request accepted")
	}

	// Duplicate request in a history.
	r = mk()
	r.RecordInvoke(0, m1)
	r.RecordCommitSV(0, m1, 0, spec.History{m1, m1}, "s")
	if err := CheckTrace(r.Events()); err == nil {
		t.Fatal("duplicate in history accepted")
	}

	// Init Ordering violation: common init prefix not in commit history.
	r = mk()
	r.RecordInit(0, m1, spec.History{m2})
	r.RecordCommitSV(0, m1, 0, spec.History{m1}, "s")
	if err := CheckTrace(r.Events()); err == nil {
		t.Fatal("init-ordering violation accepted")
	}

	// A clean trace passes.
	r = mk()
	r.RecordInvoke(0, m1)
	r.RecordInvoke(1, m2)
	r.RecordCommitSV(0, m1, 0, spec.History{m1}, "s")
	r.RecordCommitSV(1, m2, 1, spec.History{m1, m2}, "s")
	if err := CheckTrace(r.Events()); err != nil {
		t.Fatalf("clean trace rejected: %v", err)
	}
}

func TestLemma1ProgressPredicates(t *testing.T) {
	// A stage built on SplitConsensus commits solo (contention-free
	// progress, Lemma 1 + Non-Triviality).
	env := memory.NewEnv(2)
	reg := NewRegistry()
	st := NewStage("cf", spec.FetchIncType{}, 2, reg, func(int) consensus.Abortable {
		return consensus.NewSplitConsensus()
	})
	out, resp, h := st.Invoke(env.Proc(0), spec.Request{ID: 1, Proc: 0, Op: spec.OpInc}, nil)
	if out != Commit || resp != 0 || len(h) != 1 {
		t.Fatalf("solo stage invoke = (%v, %d, %v)", out, resp, h)
	}
	// A second solo op on the same stage also commits.
	out, resp, _ = st.Invoke(env.Proc(0), spec.Request{ID: 2, Proc: 0, Op: spec.OpInc}, nil)
	if out != Commit || resp != 1 {
		t.Fatalf("second solo invoke = (%v, %d)", out, resp)
	}
	if st.Name() != "cf" {
		t.Fatal("bad name")
	}
	if st.StepsPerformed(env.Proc(0)) != 2 {
		t.Fatalf("performed = %d", st.StepsPerformed(env.Proc(0)))
	}
}

func TestStageInitHistoryReplay(t *testing.T) {
	// Entering a stage with a non-empty init history replays it: the
	// committed history extends the init prefix (Init Ordering).
	env := memory.NewEnv(2)
	reg := NewRegistry()
	st := NewStage("wf", spec.FetchIncType{}, 2, reg, func(int) consensus.Abortable {
		return consensus.NewCASConsensus()
	})
	prev1 := spec.Request{ID: 10, Proc: 1, Op: spec.OpInc}
	prev2 := spec.Request{ID: 11, Proc: 1, Op: spec.OpInc}
	init := spec.History{prev1, prev2}
	m := spec.Request{ID: 12, Proc: 0, Op: spec.OpInc}
	out, resp, h := st.Invoke(env.Proc(0), m, init)
	if out != Commit {
		t.Fatal("wait-free stage must commit")
	}
	if !init.IsPrefixOf(h) {
		t.Fatalf("commit history %v does not extend init %v", h, init)
	}
	if resp != 2 {
		t.Fatalf("resp = %d, want 2 (two replayed incs first)", resp)
	}
}

func TestObjectPanicsWithoutStages(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewObject(spec.FetchIncType{}, 1)
}

func TestRegistryPanicsOnUnknownID(t *testing.T) {
	env := memory.NewEnv(1)
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	reg.Lookup(env.Proc(0), 99)
}

func TestOutcomeString(t *testing.T) {
	if Commit.String() != "commit" || Abort.String() != "abort" {
		t.Fatal("bad outcome strings")
	}
}

func TestSortIDs(t *testing.T) {
	h := spec.History{{ID: 3}, {ID: 1}, {ID: 2}}
	ids := SortIDs(h)
	if ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("ids = %v", ids)
	}
}
