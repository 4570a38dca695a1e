package scenario

// The built-in scenarios: every workload that previously lived as a local
// harness builder in cmd/tascheck, cmd/composebench, internal/bench or
// examples/, registered once under a stable name. Each Build follows the
// engine.Harness contract (see the package comment); bodies perform the
// same gated access sequences as the builders they replace, so every
// execution count recorded in EXPERIMENTS.md is preserved.

import (
	"fmt"

	"repro/internal/abstract"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/randexp"
	"repro/internal/sched"
	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/splitter"
	"repro/internal/tas"
	"repro/internal/trace"
)

func init() {
	Register(Scenario{
		Name:        "a1",
		Description: "obstruction-free module A1 (Algorithm 1): Lemma 4 invariants + TAS projection on every interleaving",
		Params:      Params{Crashes: true, Fingerprints: true},
		Build:       buildA1(false),
	})
	Register(Scenario{
		Name:        "def2",
		Description: "module A1 against Definition 2: every trace admits a valid interpretation for the constraint M",
		Params:      Params{Crashes: true, Fingerprints: true},
		Build:       buildA1(true),
	})
	Register(Scenario{
		Name:        "composed",
		Description: "the composed one-shot TAS (A1 backed by A2, Figure 1): wait-free, unique winner, linearizable (Lemma 7)",
		Params:      Params{Crashes: true, Fingerprints: true},
		Build:       buildComposed,
	})
	Register(Scenario{
		Name:        "fai",
		Description: "speculative fetch-and-increment from the TAS framework (Section 7): unique, per-process-increasing tickets",
		Params:      Params{Crashes: true},
		Build:       buildFAI,
	})
	Register(Scenario{
		Name:        "longlived",
		Description: "long-lived resettable TAS (Algorithm 2): round winners are mutually exclusive across resets",
		Params:      Params{Crashes: true},
		Build:       buildLongLived,
	})
	Register(Scenario{
		Name:        "consensus",
		Description: "SplitConsensus (Appendix A): agreement, validity, and the ⊥-abort property on every interleaving",
		Params:      Params{Fingerprints: true},
		Build:       buildConsensus,
	})
	Register(Scenario{
		Name:        "snapshot",
		Description: "single-writer atomic snapshot: scans are pointwise monotone and component values stay in-domain",
		Params:      Params{Crashes: true},
		Build:       buildSnapshot,
	})
	Register(Scenario{
		Name:        "splitter",
		Description: "the resettable splitter (contention detector): at most one concurrent access returns Stop",
		Params:      Params{Crashes: true, Fingerprints: true},
		Build:       buildSplitter,
	})
	Register(Scenario{
		Name:        "abstract",
		Description: "universal construction (Section 4): fetch-and-increment Abstract over split+CAS stages, Definition 1 + linearizability",
		Params:      Params{},
		Build:       buildAbstract,
	})
	Register(Scenario{
		Name:        "handoffbug",
		Description: "planted depth-2 handoff bug (randexp reference harness): the checker is expected to find a failing interleaving",
		Params:      Params{Crashes: true, Fingerprints: true, ExpectFail: true},
		Build:       buildHandoffBug,
	})
	Register(Scenario{
		Name:        "quickstart",
		Description: "the examples/quickstart workload: n processes race the composed one-shot TAS, module usage recorded",
		Params:      Params{Crashes: true, Fingerprints: true, DefaultProcs: 3},
		Build:       buildQuickstart,
	})
	Register(Scenario{
		Name:        "biasedlock",
		Description: "the examples/biasedlock workload: long-lived TAS as a biased lock — owner reacquires, intruders barge in; mutual exclusion",
		Params:      Params{Crashes: true},
		Build:       buildBiasedLock,
	})
	Register(Scenario{
		Name:        "leaderelection",
		Description: "the examples/leaderelection workload: repeated leadership terms over the long-lived TAS, one leader per term",
		Params:      Params{},
		Build:       buildLeaderElection,
	})
	Register(Scenario{
		Name:        "tasfai",
		Description: "composed one-shot TAS + hardware fetch-and-increment: the compositional linearizability oracle checks each object's projection",
		Params:      Params{Fingerprints: true},
		Build:       buildTASFAI,
	})
	Register(Scenario{
		Name:        "universalqueue",
		Description: "the examples/universalqueue workload: wait-free FIFO queue from the universal construction, linearizable",
		Params:      Params{},
		Build:       buildUniversalQueue,
	})
}

// tasOracle is the linearize oracle shared by the TAS-shaped scenarios.
var tasOracle = Oracle{Kind: OracleLinearize, Type: spec.TASType{}}

// stampFromSchedule wires a recorder's event stamps to the environment's
// schedule-derived per-process clocks (memory.Proc.EventStamp) instead of
// the recorder's wall-order counter. The resulting traces depend only on
// the scheduler's choice sequence.
func stampFromSchedule(rec *trace.Recorder, env *memory.Env) {
	rec.SetStampSource(func(proc int) int64 { return env.Proc(proc).EventStamp() })
}

// buildA1 builds the A1-only harness: one TAS invocation per process,
// Lemma 4's safety (at most one winner), crash-mode liveness, and
// linearizability of the invoke/commit projection; withDef2 additionally
// checks Definition 2 with the constraint M on the recorded trace.
func buildA1(withDef2 bool) func(n int, opts Options) (engine.Harness, Oracle) {
	return func(n int, opts Options) (engine.Harness, Oracle) {
		oracle := Oracle{Kind: OracleInvariant, Invariant: "lemma-4"}
		if withDef2 {
			oracle = Oracle{Kind: OracleInvariant, Invariant: "definition-2"}
		}
		h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
			env := memory.NewEnv(n)
			a1 := tas.NewA1()
			env.Register(a1)
			rec := trace.NewRecorder(n)
			stampFromSchedule(rec, env)
			bodies := make([]func(p *memory.Proc), n)
			for i := 0; i < n; i++ {
				i := i
				bodies[i] = func(p *memory.Proc) {
					m := spec.Request{ID: int64(i + 1), Proc: i, Op: spec.OpTAS}
					rec.RecordInvoke(i, m)
					out, resp, sv := a1.Invoke(p, m, nil)
					if out == core.Committed {
						rec.RecordCommit(i, m, resp, "A1")
					} else {
						rec.RecordAbort(i, m, sv, "A1")
					}
				}
			}
			var ops []trace.Op // the check's history buffer, reused across executions
			check := func(res *sched.Result) error {
				ops = rec.AppendOps(ops[:0])
				if err := uniqueWinner(ops, false); err != nil {
					return err
				}
				if opts.Crashes {
					if err := survivorsFinished(res); err != nil {
						return err
					}
				}
				if err := tasOracle.Check(ops); err != nil {
					return err
				}
				if withDef2 {
					return core.CheckDefinition2(spec.TASType{}, tas.MConstraint{}, rec.Events())
				}
				return nil
			}
			return env, bodies, check, rec.Reset
		}
		return h, oracle
	}
}

// buildComposed builds the composed one-shot TAS harness: the A1→A2
// composition is wait-free, so without crashes exactly one process must
// win; the recorded trace must linearize as a test-and-set.
func buildComposed(n int, opts Options) (engine.Harness, Oracle) {
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		o := tas.NewOneShot()
		env.Register(o)
		rec := trace.NewRecorder(n)
		stampFromSchedule(rec, env)
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
		var ops []trace.Op // the check's history buffer, reused across executions
		check := func(res *sched.Result) error {
			ops = rec.AppendOps(ops[:0])
			if err := uniqueWinner(ops, !opts.Crashes); err != nil {
				return err
			}
			if opts.Crashes {
				if err := survivorsFinished(res); err != nil {
					return err
				}
			}
			return tasOracle.Check(ops)
		}
		return env, bodies, check, rec.Reset
	}
	return h, tasOracle
}

// moduleLabels are the trace labels of the two modules of the one-shot
// composition (A1, then the hardware-backed A2), interned so recording a
// commit formats nothing.
var moduleLabels = [2]string{"module0", "module1"}

// buildQuickstart is the examples/quickstart workload as a checkable
// scenario: the composed race with per-module accounting — every completed
// operation must have been served by one of the two modules, and the
// composition's TAS semantics must hold.
func buildQuickstart(n int, opts Options) (engine.Harness, Oracle) {
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		o := tas.NewOneShot()
		env.Register(o)
		rec := trace.NewRecorder(n)
		stampFromSchedule(rec, env)
		modules := make([]int, n)
		bodies := make([]func(p *memory.Proc), n)
		for i := 0; i < n; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				m := spec.Request{ID: int64(i + 1), Proc: i, Op: spec.OpTAS}
				rec.RecordInvoke(i, m)
				v, module := o.TestAndSetTraced(p)
				modules[i] = module
				rec.RecordCommit(i, m, v, moduleLabels[module])
			}
		}
		var ops []trace.Op // the check's history buffer, reused across executions
		check := func(res *sched.Result) error {
			for i := range modules {
				if !res.Finished[i] {
					continue
				}
				if modules[i] != 0 && modules[i] != 1 {
					return fmt.Errorf("proc %d served by impossible module %d", i, modules[i])
				}
			}
			ops = rec.AppendOps(ops[:0])
			if err := uniqueWinner(ops, !opts.Crashes); err != nil {
				return err
			}
			if opts.Crashes {
				if err := survivorsFinished(res); err != nil {
					return err
				}
			}
			return tasOracle.Check(ops)
		}
		reset := func() {
			rec.Reset()
			clear(modules)
		}
		return env, bodies, check, reset
	}
	return h, tasOracle
}

// buildTASFAI builds the two-object composition the compositional
// linearizability oracle is exercised on: every process races the composed
// one-shot TAS once (module "tas") and then takes two tickets from a
// hardware fetch-and-increment counter (module "fai"). Each per-module
// projection must linearize against its own sequential type — the
// P-compositionality form of Theorem 3 — and the harness exposes its
// recorder through the environment so streaming harnesses (the stress
// driver's -lincheck sidecar) can drain history round by round.
func buildTASFAI(n int, opts Options) (engine.Harness, Oracle) {
	oracle := Oracle{Kind: OracleLinearize, Objects: map[string]spec.Type{
		"tas": spec.TASType{},
		"fai": spec.FetchIncType{},
	}}
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		o := tas.NewOneShot()
		c := memory.NewFetchInc(0)
		env.Register(o, c)
		rec := trace.NewRecorder(n)
		stampFromSchedule(rec, env)
		env.SetHistorySource(trace.Source(rec.AppendOps))
		bodies := make([]func(p *memory.Proc), n)
		for i := 0; i < n; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				m := spec.Request{ID: int64(3*i + 1), Proc: i, Op: spec.OpTAS}
				rec.RecordInvoke(i, m)
				v := o.TestAndSet(p)
				rec.RecordCommit(i, m, v, "tas")
				for k := int64(2); k <= 3; k++ {
					m := spec.Request{ID: int64(3*i) + k, Proc: i, Op: spec.OpInc}
					rec.RecordInvoke(i, m)
					// Inc returns the post-increment value; the sequential
					// fetch-and-increment spec responds with the value fetched.
					t := c.Inc(p) - 1
					rec.RecordCommit(i, m, t, "fai")
				}
			}
		}
		var ops, tasOps []trace.Op // the check's history buffers, reused across executions
		check := func(res *sched.Result) error {
			ops = rec.AppendOps(ops[:0])
			// The winner invariant is about the TAS object alone: the fai
			// ticket 0 is a legitimate zero response, not a win.
			tasOps = tasOps[:0]
			for _, op := range ops {
				if op.Module == "tas" {
					tasOps = append(tasOps, op)
				}
			}
			if err := uniqueWinner(tasOps, true); err != nil {
				return err
			}
			return oracle.Check(ops)
		}
		return env, bodies, check, rec.Reset
	}
	return h, oracle
}

// buildFAI builds the speculative fetch-and-increment harness: two tickets
// per process through the composed F1→F2 dispenser; recorded tickets must
// be globally unique and strictly increasing per process (crashed
// processes simply record fewer tickets).
func buildFAI(n int, opts Options) (engine.Harness, Oracle) {
	oracle := Oracle{Kind: OracleInvariant, Invariant: "unique-tickets"}
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		s := tas.NewSpecFetchInc()
		env.Register(s)
		tickets := make([][]int64, n)
		bodies := make([]func(p *memory.Proc), n)
		for i := 0; i < n; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				for k := 0; k < 2; k++ {
					tk, _ := s.Inc(p)
					tickets[i] = append(tickets[i], tk)
				}
			}
		}
		check := func(res *sched.Result) error {
			if opts.Crashes {
				if err := survivorsFinished(res); err != nil {
					return err
				}
			}
			seen := map[int64]bool{}
			for i := range tickets {
				prev := int64(-1)
				for _, tk := range tickets[i] {
					if seen[tk] {
						return fmt.Errorf("duplicate ticket %d (proc %d)", tk, i)
					}
					seen[tk] = true
					if tk <= prev {
						return fmt.Errorf("proc %d tickets not increasing: %v", i, tickets[i])
					}
					prev = tk
				}
			}
			return nil
		}
		reset := func() {
			for i := range tickets {
				tickets[i] = tickets[i][:0]
			}
		}
		return env, bodies, check, reset
	}
	return h, oracle
}

// mutexOracle is the invariant shared by the long-lived lock-shaped
// scenarios: acquire/release intervals of different processes are disjoint.
var mutexOracle = Oracle{Kind: OracleInvariant, Invariant: "mutual-exclusion"}

// lockBodies builds bodies where process i performs cycles[i]
// acquire/release attempts on the long-lived TAS, stamping each successful
// hold with the process's schedule-derived logical clock (stamps are taken
// in the holder's ungated window, so they are consistent with the
// controlled interleaving and a function of the schedule alone). A hold is
// stamped on both sides of its reset; holdsDisjoint says which stamp closes
// it on which clock.
func lockBodies(ll *tas.LongLived, cycles []int, holds [][]hold) []func(p *memory.Proc) {
	bodies := make([]func(p *memory.Proc), len(cycles))
	for i := range cycles {
		i := i
		bodies[i] = func(p *memory.Proc) {
			for k := 0; k < cycles[i]; k++ {
				if ll.TestAndSet(p) == spec.Winner {
					acq, pre := p.EventStamp(), p.EventStamp()
					holds[i] = append(holds[i], hold{acq: acq, pre: pre})
					ll.Reset(p)
					holds[i][len(holds[i])-1].rel = p.EventStamp()
				}
			}
		}
	}
	return bodies
}

// symmetricCycles gives every process the same number of acquire/release
// rounds.
func symmetricCycles(rounds int) func(n int) []int {
	return func(n int) []int {
		cycles := make([]int, n)
		for i := range cycles {
			cycles[i] = rounds
		}
		return cycles
	}
}

// buildLongLived builds the long-lived TAS harness: process 0 runs one
// acquire/release round while every other process runs two — an
// asymmetric tree distinct from both leaderelection (symmetric two
// rounds) and biasedlock (owner two, intruders one), covering the
// late-arrival orderings where a one-shot process races holders of later
// rounds. Holds must be mutually exclusive and survivors must finish
// (wait-freedom).
func buildLongLived(n int, opts Options) (engine.Harness, Oracle) {
	return buildLockScenario(n, opts, mutexOracle, func(n int) []int {
		cycles := symmetricCycles(2)(n)
		cycles[0] = 1
		return cycles
	}, nil)
}

// buildBiasedLock builds the examples/biasedlock workload: process 0 (the
// owner) reacquires twice while every other process barges in once.
func buildBiasedLock(n int, opts Options) (engine.Harness, Oracle) {
	return buildLockScenario(n, opts, mutexOracle, func(n int) []int {
		cycles := make([]int, n)
		cycles[0] = 2
		for i := 1; i < n; i++ {
			cycles[i] = 1
		}
		return cycles
	}, nil)
}

// buildLeaderElection builds the examples/leaderelection workload: each
// process stands in two elections, winners lead (mutual exclusion) and
// step down by resetting; additionally, the round counter must account
// for exactly the terms led.
func buildLeaderElection(n int, opts Options) (engine.Harness, Oracle) {
	oracle := Oracle{Kind: OracleInvariant, Invariant: "one-leader-per-term"}
	return buildLockScenario(n, opts, oracle, symmetricCycles(2),
		func(ll *tas.LongLived, env *memory.Env, holds [][]hold) error {
			terms := 0
			for i := range holds {
				terms += len(holds[i])
			}
			// Every term led advanced the round counter exactly once (only
			// the current winner's reset advances it). The check runs after
			// the execution, when the gate is uninstalled, so the read is a
			// plain register access.
			if rounds := ll.Round(env.Proc(0)); rounds != int64(terms) {
				return fmt.Errorf("rounds consumed %d != terms led %d", rounds, terms)
			}
			return nil
		})
}

// buildLockScenario is the shared long-lived-TAS mutual-exclusion harness,
// parameterized by the per-process cycle counts and an optional extra
// invariant evaluated after the hold-disjointness check.
func buildLockScenario(n int, opts Options, oracle Oracle, mkCycles func(n int) []int,
	extra func(ll *tas.LongLived, env *memory.Env, holds [][]hold) error) (engine.Harness, Oracle) {
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		ll := tas.NewLongLived(n)
		env.Register(ll)
		holds := make([][]hold, n)
		bodies := lockBodies(ll, mkCycles(n), holds)
		check := func(res *sched.Result) error {
			if opts.Crashes {
				if err := survivorsFinished(res); err != nil {
					return err
				}
			}
			// Only a gated execution has a schedule; the stress tier's
			// synthetic result carries none.
			if err := holdsDisjoint(holds, res.Schedule != nil); err != nil {
				return err
			}
			if extra != nil {
				return extra(ll, env, holds)
			}
			return nil
		}
		reset := func() {
			for i := range holds {
				holds[i] = holds[i][:0]
			}
		}
		return env, bodies, check, reset
	}
	return h, oracle
}

// buildConsensus builds the SplitConsensus harness: every process proposes
// a distinct value; committed values must agree, be someone's proposal, and
// never coexist with a ⊥-abort (an abort with ⊥ certifies the instance
// never commits).
func buildConsensus(n int, _ Options) (engine.Harness, Oracle) {
	oracle := Oracle{Kind: OracleInvariant, Invariant: "agreement"}
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		c := consensus.NewSplitConsensus()
		env.Register(c)
		outs := make([]consensus.Outcome, n)
		vals := make([]int64, n)
		bodies := make([]func(p *memory.Proc), n)
		for i := 0; i < n; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				outs[i], vals[i] = c.Propose(p, consensus.Bottom, int64(10*(i+1)))
			}
		}
		check := func(res *sched.Result) error {
			var committed []int64
			bottomAbort := false
			for i := 0; i < n; i++ {
				if outs[i] == consensus.Commit {
					if vals[i]%10 != 0 || vals[i] < 10 || vals[i] > int64(10*n) {
						return fmt.Errorf("validity: committed %d not proposed", vals[i])
					}
					committed = append(committed, vals[i])
				} else if vals[i] == consensus.Bottom {
					bottomAbort = true
				}
			}
			for i := 1; i < len(committed); i++ {
				if committed[i] != committed[0] {
					return fmt.Errorf("agreement violated: %v", committed)
				}
			}
			if bottomAbort && len(committed) > 0 {
				return fmt.Errorf("abort with ⊥ coexists with a commit")
			}
			if len(committed) > 0 {
				if q := c.Query(env.Proc(0)); q != committed[0] {
					return fmt.Errorf("query after commit = %d, want %d", q, committed[0])
				}
			}
			return nil
		}
		reset := func() {
			clear(outs)
			clear(vals)
		}
		return env, bodies, check, reset
	}
	return h, oracle
}

// buildSnapshot builds the atomic-snapshot harness: process 0 updates its
// component twice, process 1 scans twice (scans must be pointwise
// monotone), remaining processes update their components once; every
// observed value must be in its component's written domain.
func buildSnapshot(n int, opts Options) (engine.Harness, Oracle) {
	oracle := Oracle{Kind: OracleInvariant, Invariant: "monotone-scans"}
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		s := snapshot.New(n, int64(0))
		env.Register(s)
		var v1, v2 []int64
		bodies := make([]func(p *memory.Proc), n)
		bodies[0] = func(p *memory.Proc) {
			s.Update(p, 0, 1)
			s.Update(p, 0, 2)
		}
		bodies[1] = func(p *memory.Proc) {
			v1 = s.Scan(p)
			v2 = s.Scan(p)
		}
		for i := 2; i < n; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) { s.Update(p, i, 1) }
		}
		check := func(res *sched.Result) error {
			if opts.Crashes {
				if err := survivorsFinished(res); err != nil {
					return err
				}
			}
			for _, view := range [][]int64{v1, v2} {
				if view == nil {
					continue // scanner crashed before completing this scan
				}
				for comp, v := range view {
					max := int64(1)
					switch comp {
					case 0:
						max = 2
					case 1:
						max = 0 // the scanner never updates its own component
					}
					if v < 0 || v > max {
						return fmt.Errorf("component %d holds impossible value %d", comp, v)
					}
				}
			}
			if v1 != nil && v2 != nil {
				for comp := range v1 {
					if v1[comp] > v2[comp] {
						return fmt.Errorf("scan went backwards at component %d: %v then %v", comp, v1, v2)
					}
				}
			}
			return nil
		}
		reset := func() { v1, v2 = nil, nil }
		return env, bodies, check, reset
	}
	return h, oracle
}

// buildSplitter builds the splitter harness: every process acquires once;
// among processes that completed, at most one may obtain Stop.
func buildSplitter(n int, opts Options) (engine.Harness, Oracle) {
	oracle := Oracle{Kind: OracleInvariant, Invariant: "at-most-one-stop"}
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		s := splitter.New()
		env.Register(s)
		got := make([]splitter.Outcome, n)
		bodies := make([]func(p *memory.Proc), n)
		for i := 0; i < n; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) { got[i] = s.Get(p) }
		}
		check := func(res *sched.Result) error {
			if opts.Crashes {
				if err := survivorsFinished(res); err != nil {
					return err
				}
			}
			stops := 0
			for i := range got {
				if res.Finished[i] && got[i] == splitter.Stop {
					stops++
				}
			}
			if stops > 1 {
				return fmt.Errorf("%d processes obtained Stop", stops)
			}
			return nil
		}
		reset := func() { clear(got) }
		return env, bodies, check, reset
	}
	return h, oracle
}

// buildUniversal is the shared universal-construction harness: opsPer
// requests per process (the k-th chosen by mkReq) through a
// contention-free stage ordered by SplitConsensus backed by a CAS-ordered
// wait-free stage. The recorded Abstract trace must satisfy Definition 1
// and the committed projection must linearize against the oracle's type.
// The construction materializes consensus instances and registry slots at
// schedule-dependent times; Object.ResetState discards them, so a reset
// instance re-creates them exactly as a fresh one would.
func buildUniversal(oracle Oracle, opsPer int, mkReq func(i, k, n int) spec.Request) func(n int, _ Options) (engine.Harness, Oracle) {
	return func(n int, _ Options) (engine.Harness, Oracle) {
		h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
			env := memory.NewEnv(n)
			o := abstract.NewObject(oracle.Type, n,
				abstract.StageSpec{Name: "contention-free", MkCons: func(int) consensus.Abortable {
					return consensus.NewSplitConsensus()
				}},
				abstract.StageSpec{Name: "wait-free", MkCons: func(int) consensus.Abortable {
					return consensus.NewCASConsensus()
				}},
			)
			env.Register(o)
			rec := trace.NewRecorder(n)
			stampFromSchedule(rec, env)
			bodies := make([]func(p *memory.Proc), n)
			for i := 0; i < n; i++ {
				i := i
				bodies[i] = func(p *memory.Proc) {
					for k := 0; k < opsPer; k++ {
						m := mkReq(i, k, n)
						rec.RecordInvoke(i, m)
						out, resp, hist, stage := o.Invoke(p, m)
						mod := fmt.Sprintf("stage%d", stage)
						if out == abstract.Commit {
							rec.RecordCommitSV(i, m, resp, hist, mod)
						} else {
							rec.RecordAbort(i, m, hist, mod)
						}
					}
				}
			}
			check := func(res *sched.Result) error {
				if err := abstract.CheckTrace(rec.Events()); err != nil {
					return err
				}
				var committed []trace.Op
				for _, op := range rec.Ops() {
					if op.Committed() {
						committed = append(committed, op)
					}
				}
				return oracle.Check(committed)
			}
			return env, bodies, check, rec.Reset
		}
		return h, oracle
	}
}

// buildAbstract is the fetch-and-increment universal construction: one
// increment per process.
var buildAbstract = buildUniversal(
	Oracle{Kind: OracleLinearize, Type: spec.FetchIncType{}}, 1,
	func(i, _, _ int) spec.Request {
		return spec.Request{ID: int64(i + 1), Proc: i, Op: spec.OpInc}
	})

// universalQueueOps is the per-process operation count of the queue
// scenario: two, so producers issue *sequences* of enqueues and the
// linearizer checks FIFO replay of a producer's earlier value across its
// later operation — the multi-op case where committed-prefix replay can
// actually go wrong.
const universalQueueOps = 2

// buildUniversalQueue is the examples/universalqueue workload: a FIFO
// queue Abstract, the first half of the processes enqueueing (two values
// each, in increasing order) and the rest dequeueing twice, judged by
// queue linearizability (Theorem 3 projection).
var buildUniversalQueue = buildUniversal(
	Oracle{Kind: OracleLinearize, Type: spec.QueueType{}}, universalQueueOps,
	func(i, k, n int) spec.Request {
		id := int64(i*universalQueueOps + k + 1)
		if i < (n+1)/2 {
			return spec.Request{ID: id, Proc: i, Op: spec.OpEnq, Arg: int64(100 + i*10 + k)}
		}
		return spec.Request{ID: id, Proc: i, Op: spec.OpDeq}
	})

// handoffBugWarmup and handoffBugGap size the registered planted-bug
// scenario so its two-process tree stays exhaustively checkable while the
// bug window remains reachable (bench E12 hunts a much rarer configuration
// of the same harness).
const (
	handoffBugWarmup = 4
	handoffBugGap    = 3
)

// buildHandoffBug wraps the randomized subsystem's planted depth-2 bug as
// a registered scenario: the checker is *expected* to report a failing
// interleaving (Params.ExpectFail), which exercises the failure-reporting
// path of both frontends end to end.
func buildHandoffBug(n int, _ Options) (engine.Harness, Oracle) {
	return randexp.HandoffBug(n, handoffBugWarmup, handoffBugGap),
		Oracle{Kind: OracleInvariant, Invariant: "planted-handoff-bug"}
}
