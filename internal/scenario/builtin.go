package scenario

// The built-in scenarios: every workload that previously lived as a local
// harness builder in cmd/tascheck, cmd/composebench, internal/bench or
// examples/, registered once under a stable name. Each Build follows the
// engine.Harness contract (see the package comment); bodies perform the
// same gated access sequences as the builders they replace, so every
// execution count recorded in EXPERIMENTS.md is preserved.

import (
	"errors"
	"fmt"

	"repro/internal/abstract"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/splitter"
	"repro/internal/tas"
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
		Build:       buildOneShot(false),
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
		Description: "planted depth-2 handoff bug (the samplers' reference harness): the checker is expected to find a failing interleaving",
		Params:      Params{Crashes: true, Fingerprints: true, ExpectFail: true},
		Build:       buildHandoffBug,
	})
	Register(Scenario{
		Name:        "quickstart",
		Description: "the examples/quickstart workload: n processes race the composed one-shot TAS, module usage recorded",
		Params:      Params{Crashes: true, Fingerprints: true, DefaultProcs: 3},
		Build:       buildOneShot(true),
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
var tasOracle = linearizeOracle(spec.TASType{}, nil)

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
		return harness(n, opts, func(env *memory.Env) instance {
			a1 := tas.NewA1()
			env.Register(a1)
			log := newOpLog(env, 1)
			body := func(p *memory.Proc) {
				m := log.invoke(p.ID(), 0, spec.OpTAS, 0)
				out, resp, sv := a1.Invoke(p, *m, nil)
				if out == core.Committed {
					log.commit(m, resp, nil, "A1")
				} else {
					log.abort(m, sv, "A1")
				}
			}
			check := func(res *sched.Result) error {
				ops := log.history()
				if err := uniqueWinner(ops, false); err != nil {
					return err
				}
				if err := tasOracle.Check(ops); err != nil {
					return err
				}
				if withDef2 {
					return core.CheckDefinition2(spec.TASType{}, tas.MConstraint{}, log.events())
				}
				return nil
			}
			return instance{body, check, log.reset}
		}), oracle
	}
}

// moduleLabels are the trace labels of the two modules of the one-shot
// composition (A1, then the hardware-backed A2), interned so recording a
// commit formats nothing.
var moduleLabels = [2]string{"module0", "module1"}

// moduleLabel is the trace label of module; only an impossible module,
// which the quickstart check rejects, gets a formatted one.
func moduleLabel(module int) string {
	if module == 0 || module == 1 {
		return moduleLabels[module]
	}
	return fmt.Sprintf("module%d", module)
}

// buildOneShot builds the composed one-shot TAS harness: the A1→A2
// composition is wait-free, so without crashes exactly one process must
// win; the recorded trace must linearize as a test-and-set. withModules
// makes it the examples/quickstart workload: each commit is labeled with
// the module that served it, and every committed operation must have been
// served by one of the two.
func buildOneShot(withModules bool) func(n int, opts Options) (engine.Harness, Oracle) {
	return func(n int, opts Options) (engine.Harness, Oracle) {
		return harness(n, opts, func(env *memory.Env) instance {
			o := tas.NewOneShot()
			env.Register(o)
			log := newOpLog(env, 1)
			body := func(p *memory.Proc) {
				m := log.invoke(p.ID(), 0, spec.OpTAS, 0)
				v, module := o.TestAndSetTraced(p)
				label := ""
				if withModules {
					label = moduleLabel(module)
				}
				log.commit(m, v, nil, label)
			}
			check := func(res *sched.Result) error {
				ops := log.history()
				for _, op := range ops {
					if withModules && op.Committed() && op.Module != moduleLabels[0] && op.Module != moduleLabels[1] {
						return fmt.Errorf("proc %d served by impossible module %s", op.Proc, op.Module)
					}
				}
				if err := uniqueWinner(ops, !opts.Crashes); err != nil {
					return err
				}
				return tasOracle.Check(ops)
			}
			return instance{body, check, log.reset}
		}), tasOracle
	}
}

// buildTASFAI builds the two-object composition the compositional
// linearizability oracle is exercised on: every process races the composed
// one-shot TAS once (module "tas") and then takes two tickets from a
// hardware fetch-and-increment counter (module "fai"). Each per-module
// projection must linearize against its own sequential type — the
// P-compositionality form of Theorem 3.
func buildTASFAI(n int, opts Options) (engine.Harness, Oracle) {
	oracle := linearizeOracle(nil, map[string]spec.Type{
		"tas": spec.TASType{},
		"fai": spec.FetchIncType{},
	})
	return harness(n, opts, func(env *memory.Env) instance {
		o := tas.NewOneShot()
		c := memory.NewFetchInc(0)
		env.Register(o, c)
		log := newOpLog(env, 3)
		body := func(p *memory.Proc) {
			i := p.ID()
			m := log.invoke(i, 0, spec.OpTAS, 0)
			log.commit(m, o.TestAndSet(p), nil, "tas")
			for k := 1; k <= 2; k++ {
				m := log.invoke(i, k, spec.OpInc, 0)
				// Inc returns the post-increment value; the sequential
				// fetch-and-increment spec responds with the value fetched.
				log.commit(m, c.Inc(p)-1, nil, "fai")
			}
		}
		check := func(res *sched.Result) error {
			ops := log.history()
			if err := uniqueWinner(ops, true); err != nil {
				return err
			}
			return oracle.Check(ops)
		}
		return instance{body, check, log.reset}
	}), oracle
}

// buildFAI builds the speculative fetch-and-increment harness: two tickets
// per process through the composed F1→F2 dispenser; recorded tickets must
// be globally unique and strictly increasing per process (crashed
// processes simply record fewer tickets).
func buildFAI(n int, opts Options) (engine.Harness, Oracle) {
	return harness(n, opts, func(env *memory.Env) instance {
		s := tas.NewSpecFetchInc()
		env.Register(s)
		tickets := make([][]int64, n)
		body := func(p *memory.Proc) {
			i := p.ID()
			for range 2 {
				tk, _ := s.Inc(p)
				tickets[i] = append(tickets[i], tk)
			}
		}
		check := func(res *sched.Result) error {
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
		return instance{body, check, reset}
	}), Oracle{Kind: OracleInvariant, Invariant: "unique-tickets"}
}

// mutexOracle is the invariant shared by the long-lived lock-shaped
// scenarios: acquire/release intervals of different processes are disjoint.
var mutexOracle = Oracle{Kind: OracleInvariant, Invariant: "mutual-exclusion"}

// lockBody is the body of process i performing cycles[i] acquire/release
// attempts on the long-lived TAS, stamping each successful hold with the
// process's schedule-derived logical clock (stamps are taken in the
// holder's ungated window, so they are consistent with the controlled
// interleaving and a function of the schedule alone). A hold is stamped on
// both sides of its reset; holdsDisjoint says which stamp closes it on
// which clock.
func lockBody(ll *tas.LongLived, cycles []int, holds [][]hold) func(p *memory.Proc) {
	return func(p *memory.Proc) {
		i := p.ID()
		for range cycles[i] {
			if ll.TestAndSet(p) == spec.Winner {
				acq, pre := p.EventStamp(), p.EventStamp()
				holds[i] = append(holds[i], hold{acq: acq, pre: pre})
				ll.Reset(p)
				holds[i][len(holds[i])-1].rel = p.EventStamp()
			}
		}
	}
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
	return harness(n, opts, func(env *memory.Env) instance {
		ll := tas.NewLongLived(n)
		env.Register(ll)
		holds := make([][]hold, n)
		check := func(res *sched.Result) error {
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
		return instance{lockBody(ll, mkCycles(n), holds), check, reset}
	}), oracle
}

// buildConsensus builds the SplitConsensus harness: every process proposes
// a distinct value; committed values must agree, be someone's proposal, and
// never coexist with a ⊥-abort (an abort with ⊥ certifies the instance
// never commits).
func buildConsensus(n int, opts Options) (engine.Harness, Oracle) {
	return harness(n, opts, func(env *memory.Env) instance {
		c := consensus.NewSplitConsensus()
		env.Register(c)
		outs := make([]consensus.Outcome, n)
		vals := make([]int64, n)
		body := func(p *memory.Proc) {
			i := p.ID()
			outs[i], vals[i] = c.Propose(p, consensus.Bottom, int64(10*(i+1)))
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
		return instance{body, check, reset}
	}), Oracle{Kind: OracleInvariant, Invariant: "agreement"}
}

// buildSnapshot builds the atomic-snapshot harness: process 0 updates its
// component twice, process 1 scans twice (scans must be pointwise
// monotone), remaining processes update their components once; every
// observed value must be in its component's written domain.
func buildSnapshot(n int, opts Options) (engine.Harness, Oracle) {
	return harness(n, opts, func(env *memory.Env) instance {
		s := snapshot.New(n, int64(0))
		env.Register(s)
		var v1, v2 []int64
		body := func(p *memory.Proc) {
			switch i := p.ID(); i {
			case 0:
				s.Update(p, 0, 1)
				s.Update(p, 0, 2)
			case 1:
				v1 = s.Scan(p)
				v2 = s.Scan(p)
			default:
				s.Update(p, i, 1)
			}
		}
		check := func(res *sched.Result) error {
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
		return instance{body, check, func() { v1, v2 = nil, nil }}
	}), Oracle{Kind: OracleInvariant, Invariant: "monotone-scans"}
}

// buildSplitter builds the splitter harness: every process acquires once;
// among processes that completed, at most one may obtain Stop.
func buildSplitter(n int, opts Options) (engine.Harness, Oracle) {
	return harness(n, opts, func(env *memory.Env) instance {
		s := splitter.New()
		env.Register(s)
		got := make([]splitter.Outcome, n)
		body := func(p *memory.Proc) { got[p.ID()] = s.Get(p) }
		check := func(res *sched.Result) error {
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
		return instance{body, check, func() { clear(got) }}
	}), Oracle{Kind: OracleInvariant, Invariant: "at-most-one-stop"}
}

// buildUniversal is the shared universal-construction harness: opsPer
// requests per process (the k-th's operation and argument chosen by mkReq)
// through a contention-free stage ordered by SplitConsensus backed by a
// CAS-ordered wait-free stage. The recorded Abstract trace must satisfy
// Definition 1 and its invoke/commit projection must linearize against the
// oracle's type. The construction materializes consensus instances and
// registry slots at schedule-dependent times; Object.ResetState discards
// them, so a reset instance re-creates them exactly as a fresh one would.
func buildUniversal(oracle Oracle, opsPer int, mkReq func(i, k, n int) (op string, arg int64)) func(n int, opts Options) (engine.Harness, Oracle) {
	return func(n int, opts Options) (engine.Harness, Oracle) {
		return harness(n, opts, func(env *memory.Env) instance {
			o := abstract.NewObject(oracle.Type, n,
				abstract.StageSpec{Name: "contention-free", MkCons: func(int) consensus.Abortable {
					return consensus.NewSplitConsensus()
				}},
				abstract.StageSpec{Name: "wait-free", MkCons: func(int) consensus.Abortable {
					return consensus.NewCASConsensus()
				}},
			)
			env.Register(o)
			log := newOpLog(env, opsPer)
			body := func(p *memory.Proc) {
				i := p.ID()
				for k := range opsPer {
					op, arg := mkReq(i, k, n)
					m := log.invoke(i, k, op, arg)
					out, resp, hist, stage := o.Invoke(p, *m)
					mod := fmt.Sprintf("stage%d", stage)
					if out == abstract.Commit {
						log.commit(m, resp, hist, mod)
					} else {
						log.abort(m, hist, mod)
					}
				}
			}
			check := func(res *sched.Result) error {
				if err := abstract.CheckTrace(log.events()); err != nil {
					return err
				}
				return oracle.Check(log.history())
			}
			return instance{body, check, log.reset}
		}), oracle
	}
}

// buildAbstract is the fetch-and-increment universal construction: one
// increment per process.
var buildAbstract = buildUniversal(
	linearizeOracle(spec.FetchIncType{}, nil), 1,
	func(_, _, _ int) (string, int64) { return spec.OpInc, 0 })

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
	linearizeOracle(spec.QueueType{}, nil), universalQueueOps,
	func(i, k, n int) (string, int64) {
		if i < (n+1)/2 {
			return spec.OpEnq, int64(100 + i*10 + k)
		}
		return spec.OpDeq, 0
	})

// handoffBugWarmup and handoffBugGap size the registered planted-bug
// scenario so its two-process tree stays exhaustively checkable while the
// bug window remains reachable (bench E12 hunts a much rarer configuration
// of the same harness).
const (
	handoffBugWarmup = 4
	handoffBugGap    = 3
)

// buildHandoffBug registers the planted depth-2 bug: the checker is
// *expected* to report a failing interleaving (Params.ExpectFail), which
// exercises the failure-reporting path of engine.Run and engine.Sample end
// to end.
func buildHandoffBug(n int, _ Options) (engine.Harness, Oracle) {
	return HandoffBug(n, handoffBugWarmup, handoffBugGap),
		Oracle{Kind: OracleInvariant, Invariant: "planted-handoff-bug"}
}

// HandoffBug returns a reference harness with a seeded rare-interleaving
// bug of depth 2, used to compare samplers' bug-finding power (bench E12
// and the sampler tests). Process 0 performs warmup private reads,
// publishes a flag, performs gap more private reads, then reads an ack;
// process 1 reads the flag as its very first step and acknowledges only if
// it saw it set; processes 2..n-1 are warmup-read noise. The check fails
// exactly when the full handoff happened, which requires (a) process 0's
// flag write — its step warmup+1 — to precede process 1's first step, and
// (b) process 1's ack to land inside process 0's gap window. Under uniform
// sampling constraint (a) alone has probability about 2^-(warmup+1); under
// PCT with depth 2 the bug needs only process 0 outranking process 1 plus
// one change point in the gap window, and a skewed rates sampler (fast
// process 0, slow process 1) finds it at constant rate.
func HandoffBug(n, warmup, gap int) engine.Harness {
	if n < 2 {
		panic("scenario: HandoffBug requires n >= 2")
	}
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		flag := memory.NewIntReg(0)
		ack := memory.NewIntReg(0)
		env.Register(flag, ack)
		scratch := make([]*memory.IntReg, n)
		for i := range scratch {
			scratch[i] = memory.NewIntReg(0)
			env.Register(scratch[i])
		}
		got := new(int64)
		bodies := make([]func(p *memory.Proc), n)
		bodies[0] = func(p *memory.Proc) {
			for s := 0; s < warmup; s++ {
				scratch[0].Read(p)
			}
			flag.Write(p, 1)
			for s := 0; s < gap; s++ {
				scratch[0].Read(p)
			}
			*got = ack.Read(p)
		}
		bodies[1] = func(p *memory.Proc) {
			if flag.Read(p) == 1 {
				ack.Write(p, 1)
			}
		}
		for i := 2; i < n; i++ {
			bodies[i] = func(p *memory.Proc) {
				for s := 0; s < warmup; s++ {
					scratch[i].Read(p)
				}
			}
		}
		check := func(res *sched.Result) error {
			if *got == 1 {
				return errors.New("handoff bug: process 0 observed the acknowledged flag")
			}
			return nil
		}
		reset := func() { *got = 0 }
		return env, bodies, check, reset
	}
}
