package scenario

// What every built-in and generated scenario is assembled from: the harness
// skeleton, and the op log that records a history for the scenario's oracle
// and for the stress tier.

import (
	"slices"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/trace"
)

// instance is the scenario-specific half of one harness instance: the body
// every process runs (process i as env.Proc(i), so p.ID() is i), the check
// that judges an execution, and the reset that restores the scenario's own
// state (the objects are reset by the Env).
type instance struct {
	body  func(p *memory.Proc)
	check func(res *sched.Result) error
	reset func()
}

// harness is the skeleton of every scenario's harness: each instance gets a
// fresh n-process Env on which setup builds and registers its objects. Under
// crashes, survivors must finish before the scenario's own check runs.
func harness(n int, opts Options, setup func(env *memory.Env) instance) engine.Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		in := setup(env)
		bodies := slices.Repeat([]func(p *memory.Proc){in.body}, n)
		check := in.check
		if opts.Crashes {
			check = func(res *sched.Result) error {
				if err := survivorsFinished(res); err != nil {
					return err
				}
				return in.check(res)
			}
		}
		return env, bodies, check, in.reset
	}
}

// opLog is a scenario's recorded history. Events are stamped from the
// schedule (memory.Proc.EventStamp), so a history is a function of the
// scheduler's choices alone, and the log is its Env's history source, so
// the stress tier can drain every round without knowing the scenario. The
// k-th operation of process i gets request ID i·opsPerProc + k + 1.
type opLog struct {
	rec        *trace.Recorder
	opsPerProc int
	reqs       []spec.Request // process i's k-th request, at i·opsPerProc + k
	ops        []trace.Op     // history's buffer, reused across executions
}

// newOpLog returns the op log of env's processes, each invoking at most
// opsPerProc operations per execution.
func newOpLog(env *memory.Env, opsPerProc int) *opLog {
	n := env.N()
	rec := trace.NewRecorder(n)
	rec.SetStampSource(func(proc int) int64 { return env.Proc(proc).EventStamp() })
	env.SetHistorySource(trace.Source(rec.AppendOps))
	return &opLog{rec: rec, opsPerProc: opsPerProc, reqs: make([]spec.Request, n*opsPerProc)}
}

// invoke records process proc's invocation of its k-th operation (from 0)
// and returns its request, to be closed by commit or abort. A slot's
// request is rewritten only when it differs from the one it held in an
// earlier execution: recording copies the request, and copying one just
// stored stalls on store forwarding, which made a native tasfai round
// about a fifth slower.
func (l *opLog) invoke(proc, k int, op string, arg int64) *spec.Request {
	i := proc*l.opsPerProc + k
	m := &l.reqs[i]
	if m.Op != op || m.Arg != arg {
		*m = spec.Request{ID: int64(i + 1), Proc: proc, Op: op, Arg: arg}
	}
	l.rec.RecordInvoke(proc, *m)
	return m
}

// commit records m's committed response; sv is the switch value or commit
// history the response carries, if any.
func (l *opLog) commit(m *spec.Request, resp int64, sv any, module string) {
	l.rec.RecordCommitSV(m.Proc, *m, resp, sv, module)
}

// abort records m's abort with switch value sv.
func (l *opLog) abort(m *spec.Request, sv any, module string) {
	l.rec.RecordAbort(m.Proc, *m, sv, module)
}

// history returns the execution's operations sorted by invocation, in a
// buffer the next call reuses.
func (l *opLog) history() []trace.Op {
	l.ops = l.rec.AppendOps(l.ops[:0])
	return l.ops
}

// events returns the execution's trace events in real-time order.
func (l *opLog) events() []trace.Event { return l.rec.Events() }

// reset empties the log for the next execution.
func (l *opLog) reset() { l.rec.Reset() }
