// Package trace records concurrent executions as the paper's traces
// (Section 3): the sequence of invoke, init, commit and abort events,
// ordered by their real-time occurrence. A global atomic sequence number
// stamps each event, so real-time precedence between operations (response
// before invocation) is recoverable exactly. Events are buffered per
// process to keep recording cheap and contention-free, then merged on
// demand.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/spec"
)

// EventKind distinguishes the four trace events of Section 3.
type EventKind uint8

// The event kinds of a trace.
const (
	// Invoke is the tuple (invoke, m): request m invoked with no switch value.
	Invoke EventKind = iota
	// Init is the tuple (init, m, v): request m invoked together with a
	// proposed switch value v that initializes the current module.
	Init
	// Commit is the reply (commit, m, r): response r committed for m.
	Commit
	// Abort is the reply (abort, m, v): m aborted with switch value v.
	Abort
)

// String returns the event-kind name.
func (k EventKind) String() string {
	switch k {
	case Invoke:
		return "invoke"
	case Init:
		return "init"
	case Commit:
		return "commit"
	case Abort:
		return "abort"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one trace entry. Seq is the global real-time stamp. Resp is
// meaningful for Commit events; SV (the switch value) for Init and Abort
// events — its dynamic type is framework-specific (e.g. tas.SwitchValue for
// the TAS modules, a spec.History for Abstract stages). Module labels which
// module produced a response, for reporting.
type Event struct {
	Seq    int64
	Proc   int
	Kind   EventKind
	Req    spec.Request
	Resp   int64
	SV     any
	Module string
}

// String renders the event for diagnostics.
func (e Event) String() string {
	switch e.Kind {
	case Commit:
		return fmt.Sprintf("%d:p%d commit %v -> %d", e.Seq, e.Proc, e.Req, e.Resp)
	case Abort:
		return fmt.Sprintf("%d:p%d abort %v sv=%v", e.Seq, e.Proc, e.Req, e.SV)
	case Init:
		return fmt.Sprintf("%d:p%d init %v sv=%v", e.Seq, e.Proc, e.Req, e.SV)
	default:
		return fmt.Sprintf("%d:p%d invoke %v", e.Seq, e.Proc, e.Req)
	}
}

// Recorder collects events from concurrently running processes.
type Recorder struct {
	seq   atomic.Int64
	ids   atomic.Int64
	stamp func(proc int) int64
	procs []procLog
}

type procLog struct {
	events []Event
	_      [64]byte // pad to avoid false sharing between process logs
}

// NewRecorder returns a recorder for n processes.
func NewRecorder(n int) *Recorder {
	return &Recorder{procs: make([]procLog, n)}
}

// NextID issues a fresh unique request id (the paper assumes all requests
// are uniquely identified).
func (r *Recorder) NextID() int64 { return r.ids.Add(1) }

// Reset discards all recorded events and restarts the stamp and id
// counters, retaining the per-process buffers. It is the recorder's part of
// a pooled harness's reset path: after Reset the recorder is
// indistinguishable from a freshly constructed one, without the
// allocations. Must not be called while processes are recording.
func (r *Recorder) Reset() {
	r.seq.Store(0)
	r.ids.Store(0)
	for i := range r.procs {
		r.procs[i].events = r.procs[i].events[:0]
	}
}

// SetStampSource replaces the recorder's built-in wall-order counter with
// an external stamp source (typically memory.Proc.EventStamp). A source
// that derives stamps from the controlled schedule rather than wall order
// makes traces a function of the schedule alone. The source must
// return stamps that are strictly increasing per process and consistent
// with real-time order across processes. Must be set before recording.
func (r *Recorder) SetStampSource(f func(proc int) int64) { r.stamp = f }

func (r *Recorder) record(e Event) int64 {
	if r.stamp != nil {
		e.Seq = r.stamp(e.Proc)
	} else {
		e.Seq = r.seq.Add(1)
	}
	r.procs[e.Proc].events = append(r.procs[e.Proc].events, e)
	return e.Seq
}

// RecordInvoke records (invoke, m) by process proc and returns the stamp.
func (r *Recorder) RecordInvoke(proc int, m spec.Request) int64 {
	return r.record(Event{Proc: proc, Kind: Invoke, Req: m})
}

// RecordInit records (init, m, v) by process proc and returns the stamp.
func (r *Recorder) RecordInit(proc int, m spec.Request, sv any) int64 {
	return r.record(Event{Proc: proc, Kind: Init, Req: m, SV: sv})
}

// RecordCommit records (commit, m, resp) and returns the stamp.
func (r *Recorder) RecordCommit(proc int, m spec.Request, resp int64, module string) int64 {
	return r.record(Event{Proc: proc, Kind: Commit, Req: m, Resp: resp, Module: module})
}

// RecordCommitSV records (commit, m, resp) additionally carrying sv — for
// Abstract traces, the commit history attached to the response — and
// returns the stamp.
func (r *Recorder) RecordCommitSV(proc int, m spec.Request, resp int64, sv any, module string) int64 {
	return r.record(Event{Proc: proc, Kind: Commit, Req: m, Resp: resp, SV: sv, Module: module})
}

// RecordAbort records (abort, m, sv) and returns the stamp.
func (r *Recorder) RecordAbort(proc int, m spec.Request, sv any, module string) int64 {
	return r.record(Event{Proc: proc, Kind: Abort, Req: m, SV: sv, Module: module})
}

// Events returns all recorded events merged in real-time (stamp) order.
func (r *Recorder) Events() []Event {
	var all []Event
	for i := range r.procs {
		all = append(all, r.procs[i].events...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return all
}

// Op is one operation extracted from a trace: an invocation (or init) event
// matched with its response, if any. Pending operations (crashed or still
// running) have Ret == 0 and Pending == true.
type Op struct {
	Proc    int
	Req     spec.Request
	Inv     int64 // invocation stamp
	Ret     int64 // response stamp (0 if pending)
	Resp    int64 // committed response (valid if Committed)
	SV      any   // switch value (valid if Aborted; also init value if IsInit)
	InitSV  any
	IsInit  bool
	Pending bool
	Aborted bool
	Module  string
}

// Committed reports whether the operation committed a response.
func (o Op) Committed() bool { return !o.Pending && !o.Aborted }

// PrecededBy reports real-time precedence: other's response occurred before
// o's invocation.
func (o Op) PrecededBy(other Op) bool {
	return !other.Pending && other.Ret < o.Inv
}

// Ops matches invocations with responses per process (each process is
// sequential: it invokes a new request only after the previous one
// returned) and returns operations sorted by invocation stamp.
func (r *Recorder) Ops() []Op { return r.AppendOps(nil) }

// AppendOps is Ops into a caller-owned buffer: the operations are appended
// to dst (sorted by invocation stamp among themselves) and the extended
// slice is returned. A caller that extracts a history once per execution or
// round passes its previous buffer re-sliced, so extracting the history
// allocates nothing once the buffer has grown to the harness's operation
// count.
func (r *Recorder) AppendOps(dst []Op) []Op {
	base := len(dst)
	for pi := range r.procs {
		cur := -1 // index in dst of the process's open operation
		for _, e := range r.procs[pi].events {
			switch e.Kind {
			case Invoke, Init:
				cur = len(dst)
				dst = append(dst, Op{Proc: pi, Req: e.Req, Inv: e.Seq, Pending: true, IsInit: e.Kind == Init, InitSV: e.SV})
			case Commit:
				if cur < 0 || dst[cur].Req.ID != e.Req.ID {
					panic(fmt.Sprintf("trace: commit of %v without matching invocation", e.Req))
				}
				op := &dst[cur]
				op.Ret, op.Resp, op.Pending, op.Module = e.Seq, e.Resp, false, e.Module
				cur = -1
			case Abort:
				if cur < 0 || dst[cur].Req.ID != e.Req.ID {
					panic(fmt.Sprintf("trace: abort of %v without matching invocation", e.Req))
				}
				op := &dst[cur]
				op.Ret, op.SV, op.Pending, op.Aborted, op.Module = e.Seq, e.SV, false, true, e.Module
				cur = -1
			}
		}
	}
	slices.SortFunc(dst[base:], func(a, b Op) int { return cmp.Compare(a.Inv, b.Inv) })
	return dst
}

// Source appends to dst every operation recorded since the recorder's last
// Reset, as AppendOps does, and returns the extended slice. Scenarios that
// keep a recorder expose one (through their environment) so harnesses
// layered above — the stress driver's streaming linearizability sidecar,
// notably — can collect each round's history into a buffer they reuse,
// without knowing how the scenario records.
type Source func(dst []Op) []Op
