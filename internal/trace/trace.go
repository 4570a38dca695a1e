// Package trace records concurrent executions as the paper's traces
// (Section 3): the sequence of invoke, init, commit and abort events,
// ordered by their real-time occurrence. A global atomic sequence number
// stamps each event, so real-time precedence between operations (response
// before invocation) is recoverable exactly. Events are buffered per
// process to keep recording cheap and contention-free, then merged on
// demand.
package trace

import (
	"fmt"
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

// opens reports whether an event of kind k starts an operation.
func (k EventKind) opens() bool { return k == Invoke || k == Init }

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
	stamp func(proc int) int64
	procs []procLog
	heads []head // merge scratch of AppendOps and Events
}

type procLog struct {
	events []Event
	_      [64]byte // pad to avoid false sharing between process logs
}

// NewRecorder returns a recorder for n processes.
func NewRecorder(n int) *Recorder {
	return &Recorder{procs: make([]procLog, n)}
}

// Reset discards all recorded events and restarts the stamp counter,
// retaining the per-process buffers. It is the recorder's part of
// a pooled harness's reset path: after Reset the recorder is
// indistinguishable from a freshly constructed one, without the
// allocations. Must not be called while processes are recording.
func (r *Recorder) Reset() {
	r.seq.Store(0)
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

// record appends one event to proc's log, building it in place: an Event
// is over a hundred bytes, and this runs inside every recorded operation.
func (r *Recorder) record(proc int, kind EventKind, m *spec.Request, resp int64, sv any, module string) int64 {
	var seq int64
	if r.stamp != nil {
		seq = r.stamp(proc)
	} else {
		seq = r.seq.Add(1)
	}
	l := &r.procs[proc]
	l.events = append(l.events, Event{})
	e := &l.events[len(l.events)-1]
	e.Seq, e.Proc, e.Kind, e.Req, e.Resp, e.SV, e.Module = seq, proc, kind, *m, resp, sv, module
	return seq
}

// RecordInvoke records (invoke, m) by process proc and returns the stamp.
func (r *Recorder) RecordInvoke(proc int, m spec.Request) int64 {
	return r.record(proc, Invoke, &m, 0, nil, "")
}

// RecordInit records (init, m, v) by process proc and returns the stamp.
func (r *Recorder) RecordInit(proc int, m spec.Request, sv any) int64 {
	return r.record(proc, Init, &m, 0, sv, "")
}

// RecordCommit records (commit, m, resp) and returns the stamp.
func (r *Recorder) RecordCommit(proc int, m spec.Request, resp int64, module string) int64 {
	return r.record(proc, Commit, &m, resp, nil, module)
}

// RecordCommitSV records (commit, m, resp) additionally carrying sv — for
// Abstract traces, the commit history attached to the response — and
// returns the stamp.
func (r *Recorder) RecordCommitSV(proc int, m spec.Request, resp int64, sv any, module string) int64 {
	return r.record(proc, Commit, &m, resp, sv, module)
}

// RecordAbort records (abort, m, sv) and returns the stamp.
func (r *Recorder) RecordAbort(proc int, m spec.Request, sv any, module string) int64 {
	return r.record(proc, Abort, &m, 0, sv, module)
}

// Events returns all recorded events merged in real-time (stamp) order.
func (r *Recorder) Events() []Event {
	var all []Event
	for r.startMerge(); len(r.heads) > 0; {
		h := r.heads[0]
		all = append(all, r.procs[h.proc].events[h.at])
		r.advance(int(h.at) + 1)
	}
	return all
}

// head is one process log's position in a merge: the index of its next
// unmerged event and that event's stamp.
type head struct {
	seq      int64
	proc, at int32
}

// startMerge loads a min-heap on (stamp, process) with the first event of
// every non-empty process log. Each log is already in stamp order (stamps
// strictly increase per process), so repeatedly taking heads[0] and
// advancing past what was consumed merges them; ties go to the lower
// process, which is exactly the order a stable sort of the logs
// concatenated in process order gives.
func (r *Recorder) startMerge() {
	r.heads = r.heads[:0]
	for pi := range r.procs {
		if evs := r.procs[pi].events; len(evs) > 0 {
			r.heads = append(r.heads, head{evs[0].Seq, int32(pi), 0})
		}
	}
	for i := len(r.heads)/2 - 1; i >= 0; i-- {
		r.siftDown(i)
	}
}

// advance moves the least head to event at of its log, dropping the log
// from the heap once it is exhausted.
func (r *Recorder) advance(at int) {
	h := &r.heads[0]
	if evs := r.procs[h.proc].events; at < len(evs) {
		h.seq, h.at = evs[at].Seq, int32(at)
	} else {
		last := len(r.heads) - 1
		r.heads[0] = r.heads[last]
		r.heads = r.heads[:last]
	}
	r.siftDown(0)
}

func (r *Recorder) siftDown(i int) {
	hs := r.heads
	less := func(a, b int) bool {
		return hs[a].seq < hs[b].seq || hs[a].seq == hs[b].seq && hs[a].proc < hs[b].proc
	}
	for {
		m := i
		if c := 2*i + 1; c < len(hs) && less(c, m) {
			m = c
		}
		if c := 2*i + 2; c < len(hs) && less(c, m) {
			m = c
		}
		if m == i {
			return
		}
		hs[i], hs[m] = hs[m], hs[i]
		i = m
	}
}

// unmatched panics on a response that no open invocation of its process
// matches.
func unmatched(e *Event) {
	panic(fmt.Sprintf("trace: %v of %v without matching invocation", e.Kind, e.Req))
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
//
// The per-process logs are merged, not sorted: every operation is written
// once, in its final place, and the order is exactly that of a stable sort
// by invocation stamp. Neither AppendOps nor Events may run concurrently
// with recording or with each other.
func (r *Recorder) AppendOps(dst []Op) []Op {
	for r.startMerge(); len(r.heads) > 0; {
		h := r.heads[0]
		evs := r.procs[h.proc].events
		e := &evs[h.at]
		if !e.Kind.opens() {
			unmatched(e)
		}
		dst = append(dst, Op{})
		op := &dst[len(dst)-1]
		op.Proc, op.Req, op.Inv, op.Pending, op.IsInit, op.InitSV = int(h.proc), e.Req, e.Seq, true, e.Kind == Init, e.SV
		next := int(h.at) + 1
		if next < len(evs) && !evs[next].Kind.opens() {
			re := &evs[next]
			if re.Req.ID != e.Req.ID {
				unmatched(re)
			}
			op.Ret, op.Pending, op.Module = re.Seq, false, re.Module
			if re.Kind == Commit {
				op.Resp = re.Resp
			} else {
				op.SV, op.Aborted = re.SV, true
			}
			next++
		}
		r.advance(next)
	}
	return dst
}

// Source appends to dst every operation recorded since the recorder's last
// Reset, as AppendOps does, and returns the extended slice. Scenarios that
// keep a recorder expose one (through their environment) so harnesses
// layered above — the stress driver's streaming linearizability sidecar,
// notably — can collect each round's history into a buffer they reuse,
// without knowing how the scenario records.
type Source func(dst []Op) []Op
