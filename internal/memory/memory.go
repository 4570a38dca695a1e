// Package memory implements the shared-memory substrate of the paper's model
// (Section 3): n asynchronous processes, up to n-1 of which may crash,
// communicating through linearizable base objects — multi-writer multi-reader
// atomic registers, and the read-modify-write primitives the paper's
// algorithms rely on (hardware test-and-set, compare-and-swap, and a
// fetch-and-increment counter).
//
// Every primitive operation takes the calling process handle (*Proc) and is
// accounted against it: plain reads and writes count as steps, RMW
// operations additionally count as RMWs (the paper's "fence complexity" [7]
// proxy). This makes the paper's complexity metric — shared-memory steps per
// high-level operation — directly measurable, independent of wall-clock
// noise.
//
// A Proc may carry a Gate. When set, each shared-memory access first parks
// at the gate, which lets the sched and engine packages serialize accesses
// into one fully controlled, sequentially consistent interleaving. With no
// gate, primitives compile down to raw sync/atomic operations plus two
// uncontended counter increments, so the same algorithm code is usable in
// wall-clock benchmarks.
package memory

import (
	"fmt"
	"sync/atomic"
)

// OpKind identifies the kind of a shared-memory access, for accounting and
// for schedulers that want to branch on it.
type OpKind uint8

// The access kinds produced by the primitives in this package.
const (
	OpRead OpKind = iota
	OpWrite
	OpCAS
	OpTAS
	OpFetchInc
	OpSwap
)

// IsRMW reports whether the access kind is a read-modify-write (and thus
// counts against the RMW/fence budget as well as the step budget).
func (k OpKind) IsRMW() bool { return k >= OpCAS }

// Access describes one shared-memory access as seen by a scheduling gate:
// the identity of the base object touched, the kind of operation, and the
// acting process. Object identities are opaque, nonzero, and stable for the
// lifetime of the object, which is exactly what an exploration engine needs
// to decide whether two pending accesses commute.
type Access struct {
	Obj  uint64
	Kind OpKind
	Proc int
}

// Conflicts reports whether a and b fail to commute as memory operations:
// they touch the same object and at least one of them mutates it (every
// kind other than OpRead mutates, including the RMWs). Accesses by the same
// process are always order-dependent; callers are expected to check that
// separately, since program order is not a property of the accesses alone.
func (a Access) Conflicts(b Access) bool {
	return a.Obj == b.Obj && (a.Kind != OpRead || b.Kind != OpRead)
}

// objID lazily assigns a base object its nonzero identity the first time a
// gated access needs one. Laziness keeps zero-value-usable objects (array
// elements created by make, embedded registers) working without a
// constructor hook, and costs nothing on the ungated benchmark path.
type objID struct{ v atomic.Uint64 }

var objIDCounter atomic.Uint64

func (o *objID) get() uint64 {
	if id := o.v.Load(); id != 0 {
		return id
	}
	id := objIDCounter.Add(1)
	if o.v.CompareAndSwap(0, id) {
		return id
	}
	return o.v.Load()
}

// String returns the conventional name of the access kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCAS:
		return "cas"
	case OpTAS:
		return "tas"
	case OpFetchInc:
		return "fetch-inc"
	case OpSwap:
		return "swap"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Gate serializes shared-memory accesses. Enter blocks until the scheduler
// grants the calling process its next step; the access executes immediately
// after Enter returns, before the process parks again. Implementations must
// guarantee that at most one gated process is between Enter-return and its
// next Enter call at any time. The Access identifies the object and kind of
// the impending operation, so schedulers can reason about independence.
type Gate interface {
	Enter(p *Proc, a Access)
}

// Instr is an optional per-access instrumentation sink, the second
// accounting backend next to the per-process step counters. When installed
// on a Proc, every shared-memory access reports its kind through Access,
// and every read-modify-write that loses its race (a CAS that found a
// different value, a test-and-set that read 1, a PutIfEmpty that found the
// cell taken) additionally reports through RMWFail — the direct contention
// signal the cooperative gate cannot produce, because under the gate every
// interleaving is serialized and "losing" is a scheduling decision rather
// than a hardware race. The stress tier installs an Instr backed by
// per-goroutine sharded obs counters; the model-checking paths never
// install one, so the hook costs a nil check there.
//
// Implementations must be safe for concurrent use by all processes they
// are installed on. Calls happen on the hot path of every primitive;
// implementations should be O(1) and allocation-free.
type Instr interface {
	// Access reports one shared-memory access of the given kind by proc.
	Access(proc int, kind OpKind)
	// RMWFail reports that an RMW access (already reported via Access)
	// lost its race and will retry or return a loser result.
	RMWFail(proc int, kind OpKind)
}

// Resettable is implemented by base objects (and by composites built from
// them) that can restore themselves to their construction-time state.
// Registering a Resettable with an Env makes Env.Reset restore it, which is
// what lets a pooled executor reuse one object graph across many explored
// executions instead of reconstructing it per execution.
type Resettable interface {
	// ResetState restores the object to the state it had when constructed.
	// It must not be called concurrently with processes taking steps.
	ResetState()
}

// Fingerprinter is implemented by objects whose current shared-memory state
// can be folded exactly into a hash. HashState reports false when the state
// cannot be captured faithfully (pointer-valued registers, lazily populated
// arrays); one false makes the whole environment unfingerprintable, which
// disables state caching rather than risking unsound pruning.
type Fingerprinter interface {
	HashState(h *StateHash) bool
}

// Fingerprint is a 128-bit state digest: two independently accumulated
// 64-bit hash lanes. One 64-bit lane makes accidental collisions plausible
// once a cross-worker cache holds millions of states (the birthday bound is
// ~2^32); two decorrelated lanes push the bound to ~2^64, which is what the
// "no collisions in practice" assumption in DESIGN.md actually needs.
// Fingerprints are comparable and usable as map keys.
type Fingerprint [2]uint64

// StateHash accumulates an order-sensitive hash over 64-bit state words in
// two independent FNV-1a lanes: lane a folds each word's bytes LSB-first
// from the standard FNV-1a offset basis, lane b folds them MSB-first from a
// distinct offset basis, so the lanes diffuse the same input through
// different intermediate states. Registered objects are folded in
// registration order, which is deterministic (harness construction is
// single-threaded straight-line code), so equal states of equally
// constructed environments hash equally.
type StateHash struct{ a, b uint64 }

const (
	fnvOffset64 = 14695981039346656037
	// fnvOffset64b seeds the second lane: an arbitrary odd constant (the
	// golden-ratio mixing constant) distinct from the FNV basis.
	fnvOffset64b = 0x9e3779b97f4a7c15
	fnvPrime64   = 1099511628211
)

// NewStateHash returns an empty accumulator.
func NewStateHash() *StateHash { return &StateHash{a: fnvOffset64, b: fnvOffset64b} }

// Add folds one state word into both hash lanes.
func (h *StateHash) Add(w uint64) {
	v := w
	for i := 0; i < 8; i++ {
		h.a ^= v & 0xff
		h.a *= fnvPrime64
		v >>= 8
	}
	for i := 0; i < 8; i++ {
		h.b ^= w >> 56
		h.b *= fnvPrime64
		w <<= 8
	}
}

// Sum returns the first lane, for callers that need only a 64-bit signature
// (schedule-shape hashes and the like).
func (h *StateHash) Sum() uint64 { return h.a }

// Sum128 returns the full two-lane digest.
func (h *StateHash) Sum128() Fingerprint { return Fingerprint{h.a, h.b} }

// Env models the shared-memory system: a fixed set of n processes,
// aggregate step accounting, and a registry of the shared objects the
// processes communicate through. An Env is not itself a memory; base
// objects are created independently and shared by closure, and harnesses
// that want Reset/Fingerprint support register them explicitly.
type Env struct {
	procs      []*Proc
	objs       []Resettable
	unhashable bool
	// stampClock orders EventStamp calls of ungated processes.
	stampClock atomic.Int64
	// fpHash is Fingerprint's accumulator, reused across calls.
	fpHash StateHash

	// historySrc is an opaque slot scenarios use to hand a history drain
	// hook (a trace.Source) up to harnesses that only hold the Env. Typed
	// any to keep this package below the trace layer.
	historySrc any

	// Cumulative access census across executions: per-process counters are
	// zeroed by every Reset, so their totals are folded in here first (one
	// batch of atomic adds per execution, nothing on the per-access path).
	// The observability layer reads these; nothing else consults them.
	cumSteps atomic.Int64
	cumRMWs  atomic.Int64
	cumKinds [6]atomic.Int64
}

// NewEnv creates an environment with n processes, ids 0..n-1.
func NewEnv(n int) *Env {
	if n <= 0 {
		panic("memory: NewEnv requires n >= 1")
	}
	e := &Env{procs: make([]*Proc, n)}
	for i := range e.procs {
		e.procs[i] = &Proc{id: i, env: e}
	}
	return e
}

// N returns the number of processes in the environment.
func (e *Env) N() int { return len(e.procs) }

// Proc returns the handle of process i.
func (e *Env) Proc(i int) *Proc { return e.procs[i] }

// Procs returns all process handles, in id order. The slice is shared; do
// not mutate it.
func (e *Env) Procs() []*Proc { return e.procs }

// SetHistorySource stores an opaque history drain hook (by convention a
// trace.Source) for harnesses layered above to retrieve via HistorySource.
// The slot is opaque so this package stays below the trace layer.
func (e *Env) SetHistorySource(src any) { e.historySrc = src }

// HistorySource returns the hook stored by SetHistorySource, or nil.
func (e *Env) HistorySource() any { return e.historySrc }

// TotalSteps returns the sum of step counts over all processes.
func (e *Env) TotalSteps() int64 {
	var t int64
	for _, p := range e.procs {
		t += p.Steps()
	}
	return t
}

// TotalRMWs returns the sum of RMW counts over all processes.
func (e *Env) TotalRMWs() int64 {
	var t int64
	for _, p := range e.procs {
		t += p.RMWs()
	}
	return t
}

// ResetCounters zeroes the step and RMW counters of every process.
func (e *Env) ResetCounters() {
	for _, p := range e.procs {
		p.ResetCounters()
	}
}

// CumulativeCounts returns the access census accumulated over every
// execution on this environment: total steps, total RMWs, and totals by
// OpKind. Per-process counters fold into the cumulative totals when they
// are reset, so the sums here cover both completed (reset) executions and
// the live counters of the current one. Advisory — the observability layer
// is the only consumer.
func (e *Env) CumulativeCounts() (steps, rmws int64, kinds [6]int64) {
	steps = e.cumSteps.Load() + e.TotalSteps()
	rmws = e.cumRMWs.Load() + e.TotalRMWs()
	for i := range kinds {
		kinds[i] = e.cumKinds[i].Load()
		for _, p := range e.procs {
			kinds[i] += p.kinds[i].Load()
		}
	}
	return steps, rmws, kinds
}

// SetGate installs the same gate on every process (nil removes gates).
func (e *Env) SetGate(g Gate) {
	for _, p := range e.procs {
		p.SetGate(g)
	}
}

// SetInstr installs the same instrumentation sink on every process (nil
// removes it). Must not be called concurrently with processes taking
// steps.
func (e *Env) SetInstr(in Instr) {
	for _, p := range e.procs {
		p.SetInstr(in)
	}
}

// Register adds shared objects to the environment's registry. Registration
// order is the canonical order used by Fingerprint, so harnesses must
// register deterministically (plain straight-line construction code does).
// Register every shared object the process bodies touch: Reset only
// restores registered objects, and Fingerprint is sound only if the
// registered objects cover the entire shared state. Must not be called
// concurrently with processes taking steps.
func (e *Env) Register(objs ...Resettable) {
	for _, o := range objs {
		if o == nil {
			panic("memory: Register of nil object")
		}
		e.objs = append(e.objs, o)
		if _, ok := o.(Fingerprinter); !ok {
			e.unhashable = true
		}
	}
}

// Registered returns the number of registered objects.
func (e *Env) Registered() int { return len(e.objs) }

// Reset restores every registered object to its construction-time state and
// zeroes all per-process accounting and crash flags, so a fresh execution
// can run over the same environment. It must not be called while any
// process is taking steps.
func (e *Env) Reset() {
	for _, o := range e.objs {
		o.ResetState()
	}
	for _, p := range e.procs {
		p.ResetCounters()
		if p.crashed.Load() {
			p.crashed.Store(false)
		}
	}
}

// Fingerprint hashes the current values of all registered objects in
// registration order into a 128-bit digest. It reports ok = false — meaning
// "do not use this for pruning" — when nothing is registered (every state
// would alias) or when any registered object cannot capture its state
// exactly. It must only be called while no process is mid-access (e.g. at a
// scheduler decision point, when every process is parked).
func (e *Env) Fingerprint() (Fingerprint, bool) {
	if e.unhashable || len(e.objs) == 0 {
		return Fingerprint{}, false
	}
	// The accumulator lives in the Env: HashState takes it through an
	// interface call, so a local one would escape to the heap on every
	// execution's terminal fingerprint.
	h := &e.fpHash
	*h = StateHash{a: fnvOffset64, b: fnvOffset64b}
	for _, o := range e.objs {
		if !o.(Fingerprinter).HashState(h) {
			return Fingerprint{}, false
		}
	}
	return h.Sum128(), true
}

// Proc is the per-process handle threaded through every shared-memory
// access. It carries the process id, the step/RMW accounting, an optional
// scheduling gate, and a crash flag (a crashed process simply stops taking
// steps; the flag exists for reporting).
type Proc struct {
	id      int
	env     *Env
	gate    Gate
	instr   Instr
	steps   atomic.Int64
	rmws    atomic.Int64
	kinds   [6]atomic.Int64
	crashed atomic.Bool

	// pos is the schedule position after the process's last granted step;
	// stampSeq disambiguates multiple EventStamp calls at one position.
	// Both are written either by the process itself or by the scheduler
	// before a grant (which happens-before the process resumes), so they
	// need no atomicity.
	pos      int32
	stampSeq int32
}

// ID returns the process id (0-based).
func (p *Proc) ID() int { return p.id }

// Env returns the environment the process belongs to, or nil for a detached
// process created by NewDetachedProc.
func (p *Proc) Env() *Env { return p.env }

// Steps returns the number of shared-memory accesses performed so far.
func (p *Proc) Steps() int64 { return p.steps.Load() }

// RMWs returns the number of read-modify-write accesses performed so far.
func (p *Proc) RMWs() int64 { return p.rmws.Load() }

// KindCount returns the number of accesses of the given kind performed so
// far. The primitive census of experiment E7 uses it to certify, e.g., that
// the composed TAS never issues a compare-and-swap.
func (p *Proc) KindCount(k OpKind) int64 {
	if int(k) >= len(p.kinds) {
		return 0
	}
	return p.kinds[k].Load()
}

// ResetCounters zeroes the process's step, RMW and per-kind counters,
// along with the schedule position and stamp sequence. The zeroed totals
// fold into the environment's cumulative census first (see
// Env.CumulativeCounts), so resetting never loses accounting. A counter
// already at zero is only read, so an idle process costs no atomic write.
func (p *Proc) ResetCounters() {
	e := p.env
	if v := take(&p.steps); v != 0 && e != nil {
		e.cumSteps.Add(v)
	}
	if v := take(&p.rmws); v != 0 && e != nil {
		e.cumRMWs.Add(v)
	}
	for i := range p.kinds {
		if v := take(&p.kinds[i]); v != 0 && e != nil {
			e.cumKinds[i].Add(v)
		}
	}
	p.pos = 0
	p.stampSeq = 0
}

// take zeroes c and returns the value it held, storing only when that
// value is nonzero.
func take(c *atomic.Int64) int64 {
	v := c.Load()
	if v != 0 {
		c.Store(0)
	}
	return v
}

// SetGate installs (or removes, with nil) the scheduling gate. Must not be
// called concurrently with the process taking steps.
func (p *Proc) SetGate(g Gate) { p.gate = g }

// SetInstr installs (or removes, with nil) the instrumentation sink. Must
// not be called concurrently with the process taking steps.
func (p *Proc) SetInstr(in Instr) { p.instr = in }

// MarkCrashed records that the process has crashed. Accounting only; the
// scheduler enforces the crash by never granting further steps.
func (p *Proc) MarkCrashed() { p.crashed.Store(true) }

// Crashed reports whether the process was marked crashed.
func (p *Proc) Crashed() bool { return p.crashed.Load() }

// enter accounts for one access of the given kind to the object identified
// by o, and parks at the gate if one is installed. Every primitive in this
// package calls enter exactly once per shared-memory access, immediately
// before performing it. A nil receiver is allowed and skips accounting, so
// algorithm code can also be driven without instrumentation. The object id
// is resolved only on the gated path, keeping the ungated benchmark path at
// two uncontended counter increments.
func (p *Proc) enter(kind OpKind, o *objID) {
	if p == nil {
		return
	}
	p.account(kind)
	if p.gate != nil {
		p.gate.Enter(p, Access{Obj: o.get(), Kind: kind, Proc: p.id})
	}
}

// enterObj is enter for objects that manage their own identity space
// (GrowArray hands out one identity per slot rather than one per object).
func (p *Proc) enterObj(kind OpKind, obj uint64) {
	if p == nil {
		return
	}
	p.account(kind)
	if p.gate != nil {
		p.gate.Enter(p, Access{Obj: obj, Kind: kind, Proc: p.id})
	}
}

// account charges one access of the given kind to the process's counters
// and mirrors it into the instrumentation sink when one is installed.
func (p *Proc) account(kind OpKind) {
	p.steps.Add(1)
	if kind.IsRMW() {
		p.rmws.Add(1)
	}
	if int(kind) < len(p.kinds) {
		p.kinds[kind].Add(1)
	}
	if p.instr != nil {
		p.instr.Access(p.id, kind)
	}
}

// rmwFail reports a lost RMW race to the instrumentation sink. Primitives
// call it on their losing branch, after the access itself was accounted.
// Nil receivers (uninstrumented detached driving) are allowed.
func (p *Proc) rmwFail(kind OpKind) {
	if p == nil || p.instr == nil {
		return
	}
	p.instr.RMWFail(p.id, kind)
}

// SetPos records the process's current schedule position (the number of
// scheduler decisions made once this process's step was granted).
// Scheduler use only; EventStamp folds it into logical timestamps.
func (p *Proc) SetPos(v int) { p.pos = int32(v) }

// globalStampClock serializes EventStamp for detached processes.
var globalStampClock atomic.Int64

// EventStamp returns a logical timestamp for an observation the process
// makes between shared-memory steps (trace events, lock-hold intervals).
// Stamps are strictly increasing per process, and stamps taken by
// different processes order consistently with the schedule positions at
// which they were taken — a function of the schedule alone, so re-executing
// a schedule regenerates the same stamps, unlike a shared wall-order
// counter. Ungated processes (wall-clock benchmarks) fall back to a shared
// atomic clock. All stamps are nonzero.
func (p *Proc) EventStamp() int64 {
	if p.gate == nil {
		if p.env != nil {
			return p.env.stampClock.Add(1)
		}
		return globalStampClock.Add(1)
	}
	p.stampSeq++
	return (int64(p.pos)+1)<<32 | int64(p.id&0xff)<<24 | int64(p.stampSeq&0xffffff)
}

// NewDetachedProc creates a process handle that is not part of any Env.
// Useful for examples and single-threaded harness code.
func NewDetachedProc(id int) *Proc { return &Proc{id: id} }
