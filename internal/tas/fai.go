package tas

import (
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/spec"
)

// This file carries out the paper's proposed future work ("One direction
// for future work would be to apply our framework to implementations of
// more complex objects, such as queues or fetch-and-increment registers",
// Section 7) for the fetch-and-increment register: a speculative F&I built
// from two safely composable modules in the style of Section 6.
//
// Module F1 is contention-free: a splitter-guarded read-increment-write on
// a plain register, constant step complexity, registers only. Module F2 is
// wait-free: a hardware fetch-and-increment, rebased once so that hardware
// tickets continue strictly after every speculatively committed ticket.
//
// The switch value is the aborting process's estimate of the counter — the
// value of the shared register at abort time. The same flag handshake as
// SplitConsensus orders commits before abort reads, so every abort estimate
// strictly exceeds every committed ticket; rebasing the hardware counter at
// any abort estimate therefore never reissues a ticket.

// F1 is the contention-free speculative fetch-and-increment module.
type F1 struct {
	x *memory.IntReg  // splitter: last contender
	y *memory.BoolReg // splitter: door
	v *memory.IntReg  // the counter value
	c *memory.BoolReg // contention flag; sticky
}

// NewF1 returns a fresh contention-free F&I module (counter at 0).
func NewF1() *F1 {
	return &F1{
		x: memory.NewIntReg(-1),
		y: memory.NewBoolReg(false),
		v: memory.NewIntReg(0),
		c: memory.NewBoolReg(false),
	}
}

// Name implements core.Module.
func (f *F1) Name() string { return "F1" }

// Invoke implements core.Module: one fetch-and-increment attempt. The
// switch value on abort is the current counter estimate (an int64).
func (f *F1) Invoke(p *memory.Proc, _ spec.Request, sv core.SwitchValue) (core.Outcome, int64, core.SwitchValue) {
	if _, inherited := sv.(int64); inherited {
		// A process that already switched must not come back: the counter
		// has been rebased into the hardware module. Pass the estimate on.
		return core.Aborted, 0, sv
	}
	id := int64(p.ID())
	// Splitter race (Get inlined so the contention flag can be raised on
	// the losing paths with the counter estimate read afterwards).
	f.x.Write(p, id)
	if !f.y.Read(p) {
		f.y.Write(p, true)
		if f.x.Read(p) == id {
			// Alone so far: read-increment-write, then verify quiescence.
			if !f.c.Read(p) {
				t := f.v.Read(p)
				f.v.Write(p, t+1)
				if !f.c.Read(p) {
					f.y.Write(p, false) // reset the splitter for the next solo op
					return core.Committed, t, nil
				}
			}
		}
	}
	// Contention: raise the flag, abort with the estimate. The estimate is
	// read after the flag write, so it covers every committed ticket.
	f.c.Write(p, true)
	return core.Aborted, 0, f.v.Read(p)
}

// F2 is the wait-free hardware fetch-and-increment module, rebased by the
// first arrival's estimate.
type F2 struct {
	base *memory.CASCell[int64]
	hw   *memory.FetchInc
}

// NewF2 returns a fresh wait-free F&I module.
func NewF2() *F2 {
	return &F2{base: memory.NewCASCell[int64](), hw: memory.NewFetchInc(0)}
}

// Name implements core.Module.
func (f *F2) Name() string { return "F2" }

// Invoke implements core.Module. The first process to arrive installs its
// estimate as the base; every ticket is base + (hardware ticket).
func (f *F2) Invoke(p *memory.Proc, _ spec.Request, sv core.SwitchValue) (core.Outcome, int64, core.SwitchValue) {
	est, ok := sv.(int64)
	if !ok {
		est = 0
	}
	b, _ := f.base.PutIfEmpty(p, &est)
	k := f.hw.Inc(p) - 1
	return core.Committed, *b + k, nil
}

// SpecFetchInc is the composed speculative object: F1 backed by F2. It is
// a wait-free *unique-ticket dispenser*: tickets are globally unique,
// strictly increasing per process, contiguous (0,1,2,...) in uncontended
// executions, and may skip values only at the module switch.
//
// The gap is not an accident but a measured cost of composing F&I with
// little transferred state: an operation that incremented the register and
// then detected contention cannot commit its ticket (a concurrent aborter
// may have read the pre-increment value as its estimate and will rebase the
// hardware module there — the late abort mirrors A1's lines 15–17), so its
// increment is burned. Recovering gap-free fetch-and-increment would
// require the modules to agree on the last committed ticket, i.e. transfer
// consensus-strength state — precisely the trade-off the paper's framework
// is designed to expose (Sections 5 and 7). The exhaustive tests check
// uniqueness, per-process monotonicity, the no-reissue property across the
// switch, and gap-freedom of solo executions.
//
// Like OneShot it is a core.Composition. F2's base cell holds a pointer, so
// the composition reports its state unfingerprintable.
type SpecFetchInc struct{ *core.Composition }

// NewSpecFetchInc returns a fresh speculative fetch-and-increment.
func NewSpecFetchInc() *SpecFetchInc {
	return &SpecFetchInc{core.NewComposition(NewF1(), NewF2())}
}

// Inc returns a fresh ticket, and reports which module served it
// (0 = registers, 1 = hardware).
func (s *SpecFetchInc) Inc(p *memory.Proc) (int64, int) {
	_, t, _, k := s.Invoke(p, spec.Request{})
	return t, k
}

// ResetState implements memory.Resettable.
func (f *F1) ResetState() {
	f.x.ResetState()
	f.y.ResetState()
	f.v.ResetState()
	f.c.ResetState()
}

// HashState implements memory.Fingerprinter.
func (f *F1) HashState(h *memory.StateHash) bool {
	f.x.HashState(h)
	f.y.HashState(h)
	f.v.HashState(h)
	f.c.HashState(h)
	return true
}

// ResetState implements memory.Resettable.
func (f *F2) ResetState() {
	f.base.ResetState()
	f.hw.ResetState()
}
