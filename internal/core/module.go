package core

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Outcome of a module invocation.
type Outcome uint8

// Committed and Aborted module indications.
const (
	Committed Outcome = iota
	Aborted
)

// String returns the indication name.
func (o Outcome) String() string {
	if o == Committed {
		return "committed"
	}
	return "aborted"
}

// Module is one safely composable module (Section 3's modules): it can be
// initialized with a switch value inherited from the previous module's
// abort, and either commits a response or aborts with a switch value for
// the next module. A nil sv means the module is entered fresh (⊥).
type Module interface {
	// Name labels the module in traces ("A1", "A2", ...).
	Name() string
	// Invoke runs request m on behalf of p with inherited switch value sv.
	Invoke(p *memory.Proc, m spec.Request, sv SwitchValue) (Outcome, int64, SwitchValue)
}

// Composition chains modules: a process starts in the first module and, on
// each abort, re-invokes its request on the next module initialized with
// the abort's switch value. Theorem 2 guarantees the chain of safely
// composable modules is itself safely composable, and Theorem 3 that the
// committed projection is linearizable.
//
// An optional per-module recorder set captures the per-module traces
// (invoke/init + commit/abort with switch values) that CheckDefinition2
// consumes.
type Composition struct {
	modules []Module
	recs    []*trace.Recorder
}

// NewComposition chains the given modules in order.
func NewComposition(modules ...Module) *Composition {
	if len(modules) == 0 {
		panic("core: empty composition")
	}
	return &Composition{modules: modules}
}

// WithRecorders attaches one recorder per module (pass nil entries to skip
// individual modules) and returns the composition for chaining.
func (c *Composition) WithRecorders(recs ...*trace.Recorder) *Composition {
	if len(recs) != len(c.modules) {
		panic(fmt.Sprintf("core: %d recorders for %d modules", len(recs), len(c.modules)))
	}
	c.recs = recs
	return c
}

// Invoke runs m through the chain. It returns the final outcome (Aborted
// only if the last module aborted), the committed response, the final
// switch value on abort, and the index of the module that produced the
// final answer.
func (c *Composition) Invoke(p *memory.Proc, m spec.Request) (Outcome, int64, SwitchValue, int) {
	var sv SwitchValue
	for k, mod := range c.modules {
		var rec *trace.Recorder
		if c.recs != nil {
			rec = c.recs[k]
		}
		if rec != nil {
			if k == 0 {
				rec.RecordInvoke(p.ID(), m)
			} else {
				rec.RecordInit(p.ID(), m, sv)
			}
		}
		out, resp, next := mod.Invoke(p, m, sv)
		if out == Committed {
			if rec != nil {
				rec.RecordCommit(p.ID(), m, resp, mod.Name())
			}
			return Committed, resp, nil, k
		}
		if rec != nil {
			rec.RecordAbort(p.ID(), m, next, mod.Name())
		}
		sv = next
	}
	return Aborted, 0, sv, len(c.modules) - 1
}

// ResetState implements memory.Resettable by resetting every module in
// order. Every module must be resettable: a composition over one that is
// not fails loudly rather than resetting partially.
func (c *Composition) ResetState() {
	for _, mod := range c.modules {
		r, ok := mod.(memory.Resettable)
		if !ok {
			panic("core: Composition.ResetState over a non-resettable module " + mod.Name())
		}
		r.ResetState()
	}
}

// HashState implements memory.Fingerprinter by hashing the modules in chain
// order; it reports false if any module cannot fingerprint its state.
func (c *Composition) HashState(h *memory.StateHash) bool {
	for _, mod := range c.modules {
		f, ok := mod.(memory.Fingerprinter)
		if !ok || !f.HashState(h) {
			return false
		}
	}
	return true
}
