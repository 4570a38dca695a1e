package memory

import "sync/atomic"

// IntReg is a multi-writer multi-reader atomic register holding an int64.
// The paper's algorithms use registers holding process ids (with -1 encoding
// the initial value ⊥), object values, and counters read as registers.
type IntReg struct {
	v    atomic.Int64
	init int64
	oid  objID
}

// NewIntReg returns a register initialized to init.
func NewIntReg(init int64) *IntReg {
	r := &IntReg{init: init}
	r.v.Store(init)
	return r
}

// ResetState implements Resettable: the register reverts to its initial
// value (zero for zero-value registers).
func (r *IntReg) ResetState() { r.v.Store(r.init) }

// HashState implements Fingerprinter.
func (r *IntReg) HashState(h *StateHash) bool {
	h.Add(uint64(r.v.Load()))
	return true
}

// Read atomically reads the register, charging one step to p.
func (r *IntReg) Read(p *Proc) int64 {
	p.enter(OpRead, &r.oid)
	return r.v.Load()
}

// Write atomically writes v, charging one step to p.
func (r *IntReg) Write(p *Proc, v int64) {
	p.enter(OpWrite, &r.oid)
	r.v.Store(v)
}

// BoolReg is an atomic boolean register (initially false unless constructed
// otherwise).
type BoolReg struct {
	v    atomic.Bool
	init bool
	oid  objID
}

// NewBoolReg returns a register initialized to init.
func NewBoolReg(init bool) *BoolReg {
	r := &BoolReg{init: init}
	r.v.Store(init)
	return r
}

// ResetState implements Resettable.
func (r *BoolReg) ResetState() { r.v.Store(r.init) }

// HashState implements Fingerprinter.
func (r *BoolReg) HashState(h *StateHash) bool {
	var w uint64
	if r.v.Load() {
		w = 1
	}
	h.Add(w)
	return true
}

// Read atomically reads the register, charging one step to p.
func (r *BoolReg) Read(p *Proc) bool {
	p.enter(OpRead, &r.oid)
	return r.v.Load()
}

// Write atomically writes v, charging one step to p.
func (r *BoolReg) Write(p *Proc, v bool) {
	p.enter(OpWrite, &r.oid)
	r.v.Store(v)
}

// Reg is a multi-writer multi-reader atomic register holding a *T, with nil
// encoding the initial value ⊥. It is used for registers whose contents are
// structured values: consensus proposals, (timestamp, value) pairs in the
// AbortableBakery arrays, and snapshot components.
//
// Writers must treat written values as immutable after the Write: the
// register stores the pointer, so mutating the pointee would break
// register-like semantics.
type Reg[T any] struct {
	v    atomic.Pointer[T]
	init *T
	oid  objID
}

// NewReg returns a register initialized to init (nil means ⊥).
func NewReg[T any](init *T) *Reg[T] {
	r := &Reg[T]{init: init}
	r.v.Store(init)
	return r
}

// ResetState implements Resettable.
func (r *Reg[T]) ResetState() { r.v.Store(r.init) }

// HashState implements Fingerprinter: pointer-valued contents cannot be
// hashed faithfully (two distinct pointers may or may not denote equal
// values), so the register reports itself unfingerprintable.
func (r *Reg[T]) HashState(*StateHash) bool { return false }

// Read atomically reads the register, charging one step to p. A nil result
// is the initial value ⊥.
func (r *Reg[T]) Read(p *Proc) *T {
	p.enter(OpRead, &r.oid)
	return r.v.Load()
}

// Write atomically writes v (nil resets to ⊥), charging one step to p.
func (r *Reg[T]) Write(p *Proc, v *T) {
	p.enter(OpWrite, &r.oid)
	r.v.Store(v)
}

// RegArray is a fixed-size array of IntReg, a convenience for the collect
// arrays (A_i), (B_i) of the AbortableBakery algorithm and similar
// per-process register rows.
type RegArray struct {
	regs []IntReg
}

// NewRegArray returns an array of n registers, each initialized to init.
func NewRegArray(n int, init int64) *RegArray {
	a := &RegArray{regs: make([]IntReg, n)}
	for i := range a.regs {
		a.regs[i].init = init
		a.regs[i].v.Store(init)
	}
	return a
}

// ResetState implements Resettable.
func (a *RegArray) ResetState() {
	for i := range a.regs {
		a.regs[i].ResetState()
	}
}

// HashState implements Fingerprinter.
func (a *RegArray) HashState(h *StateHash) bool {
	for i := range a.regs {
		a.regs[i].HashState(h)
	}
	return true
}

// Len returns the number of registers in the array.
func (a *RegArray) Len() int { return len(a.regs) }

// Read reads register i, charging one step to p.
func (a *RegArray) Read(p *Proc, i int) int64 { return a.regs[i].Read(p) }

// Write writes register i, charging one step to p.
func (a *RegArray) Write(p *Proc, i int, v int64) { a.regs[i].Write(p, v) }

// Collect reads all registers in index order, charging one step per
// register (a collect is n reads, the unit the AbortableBakery complexity
// analysis counts).
func (a *RegArray) Collect(p *Proc) []int64 {
	out := make([]int64, len(a.regs))
	for i := range a.regs {
		out[i] = a.regs[i].Read(p)
	}
	return out
}
