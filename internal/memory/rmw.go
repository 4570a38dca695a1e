package memory

import "sync/atomic"

// CASReg is an int64 register additionally exporting compare-and-swap.
// CAS has consensus number ∞ (Herlihy [14]); the paper's generic universal
// construction reverts to it under contention, while the speculative TAS
// deliberately avoids it (Section 1: "only uses objects with consensus
// number at most two").
type CASReg struct {
	v    atomic.Int64
	init int64
	oid  objID
}

// NewCASReg returns a CAS register initialized to init.
func NewCASReg(init int64) *CASReg {
	r := &CASReg{init: init}
	r.v.Store(init)
	return r
}

// ResetState implements Resettable.
func (r *CASReg) ResetState() { r.v.Store(r.init) }

// HashState implements Fingerprinter.
func (r *CASReg) HashState(h *StateHash) bool {
	h.Add(uint64(r.v.Load()))
	return true
}

// Read atomically reads the register, charging one step to p.
func (r *CASReg) Read(p *Proc) int64 {
	p.enter(OpRead, &r.oid)
	return r.v.Load()
}

// Write atomically writes v, charging one step to p.
func (r *CASReg) Write(p *Proc, v int64) {
	p.enter(OpWrite, &r.oid)
	r.v.Store(v)
}

// CompareAndSwap atomically replaces old with new if the register holds old,
// charging one step and one RMW to p. It reports whether the swap happened.
func (r *CASReg) CompareAndSwap(p *Proc, old, new int64) bool {
	p.enter(OpCAS, &r.oid)
	ok := r.v.CompareAndSwap(old, new)
	if !ok {
		p.rmwFail(OpCAS)
	}
	return ok
}

// CASCell is a write-once cell for structured values decided by
// compare-and-swap: the first successful PutIfEmpty wins and every later
// Read observes the winning value. It backs the wait-free consensus stage.
type CASCell[T any] struct {
	v   atomic.Pointer[T]
	oid objID
}

// NewCASCell returns an empty cell (⊥).
func NewCASCell[T any]() *CASCell[T] { return &CASCell[T]{} }

// ResetState implements Resettable: the cell reverts to empty.
func (c *CASCell[T]) ResetState() { c.v.Store(nil) }

// HashState implements Fingerprinter: pointer-valued contents are not
// faithfully hashable, so the cell reports itself unfingerprintable.
func (c *CASCell[T]) HashState(*StateHash) bool { return false }

// Read atomically reads the cell, charging one step to p. Nil means the
// cell is still empty.
func (c *CASCell[T]) Read(p *Proc) *T {
	p.enter(OpRead, &c.oid)
	return c.v.Load()
}

// PutIfEmpty installs v if the cell is empty, charging one step and one RMW
// to p. It returns the cell's value after the operation (v itself if the
// put won, the earlier winner otherwise) and whether the put won.
func (c *CASCell[T]) PutIfEmpty(p *Proc, v *T) (*T, bool) {
	p.enter(OpCAS, &c.oid)
	if c.v.CompareAndSwap(nil, v) {
		return v, true
	}
	p.rmwFail(OpCAS)
	return c.v.Load(), false
}

// HardwareTAS is the hardware test-and-set object of Section 6.2: initially
// 0; TestAndSet atomically reads the value and sets it to 1. Its consensus
// number is 2, which is exactly why the paper's composed TAS stays within
// consensus power two. Reset reverts the object to 0 (used only by
// baselines; the paper's long-lived construction instead advances to a
// fresh instance).
type HardwareTAS struct {
	v   atomic.Int32
	oid objID
}

// NewHardwareTAS returns a hardware test-and-set object in state 0.
func NewHardwareTAS() *HardwareTAS { return &HardwareTAS{} }

// ResetState implements Resettable (equivalent to an unaccounted Reset).
func (t *HardwareTAS) ResetState() { t.v.Store(0) }

// HashState implements Fingerprinter.
func (t *HardwareTAS) HashState(h *StateHash) bool {
	h.Add(uint64(t.v.Load()))
	return true
}

// TestAndSet atomically swaps 1 into the object and returns the previous
// value (0 for the unique winner, 1 for losers), charging one step and one
// RMW to p.
func (t *HardwareTAS) TestAndSet(p *Proc) int {
	p.enter(OpTAS, &t.oid)
	v := t.v.Swap(1)
	if v != 0 {
		p.rmwFail(OpTAS)
	}
	return int(v)
}

// Read atomically reads the current value, charging one step to p.
func (t *HardwareTAS) Read(p *Proc) int {
	p.enter(OpRead, &t.oid)
	return int(t.v.Load())
}

// Reset reverts the object to 0, charging one step to p.
func (t *HardwareTAS) Reset(p *Proc) {
	p.enter(OpWrite, &t.oid)
	t.v.Store(0)
}

// FetchInc is an atomic fetch-and-increment counter (consensus number 2),
// the paper's counter C used to assign timestamps to requests in the
// universal construction and the Count register of Algorithm 2.
type FetchInc struct {
	v    atomic.Int64
	init int64
	oid  objID
}

// NewFetchInc returns a counter initialized to init.
func NewFetchInc(init int64) *FetchInc {
	c := &FetchInc{init: init}
	c.v.Store(init)
	return c
}

// ResetState implements Resettable.
func (c *FetchInc) ResetState() { c.v.Store(c.init) }

// HashState implements Fingerprinter.
func (c *FetchInc) HashState(h *StateHash) bool {
	h.Add(uint64(c.v.Load()))
	return true
}

// Read atomically reads the counter, charging one step to p.
func (c *FetchInc) Read(p *Proc) int64 {
	p.enter(OpRead, &c.oid)
	return c.v.Load()
}

// Inc atomically increments the counter and returns the new value, charging
// one step and one RMW to p.
func (c *FetchInc) Inc(p *Proc) int64 {
	p.enter(OpFetchInc, &c.oid)
	return c.v.Add(1)
}

// Write atomically stores v, charging one step to p. Algorithm 2's reset
// uses a read followed by a write (Count ← Count.read()+1), which is safe
// there because only the unique current winner resets; Write supports that
// faithful transcription.
func (c *FetchInc) Write(p *Proc, v int64) {
	p.enter(OpWrite, &c.oid)
	c.v.Store(v)
}
