package memory

import "sync/atomic"

// GrowArray is the unbounded shared array the paper assumes for the
// consensus vector Cons[...] of the universal construction and the TAS[...]
// array of Algorithm 2. Slots are created on first access by a user-supplied
// factory and published with a single compare-and-swap, so all processes
// agree on the slot object; losing initializers simply adopt the winner.
//
// The array is segmented: a fixed directory of lazily allocated chunks.
// Capacity is bounded by dirSize*chunkSize (2^22 slots), which substitutes
// for the paper's truly unbounded array; DESIGN.md records the substitution.
// Slot lookup charges one read step; a slot-creating access additionally
// charges one RMW (the publishing CAS).
type GrowArray[T any] struct {
	mk   func(i int) *T
	base atomic.Uint64 // first of Cap() reserved slot identities
	// hi is a high-water mark over installed chunk indices, so a reset
	// touches only the live prefix of the directory instead of all dirSize
	// entries. It only grows (a stale-high value merely widens the scan).
	hi  atomic.Int32
	dir [dirSize]atomic.Pointer[chunk[T]]
}

const (
	chunkSize = 1 << 10
	dirSize   = 1 << 12
)

type chunk[T any] struct {
	slots [chunkSize]atomic.Pointer[T]
}

// NewGrowArray returns an unbounded array whose slot i is created by mk(i)
// on first access.
func NewGrowArray[T any](mk func(i int) *T) *GrowArray[T] {
	return &GrowArray[T]{mk: mk}
}

// Cap returns the maximum number of addressable slots.
func (a *GrowArray[T]) Cap() int { return dirSize * chunkSize }

// ResetState implements Resettable by discarding every created slot, so the
// next access re-creates it through mk — exactly the state of a freshly
// constructed array. The factory must therefore be deterministic and must
// not capture per-execution state for resets to reproduce construction.
// Slot identities (the reserved id block) are retained.
func (a *GrowArray[T]) ResetState() {
	for i := 0; i <= int(a.hi.Load()) && i < dirSize; i++ {
		a.dir[i].Store(nil)
	}
}

// raiseHi records that chunk ci is installed.
func (a *GrowArray[T]) raiseHi(ci int) {
	for {
		h := a.hi.Load()
		if int32(ci) <= h || a.hi.CompareAndSwap(h, int32(ci)) {
			return
		}
	}
}

// HashState implements Fingerprinter: slot contents are arbitrary values
// created at schedule-dependent times, so the array reports itself
// unfingerprintable.
func (a *GrowArray[T]) HashState(*StateHash) bool { return false }

// slotObj returns the scheduling identity of slot i. Each array lazily
// reserves a contiguous block of Cap() identities from the global counter,
// so accesses to disjoint slots are independent for the exploration engine
// (per-slot granularity, like RegArray's per-element registers). Lookups
// that install a chunk are still labelled with the slot they serve: which
// process's (empty, content-identical) chunk object wins the install race
// is unobservable to algorithms, so reordering such lookups is
// behaviour-preserving.
func (a *GrowArray[T]) slotObj(i int) uint64 {
	b := a.base.Load()
	if b == 0 {
		n := objIDCounter.Add(uint64(a.Cap())) - uint64(a.Cap()) + 1
		if a.base.CompareAndSwap(0, n) {
			b = n
		} else {
			b = a.base.Load()
		}
	}
	return b + uint64(i)
}

// Get returns slot i, creating it if necessary. It charges one read step,
// plus one CAS if this call had to publish the slot.
func (a *GrowArray[T]) Get(p *Proc, i int) *T {
	slot := a.lookup(p, i)
	if s := slot.Load(); s != nil {
		return s
	}
	return a.publish(p, i, slot, a.mk(i))
}

// lookup is the gated read step Get and GetOrPut share: it returns slot i's
// cell, installing its chunk if absent.
func (a *GrowArray[T]) lookup(p *Proc, i int) *atomic.Pointer[T] {
	if i < 0 || i >= a.Cap() {
		panic("memory: GrowArray index out of range")
	}
	p.enterObj(OpRead, a.slotObj(i))
	ci := i / chunkSize
	c := a.dir[ci].Load()
	if c == nil {
		fresh := &chunk[T]{}
		if a.dir[ci].CompareAndSwap(nil, fresh) {
			c = fresh
		} else {
			c = a.dir[ci].Load()
		}
		a.raiseHi(ci)
	}
	return &c.slots[i%chunkSize]
}

// publish installs v in the empty slot a lookup found (the second,
// slot-creating gated step), adopting a concurrent winner on CAS failure.
func (a *GrowArray[T]) publish(p *Proc, i int, slot *atomic.Pointer[T], v *T) *T {
	p.enterObj(OpCAS, a.slotObj(i))
	if slot.CompareAndSwap(nil, v) {
		return v
	}
	p.rmwFail(OpCAS)
	return slot.Load()
}

// GetOrPut returns slot i, publishing v as its value if the slot is still
// empty (one CAS). All processes agree on the slot's final value. It is the
// write-once registry primitive the universal construction uses to map
// request ids to requests before proposing them.
func (a *GrowArray[T]) GetOrPut(p *Proc, i int, v *T) *T {
	slot := a.lookup(p, i)
	if s := slot.Load(); s != nil {
		return s
	}
	return a.publish(p, i, slot, v)
}

// Peek returns slot i if it has already been created, without creating it.
// It charges one read step.
func (a *GrowArray[T]) Peek(p *Proc, i int) *T {
	if i < 0 || i >= a.Cap() {
		panic("memory: GrowArray index out of range")
	}
	p.enterObj(OpRead, a.slotObj(i))
	c := a.dir[i/chunkSize].Load()
	if c == nil {
		return nil
	}
	return c.slots[i%chunkSize].Load()
}
