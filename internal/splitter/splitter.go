// Package splitter implements the resettable splitter object used by the
// SplitConsensus algorithm (Appendix A, following Luchangco, Moir and
// Shavit [18]). A splitter is built from two registers; an access returns
// Stop, Down or Right such that (i) at most one concurrent access returns
// Stop, and (ii) a process running alone (no interval contention, splitter
// in its reset state) always returns Stop.
//
// The splitter is the paper's contention detector for the contention-free
// fast path: a non-Stop outcome is proof of interval contention.
package splitter

import "repro/internal/memory"

// Outcome is the result of acquiring a splitter.
type Outcome uint8

// The three splitter outcomes of Moir–Anderson-style splitters.
const (
	Stop Outcome = iota
	Down
	Right
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Stop:
		return "stop"
	case Down:
		return "down"
	case Right:
		return "right"
	}
	return "unknown"
}

// Splitter is a long-lived (resettable) splitter. The zero value is not
// usable; construct with New.
type Splitter struct {
	x *memory.IntReg  // last contender id
	y *memory.BoolReg // door
}

// New returns a splitter in its reset (open) state.
func New() *Splitter {
	return &Splitter{
		x: memory.NewIntReg(-1),
		y: memory.NewBoolReg(false),
	}
}

// Get acquires the splitter on behalf of p:
//
//	X ← id
//	if Y then return Right
//	Y ← true
//	if X = id then return Stop else return Down
//
// At most one process obtains Stop between consecutive resets, and a
// process running with no interval contention after a reset obtains Stop in
// exactly 4 steps.
func (s *Splitter) Get(p *memory.Proc) Outcome {
	id := int64(p.ID())
	s.x.Write(p, id)
	if s.y.Read(p) {
		return Right
	}
	s.y.Write(p, true)
	if s.x.Read(p) == id {
		return Stop
	}
	return Down
}

// Reset reopens the splitter. Per the SplitConsensus usage, only the
// process that obtained Stop and observed no contention resets, so a plain
// write suffices.
func (s *Splitter) Reset(p *memory.Proc) {
	s.y.Write(p, false)
}

// ResetState implements memory.Resettable (an unaccounted return to the
// construction state, unlike the in-protocol Reset).
func (s *Splitter) ResetState() {
	s.x.ResetState()
	s.y.ResetState()
}

// HashState implements memory.Fingerprinter.
func (s *Splitter) HashState(h *memory.StateHash) bool {
	s.x.HashState(h)
	s.y.HashState(h)
	return true
}
