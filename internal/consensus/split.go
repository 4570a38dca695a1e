package consensus

import (
	"repro/internal/memory"
	"repro/internal/splitter"
)

// SplitConsensus is the contention-free abortable consensus of Appendix A
// (Algorithm 3), an abortable variant of the uncontended-consensus of
// Luchangco, Moir and Shavit [18]. It commits in O(1) steps in the absence
// of interval contention and uses only registers and a splitter.
//
// Shared state: a resettable splitter S, the tentative-decision register V
// (initially ⊥) and the contention flag C (initially false).
type SplitConsensus struct {
	split *splitter.Splitter
	v     *memory.IntReg
	c     *memory.BoolReg
}

// NewSplitConsensus returns a fresh instance.
func NewSplitConsensus() *SplitConsensus {
	return &SplitConsensus{
		split: splitter.New(),
		v:     memory.NewIntReg(Bottom),
		c:     memory.NewBoolReg(false),
	}
}

// Name implements Abortable.
func (s *SplitConsensus) Name() string { return "split-consensus" }

// propose is the body of Algorithm 3's propose procedure. A process that
// acquires the splitter and sees no contention installs and commits its
// value (resetting the splitter for future solo runs); every contention
// path raises the flag C and aborts with the current tentative value.
func (s *SplitConsensus) propose(p *memory.Proc, v int64) (Outcome, int64) {
	if s.split.Get(p) == splitter.Stop {
		if cur := s.v.Read(p); cur != Bottom {
			if !s.c.Read(p) {
				return Commit, cur
			}
			return Abort, cur
		}
		s.v.Write(p, v)
		if !s.c.Read(p) {
			s.split.Reset(p)
			return Commit, v
		}
		// Contention was detected while holding the splitter: fall through
		// to the abort path (C ← true is a no-op here but keeps the code a
		// line-for-line transcription of lines 15–17).
	}
	s.c.Write(p, true)
	return Abort, s.v.Read(p)
}

// Propose implements Abortable via the Algorithm 3 wrapper.
func (s *SplitConsensus) Propose(p *memory.Proc, old, v int64) (Outcome, int64) {
	return wrap(p, old, v, s.propose)
}

// Query implements Abortable: the tentative value is register V. V becomes
// sticky once non-⊥ (only a process reading V = ⊥ while holding the
// splitter writes it, and no such read can follow a non-⊥ write), so a
// query after any commit observes the committed value.
func (s *SplitConsensus) Query(p *memory.Proc) int64 {
	return s.v.Read(p)
}

// ResetState implements memory.Resettable.
func (s *SplitConsensus) ResetState() {
	s.split.ResetState()
	s.v.ResetState()
	s.c.ResetState()
}

// HashState implements memory.Fingerprinter.
func (s *SplitConsensus) HashState(h *memory.StateHash) bool {
	s.split.HashState(h)
	s.v.HashState(h)
	s.c.HashState(h)
	return true
}
