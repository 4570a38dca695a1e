package abstract

import (
	"fmt"
	"sort"

	"repro/internal/consensus"
	"repro/internal/memory"
	"repro/internal/snapshot"
	"repro/internal/spec"
)

// Outcome is the indication returned by a Stage or Object invocation.
type Outcome uint8

// Commit and Abort indications (Definition 1).
const (
	Commit Outcome = iota
	Abort
)

// String returns the indication name.
func (o Outcome) String() string {
	if o == Commit {
		return "commit"
	}
	return "abort"
}

// Registry is the shared write-once map from request ids to requests.
// Consensus instances decide request *ids*; every id is published here
// before it is proposed, so any process learning a decision can recover the
// request. The registry is shared by every stage of a composed object.
type Registry struct {
	arr *memory.GrowArray[spec.Request]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{arr: memory.NewGrowArray[spec.Request](func(i int) *spec.Request {
		panic("abstract: registry slot read before publish")
	})}
}

// Publish maps m.ID to m (write-once; the first publisher wins, and all
// publishers of the same id publish identical requests).
func (r *Registry) Publish(p *memory.Proc, m spec.Request) {
	req := m
	r.arr.GetOrPut(p, int(m.ID), &req)
}

// ResetState implements memory.Resettable: every published request is
// forgotten.
func (r *Registry) ResetState() { r.arr.ResetState() }

// Lookup returns the request with the given id; it panics if the id was
// never published (a decided id is always published before being proposed).
func (r *Registry) Lookup(p *memory.Proc, id int64) spec.Request {
	req := r.arr.Peek(p, int(id))
	if req == nil {
		panic(fmt.Sprintf("abstract: decided id %d not in registry", id))
	}
	return *req
}

// Stage is one Abstract instance (Definition 1): a replicated state machine
// over the sequential type typ, ordered by a vector of abortable consensus
// instances, that guarantees progress exactly when its consensus guarantees
// progress (Lemma 1) and otherwise aborts with a recoverable history.
//
// Shared state (Section 4.2): the consensus vector Cons, the Aborted
// register, the snapshot object Reqs of announced request ids, and the
// counter C bounding the abort-history length.
type Stage struct {
	name    string
	typ     spec.Type
	reg     *Registry
	cons    *memory.GrowArray[slotCell]
	aborted *memory.BoolReg
	reqs    *snapshot.Snapshot[[]int64]
	c       *memory.FetchInc
	local   []*stageLocal
}

type slotCell struct {
	inst consensus.Abortable
}

// stageLocal is process-private bookkeeping: the performed prefix (lPerf),
// the announced requests (lProp), and the object copy.
type stageLocal struct {
	perf      []int64
	decided   map[int64]bool
	resp      map[int64]int64
	slot      int // next 1-based consensus slot
	announced []int64
	state     spec.State
}

// NewStage builds an Abstract instance for n processes over typ, using
// mkCons to create the abortable consensus instance of each slot and
// sharing the given registry.
func NewStage(name string, typ spec.Type, n int, reg *Registry, mkCons func(slot int) consensus.Abortable) *Stage {
	s := &Stage{
		name:    name,
		typ:     typ,
		reg:     reg,
		aborted: memory.NewBoolReg(false),
		reqs:    snapshot.New[[]int64](n, nil),
		c:       memory.NewFetchInc(0),
		local:   make([]*stageLocal, n),
	}
	s.cons = memory.NewGrowArray[slotCell](func(i int) *slotCell {
		return &slotCell{inst: mkCons(i)}
	})
	for i := range s.local {
		s.local[i] = newStageLocal(typ)
	}
	return s
}

func newStageLocal(typ spec.Type) *stageLocal {
	return &stageLocal{
		decided: map[int64]bool{},
		resp:    map[int64]int64{},
		slot:    1,
		state:   typ.Start(),
	}
}

// ResetState implements memory.Resettable: the stage's shared state reverts
// to construction — consensus slots are discarded, to be re-created by
// mkCons on their next access, so mkCons must be deterministic — and every
// process's private bookkeeping starts over. The registry is shared between
// stages and is reset by whoever owns it (Object.ResetState).
func (s *Stage) ResetState() {
	s.cons.ResetState()
	s.aborted.ResetState()
	s.reqs.ResetState()
	s.c.ResetState()
	for i := range s.local {
		s.local[i] = newStageLocal(s.typ)
	}
}

// Name returns the stage label.
func (s *Stage) Name() string { return s.name }

// Invoke issues request m with initial history init (nil when the stage is
// entered fresh). It returns Commit with m's response and the commit
// history, or Abort with the abort history, per Definition 1. The caller
// must be process p and must not have a concurrent invocation in flight.
func (s *Stage) Invoke(p *memory.Proc, m spec.Request, init spec.History) (Outcome, int64, spec.History) {
	st := s.local[p.ID()]

	// Publish and announce the request so helpers can propose it. Own
	// requests that are already decided are pruned from the announcement —
	// helpers no longer need them, and re-decisions are inert anyway — so
	// the snapshot component stays proportional to pending work.
	s.reg.Publish(p, m)
	pruned := make([]int64, 0, len(st.announced)+1)
	for _, id := range st.announced {
		if !st.decided[id] {
			pruned = append(pruned, id)
		}
	}
	st.announced = append(pruned, m.ID)
	s.reqs.Update(p, p.ID(), st.announced)

	for {
		// Reserve visibility of this slot in the counter *before* the abort
		// check: any process that later reads Aborted = true reads C after
		// this increment, so its abort history covers every slot a commit
		// can depend on.
		s.c.Inc(p)
		if s.aborted.Read(p) {
			return s.abortReturn(p, st, m)
		}
		inst := s.cons.Get(p, st.slot).inst
		prop := s.chooseProposal(p, st, m, init)
		out, id := inst.Propose(p, consensus.Bottom, prop)
		if out == consensus.Abort {
			s.aborted.Write(p, true)
			return s.abortReturn(p, st, m)
		}
		s.applyDecision(p, st, id)
		st.slot++
		if st.decided[m.ID] {
			// Algorithm 1's pattern: re-check the abort flag before
			// returning a commit, so no commit is concurrent with an
			// already-computed abort history that misses it.
			if s.aborted.Read(p) {
				return s.abortReturn(p, st, m)
			}
			return Commit, st.resp[m.ID], s.histories(p, st.perf)
		}
	}
}

// chooseProposal picks the id to propose at st.slot: during initialization
// the requests of the init history, in order; afterwards the smallest
// pending announced id (helping guarantees every announced request is
// eventually decided when consensus is wait-free).
func (s *Stage) chooseProposal(p *memory.Proc, st *stageLocal, m spec.Request, init spec.History) int64 {
	if st.slot <= len(init) {
		r := init[st.slot-1]
		s.reg.Publish(p, r) // the learner may not know this request yet
		return r.ID
	}
	views := s.reqs.Scan(p)
	best := int64(-1)
	for _, ids := range views {
		for _, id := range ids {
			if !st.decided[id] && (best < 0 || id < best) {
				best = id
			}
		}
	}
	if best < 0 {
		// Our own m is announced and undecided, so this cannot happen.
		panic("abstract: no pending request to propose")
	}
	return best
}

// applyDecision folds a decided id into the local copy (first occurrence
// only; re-decisions of an already-performed id leave the slot inert).
func (s *Stage) applyDecision(p *memory.Proc, st *stageLocal, id int64) {
	if id == consensus.Bottom || st.decided[id] {
		return
	}
	req := s.reg.Lookup(p, id)
	st.decided[id] = true
	st.perf = append(st.perf, id)
	st.state, st.resp[id] = st.state.Apply(req)
}

// abortReturn sets the Aborted flag, computes the abort history from the
// decisions of slots 1..C (querying instances it did not participate in),
// appends the process's own unperformed request, and returns it.
func (s *Stage) abortReturn(p *memory.Proc, st *stageLocal, m spec.Request) (Outcome, int64, spec.History) {
	s.aborted.Write(p, true)
	count := int(s.c.Read(p))
	if max := s.cons.Cap(); count > max {
		count = max
	}
	var ids []int64
	seen := map[int64]bool{}
	for l := 1; l <= count; l++ {
		cell := s.cons.Peek(p, l)
		if cell == nil {
			continue // slot never touched: vacant
		}
		id := cell.inst.Query(p)
		if id == consensus.Bottom || seen[id] {
			continue
		}
		seen[id] = true
		ids = append(ids, id)
	}
	if !seen[m.ID] {
		ids = append(ids, m.ID) // Termination: the abort history contains m
	}
	return Abort, 0, s.histories(p, ids)
}

// histories materializes a history from decided ids via the registry.
func (s *Stage) histories(p *memory.Proc, ids []int64) spec.History {
	h := make(spec.History, len(ids))
	for i, id := range ids {
		h[i] = s.reg.Lookup(p, id)
	}
	return h
}

// StepsPerformed reports how many slots process p has locally performed,
// for diagnostics.
func (s *Stage) StepsPerformed(p *memory.Proc) int { return len(s.local[p.ID()].perf) }

// Object is the composition of Abstract stages in increasing order of
// progress-condition strength (Theorem 1): when stage k aborts with history
// h, the process re-invokes its request on stage k+1 with init history h.
// With a wait-free final stage the composition never aborts and implements
// typ wait-free (Proposition 1: registers only in uncontended executions,
// CAS otherwise).
type Object struct {
	typ    spec.Type
	reg    *Registry
	stages []*Stage
	local  []*objLocal
}

type objLocal struct {
	cur  int
	init spec.History
}

// StageSpec names a consensus factory for one stage of a composed object.
type StageSpec struct {
	Name   string
	MkCons func(slot int) consensus.Abortable
}

// NewObject builds a composed object for n processes over typ from the
// given stage specifications (applied in order). All stages share one
// request registry.
func NewObject(typ spec.Type, n int, specs ...StageSpec) *Object {
	if len(specs) == 0 {
		panic("abstract: object needs at least one stage")
	}
	o := &Object{typ: typ, reg: NewRegistry(), local: make([]*objLocal, n)}
	for _, sp := range specs {
		o.stages = append(o.stages, NewStage(sp.Name, typ, n, o.reg, sp.MkCons))
	}
	for i := range o.local {
		o.local[i] = &objLocal{}
	}
	return o
}

// ResetState implements memory.Resettable: the registry, every stage and
// every process's stage binding revert to construction, so a harness that
// registers the object with its Env can re-run it instead of rebuilding it.
func (o *Object) ResetState() {
	o.reg.ResetState()
	for _, s := range o.stages {
		s.ResetState()
	}
	for i := range o.local {
		o.local[i] = &objLocal{}
	}
}

// Stages returns the composed stages, in order.
func (o *Object) Stages() []*Stage { return o.stages }

// Invoke issues m on behalf of p, walking stages forward on aborts. It
// returns the final outcome (Abort only if the last stage aborted), m's
// response on commit, the commit/abort history, and the index of the stage
// that produced the response.
func (o *Object) Invoke(p *memory.Proc, m spec.Request) (Outcome, int64, spec.History, int) {
	st := o.local[p.ID()]
	for {
		stage := o.stages[st.cur]
		out, resp, h := stage.Invoke(p, m, st.init)
		if out == Commit {
			return Commit, resp, h, st.cur
		}
		if st.cur == len(o.stages)-1 {
			return Abort, 0, h, st.cur
		}
		st.cur++
		st.init = h
	}
}

// CurrentStage reports which stage process p is currently bound to.
func (o *Object) CurrentStage(p *memory.Proc) int { return o.local[p.ID()].cur }

// DecideFirstWins implements Proposition 2's reduction: any wait-free
// Abstract of a non-trivial sequential type solves wait-free consensus.
// Process p invokes m (carrying its proposal in m.Arg) on the Abstract and
// decides the Arg of the first committed request in its commit history.
func DecideFirstWins(o *Object, p *memory.Proc, m spec.Request) (int64, error) {
	out, _, h, _ := o.Invoke(p, m)
	if out != Commit {
		return 0, fmt.Errorf("abstract: wait-free object aborted")
	}
	if len(h) == 0 {
		return 0, fmt.Errorf("abstract: empty commit history")
	}
	return h[0].Arg, nil
}

// SortIDs returns the ids of a history in ascending order (test helper for
// set comparisons).
func SortIDs(h spec.History) []int64 {
	ids := h.IDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
