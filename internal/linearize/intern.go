package linearize

import "repro/internal/spec"

// State interning: the memoization substrate of the checkers. An interner
// maps each distinct state of one sequential type (distinct by Equal) to a
// dense integer stateID, so checker memo keys are integers rather than
// structural values, and caches every transition it is asked to take:
// State.Apply is evaluated at most once per (state, operation, argument)
// triple. Interning is only sound because State.Apply may depend on
// nothing but the request's Op and Arg (see the spec.State contract).

// stateID is a dense interned state identity: 0 is always the type's
// starting state. IDs from different interners, or from either side of a
// reset, are unrelated.
type stateID int32

// interner assigns dense ids to the states of one sequential type and
// memoizes its transition function. It is not safe for concurrent use;
// each checker owns one and resets it in place, so a long-lived Stream
// allocates for the states it holds at once, not for those it has seen.
//
// A search asks for a few transitions per operation, nearly all of them
// out of the states it interned last. The first transition taken from a
// state is therefore kept beside the state (first, indexed by id: recent
// states are neighbours in memory, and a counter or a test-and-set never
// needs a second one); only further transitions from the same state go to
// a hash table (more). That table and the one from state hashes to ids
// (index) are open-addressing with linear probing, at most half full.
type interner struct {
	states []spec.State
	hashes []uint64     // hashes[id] = states[id].Hash()
	first  []transition // first[id]: the first transition taken from id
	index  []stateID    // table over hashes: id+1 of a state, 0 if empty
	ops    []string     // op names; indices survive reset
	more   []transition // table keyed by (from, op, arg)
	nMore  int
}

// transition is one cached evaluation of State.Apply, keyed by
// (from, op, arg).
type transition struct {
	from stateID // id+1 of the source state, 0 if the slot is empty
	next stateID
	op   uint16
	arg  int64
	resp int64
}

// internMinSlots sizes fresh tables: a stress round interns a few states
// and a dozen transitions.
const internMinSlots = 1 << 5

// newInterner returns an interner for t with t.Start() interned as id 0.
func newInterner(t spec.Type) *interner {
	in := &interner{}
	in.fresh()
	in.id(t.Start())
	return in
}

// fresh replaces the state arrays and tables by empty ones of the starting
// size, keeping the op names.
func (in *interner) fresh() {
	const states = internMinSlots / 4
	*in = interner{
		states: make([]spec.State, 0, states),
		hashes: make([]uint64, 0, states),
		first:  make([]transition, 0, states),
		index:  make([]stateID, internMinSlots),
		more:   make([]transition, internMinSlots),
		ops:    in.ops,
	}
}

// reset forgets every state but the starting one and every cached
// transition, keeping the op-name indices and — unless they are oversized —
// the tables' memory. Clearing a table costs its capacity: one that was at
// least an eighth full is paid for by the insertions that filled it, while
// one a single big instance left behind would tax every later barrier, and
// is dropped for a fresh small one.
func (in *interner) reset() {
	start := in.states[0]
	oversized := func(slots, used int) bool { return slots > internMinSlots && 8*used < slots }
	if oversized(len(in.index), len(in.states)) || oversized(len(in.more), in.nMore) {
		in.fresh()
	} else {
		clear(in.states) // drop the references, keep the array
		in.states, in.hashes, in.first, in.nMore = in.states[:0], in.hashes[:0], in.first[:0], 0
		clear(in.index)
		clear(in.more)
	}
	in.id(start)
}

// id interns s, returning the id of the Equal-class it belongs to. The
// interner keeps s itself as the representative of a class it has not seen:
// every state it is handed comes fresh from Type.Start or State.Apply
// (pure, so nothing else can reach the value to change it) or is one of
// its own representatives, and re-boxing a value-typed state through Clone
// would cost an allocation per counter value.
func (in *interner) id(s spec.State) stateID {
	h := s.Hash()
	msk := len(in.index) - 1
	i := int(mix(h)) & msk
	for ; in.index[i] != 0; i = (i + 1) & msk {
		if id := in.index[i] - 1; in.hashes[id] == h && in.states[id].Equal(s) {
			return id
		}
	}
	id := stateID(len(in.states))
	in.states = append(in.states, s)
	in.hashes = append(in.hashes, h)
	in.first = append(in.first, transition{})
	in.index[i] = id + 1
	if 2*len(in.states) >= len(in.index) {
		in.index = make([]stateID, 2*len(in.index))
		msk = len(in.index) - 1
		for id, h := range in.hashes {
			i := int(mix(h)) & msk
			for in.index[i] != 0 {
				i = (i + 1) & msk
			}
			in.index[i] = stateID(id) + 1
		}
	}
	return id
}

// mix spreads a hash over the low bits a table masks out (a counter
// state's Hash may well be its value).
func mix(h uint64) uint64 {
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// state returns the canonical representative of id.
func (in *interner) state(id stateID) spec.State { return in.states[id] }

// size returns the number of distinct states interned — the checker's
// "states" telemetry figure.
func (in *interner) size() int { return len(in.states) }

// opIndex interns an operation name. A type has a handful of operations
// and callers pass the same constant strings, so a scan (pointer-equal
// strings compare without touching their bytes) beats hashing the name.
func (in *interner) opIndex(op string) uint16 {
	for i, name := range in.ops {
		if name == op {
			return uint16(i)
		}
	}
	in.ops = append(in.ops, op)
	return uint16(len(in.ops) - 1)
}

// slot returns where in the table the transition (from, op, arg) is or
// belongs.
func (in *interner) slot(from stateID, op uint16, arg int64) *transition {
	msk := len(in.more) - 1
	for i := int(mix(uint64(from)<<16^uint64(op)^mix(uint64(arg)))) & msk; ; i = (i + 1) & msk {
		if t := &in.more[i]; t.from == 0 || t.from == from && t.op == op && t.arg == arg {
			return t
		}
	}
}

// apply takes the memoized transition from state id under r, whose
// operation name the caller has already resolved to op = opIndex(r.Op).
// The first evaluation of each (state, Op, Arg) triple calls State.Apply;
// later ones are an indexed load or, past a state's first transition, one
// probe of an integer-keyed table.
func (in *interner) apply(id stateID, op uint16, r *spec.Request) (stateID, int64) {
	t := &in.first[id]
	if t.from != 0 && (t.op != op || t.arg != r.Arg) {
		t = in.slot(id+1, op, r.Arg)
	}
	if t.from != 0 {
		return t.next, t.resp
	}
	to, resp := in.states[id].Apply(*r)
	next := in.id(to) // may grow first: t is stale from here on
	tr := transition{from: id + 1, next: next, op: op, arg: r.Arg, resp: resp}
	if t = &in.first[id]; t.from == 0 {
		*t = tr
		return next, resp
	}
	*in.slot(tr.from, op, r.Arg) = tr
	if in.nMore++; 2*in.nMore >= len(in.more) {
		old := in.more
		in.more = make([]transition, 2*len(old))
		for _, o := range old {
			if o.from != 0 {
				*in.slot(o.from, o.op, o.arg) = o
			}
		}
	}
	return next, resp
}
