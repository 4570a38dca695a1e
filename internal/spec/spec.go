// Package spec implements the paper's sequential-object machinery
// (Section 3 and Section 5.1): objects as sequential types (Q, s, I, R, Δ),
// histories as duplicate-free sequences of uniquely identified requests, the
// response function β, and the extension-closed equivalence ≡_I between
// histories.
//
// States are explicit values behind the State interface (apply, equality,
// hashing, cloning), which keeps Apply pure while letting the
// linearizability checkers memoize over *interned* state identities:
// package linearize's interner maps each distinct state (by Equal) to a
// dense integer id, so memo keys are integers and transition results are
// cached once per (state, operation, argument) triple. Two histories that reach Equal
// states return the same responses in every extension, which is the sound
// decision procedure for ≡_I on deterministic types.
package spec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Request is an element of the input set I tagged with a unique identifier,
// as the paper assumes ("for simplicity, we assume that each request has a
// unique identifier"). Proc records the invoking process; Op and Arg carry
// the operation.
type Request struct {
	ID   int64
	Proc int
	Op   string
	Arg  int64
}

// String renders the request compactly for error messages.
func (r Request) String() string {
	if r.Arg != 0 {
		return fmt.Sprintf("%s(%d)#%d@p%d", r.Op, r.Arg, r.ID, r.Proc)
	}
	return fmt.Sprintf("%s#%d@p%d", r.Op, r.ID, r.Proc)
}

// State is one sequential-object state: an immutable value the transition
// function Δ maps to a successor state plus a response.
//
// Apply must be pure and total, and — so the checkers' transition
// memoization is sound — may depend only on the request's Op and Arg fields,
// never on its ID or Proc. Equal must be an equivalence consistent with
// observational equality (Equal states respond identically in every
// extension), and Hash must respect it (Equal states hash equally). Clone
// returns a state the caller may retain while the original escapes;
// value-typed implementations simply return themselves.
type State interface {
	Apply(r Request) (State, int64)
	Equal(other State) bool
	Hash() uint64
	Clone() State
}

// Type is a sequential object type: a name for reports and the starting
// state s of its deterministic specification Δ.
type Type interface {
	// Name identifies the type (for reports).
	Name() string
	// Start returns the starting state s of a fresh instance.
	Start() State
}

// Stutterable is an optional Type extension marking (operation, response)
// pairs whose response match implies a self-loop in EVERY state of the
// type: whenever Δ(q, op) responds r, it also leaves q unchanged. Reads
// are the canonical example (read() = r only in states storing r, which it
// does not change); a losing test-and-set is another (losing happens only
// in the set state, which stays set). The JIT linearizability checker
// exploits the property: such an operation, once applicable, commutes with
// every alternative choice and can be linearized greedily, collapsing the
// otherwise-exponential windows of concurrent identical operations (64
// simultaneous TAS losers, say) to linear work.
//
// Declaring a pair that does NOT have the property (a reset responding 0
// both where it stutters and where it clears, a write matching in every
// state) makes the checker incomplete — it may reject linearizable
// histories. The cross-validation suite compares the JIT checker against
// brute-force enumeration over every registered type to keep declarations
// honest.
type Stutterable interface {
	StutterSafe(op string, resp int64) bool
}

var (
	typesMu  sync.Mutex
	typesReg []Type
)

// Register adds a type to the package registry enumerated by Types. The
// concrete types in this package register themselves; checker
// cross-validation suites iterate the registry so new types are covered
// without editing every test.
func Register(t Type) {
	typesMu.Lock()
	defer typesMu.Unlock()
	for _, have := range typesReg {
		if have.Name() == t.Name() {
			panic(fmt.Sprintf("spec: duplicate type registration %q", t.Name()))
		}
	}
	typesReg = append(typesReg, t)
}

// Types returns every registered type sorted by name.
func Types() []Type {
	typesMu.Lock()
	defer typesMu.Unlock()
	out := append([]Type(nil), typesReg...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// History is a sequence of requests. Valid histories contain no duplicate
// request identifiers.
type History []Request

// String renders the history as a request sequence.
func (h History) String() string {
	parts := make([]string, len(h))
	for i, r := range h {
		parts[i] = r.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// IDs returns the request identifiers in sequence order.
func (h History) IDs() []int64 {
	out := make([]int64, len(h))
	for i, r := range h {
		out[i] = r.ID
	}
	return out
}

// Contains reports whether the history includes a request with the given id.
func (h History) Contains(id int64) bool {
	for _, r := range h {
		if r.ID == id {
			return true
		}
	}
	return false
}

// HasDuplicates reports whether any request id appears twice.
func (h History) HasDuplicates() bool {
	seen := make(map[int64]bool, len(h))
	for _, r := range h {
		if seen[r.ID] {
			return true
		}
		seen[r.ID] = true
	}
	return false
}

// IsPrefixOf reports whether h is a (non-strict) prefix of other, comparing
// request ids positionally.
func (h History) IsPrefixOf(other History) bool {
	if len(h) > len(other) {
		return false
	}
	for i := range h {
		if h[i].ID != other[i].ID {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the history.
func (h History) Clone() History {
	return append(History(nil), h...)
}

// Head returns the first request; ok is false for the empty history.
func (h History) Head() (Request, bool) {
	if len(h) == 0 {
		return Request{}, false
	}
	return h[0], true
}

// FinalState returns the state after applying h sequentially to a fresh
// instance of t.
func FinalState(t Type, h History) State {
	s := t.Start()
	for _, r := range h {
		s, _ = s.Apply(r)
	}
	return s
}

// Beta is the paper's β(h): the response to the last request of h. ok is
// false for the empty history.
func Beta(t Type, h History) (int64, bool) {
	if len(h) == 0 {
		return 0, false
	}
	s := t.Start()
	var resp int64
	for _, r := range h {
		s, resp = s.Apply(r)
	}
	return resp, true
}

// BetaAt is the paper's β(h, m): the response matching the request with the
// given id in h. ok is false if the request does not appear in h.
func BetaAt(t Type, h History, id int64) (int64, bool) {
	s := t.Start()
	var resp int64
	for _, r := range h {
		s, resp = s.Apply(r)
		if r.ID == id {
			return resp, true
		}
	}
	return 0, false
}

// Responses returns the response to every request of h, in order.
func Responses(t Type, h History) []int64 {
	out := make([]int64, len(h))
	s := t.Start()
	for i, r := range h {
		s, out[i] = s.Apply(r)
	}
	return out
}

// EquivalentOver decides h1 ≡_I h2 for the deterministic type t, where I is
// given as a set of request ids. Per Section 5.1 this requires: (i) both
// histories contain all requests in I; (ii) β(h1·h) = β(h2·h) for every
// extension h; (iii) β(h1, m) = β(h2, m) for every m ∈ I.
//
// Condition (ii) quantifies over all extensions; for deterministic types it
// is implied by state equality after h1 and h2, which is what we check.
// This is sound always, and complete for types whose states are
// observationally distinct (true of every type in this package).
func EquivalentOver(t Type, ids []int64, h1, h2 History) bool {
	for _, id := range ids {
		if !h1.Contains(id) || !h2.Contains(id) {
			return false
		}
	}
	if !FinalState(t, h1).Equal(FinalState(t, h2)) {
		return false
	}
	for _, id := range ids {
		r1, ok1 := BetaAt(t, h1, id)
		r2, ok2 := BetaAt(t, h2, id)
		if !ok1 || !ok2 || r1 != r2 {
			return false
		}
	}
	return true
}

// Permutations enumerates every permutation of reqs as a History, invoking
// yield for each; enumeration stops early if yield returns false. It is
// used by the bounded checkers (Definition 2 witnesses, brute-force
// linearization) on small request sets.
func Permutations(reqs []Request, yield func(History) bool) {
	perm := append([]Request(nil), reqs...)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(perm) {
			return yield(append(History(nil), perm...))
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if !rec(k + 1) {
				return false
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return true
	}
	rec(0)
}

// Subsets enumerates every subset of reqs (including empty and full),
// invoking yield for each; enumeration stops early if yield returns false.
func Subsets(reqs []Request, yield func([]Request) bool) {
	n := len(reqs)
	if n > 30 {
		panic("spec: Subsets limited to 30 requests")
	}
	buf := make([]Request, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		buf = buf[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				buf = append(buf, reqs[i])
			}
		}
		if !yield(buf) {
			return
		}
	}
}
