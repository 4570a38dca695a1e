// Package linearize checks linearizability [15] of recorded concurrent
// executions. It provides three checkers, cross-validated against each
// other by property tests:
//
//   - Check: the general Wing–Gong-style memoized search, exponential but
//     fine for the small-scope executions the engine package produces.
//     Kept as the baseline the scalable checker is validated against.
//   - CheckTAS: a specialized O(k log k) decision procedure for one-shot
//     test-and-set histories.
//   - the JIT checker (jit.go): a Wing–Gong/Lowe just-in-time search over
//     an entry-linked history with interned-state configuration
//     memoization, a streaming window mode, and per-object projection
//     (P-compositionality) — the one that scales to the stress tier's
//     million-operation histories.
//
// Theorem 3 of the paper reduces correctness of a safely composable object
// with no init requests to linearizability of its invoke/commit projection;
// this package is the executable form of that projection check.
package linearize

import (
	"fmt"
	"sort"

	"repro/internal/spec"
	"repro/internal/trace"
)

// Result reports the outcome of a linearizability check.
type Result struct {
	Ok bool
	// Witness is a linearization (as a history) when Ok; it includes any
	// pending operations the search decided took effect.
	Witness spec.History
	// Reason explains a failure (best-effort).
	Reason string
}

// Check decides whether ops — the invoke/commit projection of an execution
// on an object of type t — is linearizable. Committed operations must
// appear in the linearization with their observed responses; pending
// operations (no response recorded: crashed or cut off) may take effect
// with any response, or not at all. Aborted operations must be filtered
// out by the caller (per Theorem 3 the projection is onto invoke and
// commit events).
//
// Check runs a memoized depth-first search over linearization prefixes,
// with states interned so memo keys are (bitmask, state-id) integer pairs.
// It returns an error — not a verdict — on inputs outside its contract:
// more than 64 operations (use CheckJIT or CheckTAS for large histories),
// or an aborted operation the caller failed to project out. Errors mean
// the harness or oracle is miswired, never that the history failed to
// linearize.
func Check(t spec.Type, ops []trace.Op) (Result, error) {
	for _, o := range ops {
		if o.Aborted {
			return Result{}, fmt.Errorf("linearize: aborted operation (id %d) must be projected out before Check", o.Req.ID)
		}
	}
	if len(ops) > 64 {
		return Result{}, fmt.Errorf("linearize: Check limited to 64 operations, got %d (use CheckJIT for large histories)", len(ops))
	}
	ops = append([]trace.Op(nil), ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Inv < ops[j].Inv })

	in := newInterner(t)
	type key struct {
		mask  uint64
		state stateID
	}
	visited := map[key]bool{}
	var full uint64
	if len(ops) > 0 {
		full = uint64(1)<<uint(len(ops)) - 1
	}

	var witness spec.History
	var dfs func(mask uint64, state stateID) bool
	dfs = func(mask uint64, state stateID) bool {
		if mask == full {
			return true
		}
		k := key{mask, state}
		if visited[k] {
			return false
		}
		visited[k] = true

		// A remaining op may linearize next only if no other remaining op
		// returned before it was invoked (real-time order preservation).
		minRet := int64(1<<62 - 1)
		for i, o := range ops {
			if mask&(1<<uint(i)) != 0 || o.Pending {
				continue
			}
			if o.Ret < minRet {
				minRet = o.Ret
			}
		}
		for i, o := range ops {
			bit := uint64(1) << uint(i)
			if mask&bit != 0 {
				continue
			}
			if o.Inv > minRet {
				continue // some remaining completed op really precedes o
			}
			if o.Pending {
				// Branch 1: the pending op takes effect here (any response).
				next, _ := in.apply(state, in.opIndex(o.Req.Op), &o.Req)
				witness = append(witness, o.Req)
				if dfs(mask|bit, next) {
					return true
				}
				witness = witness[:len(witness)-1]
				// Branch 2: the pending op never takes effect.
				if dfs(mask|bit, state) {
					return true
				}
				continue
			}
			next, resp := in.apply(state, in.opIndex(o.Req.Op), &o.Req)
			if resp != o.Resp {
				continue // cannot linearize here; maybe later in another order
			}
			witness = append(witness, o.Req)
			if dfs(mask|bit, next) {
				return true
			}
			witness = witness[:len(witness)-1]
		}
		return false
	}

	if dfs(0, 0) {
		return Result{Ok: true, Witness: witness}, nil
	}
	return Result{Ok: false, Reason: "no linearization matches observed responses"}, nil
}

// CheckTAS decides linearizability of a (possibly large) one-shot
// test-and-set execution in O(k log k): committed operations respond Winner
// or Loser; pending operations may or may not have taken effect. Like
// Check, it returns an error — never a verdict — on an aborted operation
// the caller failed to project out.
//
// A TAS execution is linearizable iff
//  1. at most one committed operation won;
//  2. if a committed winner w exists, every committed loser l satisfies
//     Inv(w) ≤ Ret(l) (w can be placed before l); and
//  3. if losers committed but no winner did, some pending operation p has
//     Inv(p) ≤ Ret(l) for every committed loser l (p took the win).
//
// The comparisons are non-strict because real-time precedence is strict:
// an operation invoked exactly when another returns is concurrent with it
// and may still linearize first (the same tie convention as Check and the
// JIT checker, whose cross-validation suite exercises tied stamps).
func CheckTAS(ops []trace.Op) (Result, error) {
	res, w, err := checkTAS(ops)
	if w != nil {
		res.Witness = tasWitness(w, ops)
	}
	return res, err
}

// CheckTASVerdict is CheckTAS without the witness: the same decision
// procedure and the same Ok/Reason/error, but Result.Witness stays nil and
// nothing is allocated. It is the form for oracles that judge one execution
// after another and read only the verdict; a passing CheckTAS builds and
// sorts a witness history per call.
func CheckTASVerdict(ops []trace.Op) (Result, error) {
	res, _, err := checkTAS(ops)
	return res, err
}

// checkTAS is the decision procedure behind CheckTAS and CheckTASVerdict.
// On acceptance it also returns the operation a witness linearizes first
// (nil when no operation took effect).
func checkTAS(ops []trace.Op) (Result, *trace.Op, error) {
	var winner *trace.Op
	minLoserRet := int64(1<<62 - 1)
	losers := 0
	for i := range ops {
		o := &ops[i]
		if o.Aborted {
			return Result{}, nil, fmt.Errorf("linearize: aborted operation (id %d) must be projected out before CheckTAS", o.Req.ID)
		}
		if o.Pending {
			continue
		}
		switch o.Resp {
		case spec.Winner:
			if winner != nil {
				return Result{Ok: false, Reason: "two committed winners"}, nil, nil
			}
			winner = o
		case spec.Loser:
			losers++
			if o.Ret < minLoserRet {
				minLoserRet = o.Ret
			}
		default:
			return Result{Ok: false, Reason: "non-TAS response"}, nil, nil
		}
	}
	if winner != nil {
		if winner.Inv > minLoserRet {
			return Result{Ok: false, Reason: "a loser completed before the winner was invoked"}, nil, nil
		}
		return Result{Ok: true}, winner, nil
	}
	if losers == 0 {
		return Result{Ok: true}, nil, nil
	}
	// No committed winner: a pending op must account for the set bit.
	for i := range ops {
		o := &ops[i]
		if o.Pending && o.Inv <= minLoserRet {
			return Result{Ok: true}, o, nil
		}
	}
	return Result{Ok: false, Reason: "losers committed but no possible winner precedes them"}, nil, nil
}

// tasWitness builds a linearization placing w first and the committed
// losers after it in return order.
func tasWitness(w *trace.Op, ops []trace.Op) spec.History {
	h := spec.History{w.Req}
	rest := make([]trace.Op, 0, len(ops))
	for _, o := range ops {
		if !o.Pending && o.Resp == spec.Loser {
			rest = append(rest, o)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Ret < rest[j].Ret })
	for _, o := range rest {
		h = append(h, o.Req)
	}
	return h
}
