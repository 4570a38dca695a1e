// Package linearize checks linearizability [15] of recorded concurrent
// executions: committed operations must appear in the linearization with
// their observed responses; pending operations (no response recorded:
// crashed or cut off) may take effect with any response, or not at all;
// aborted operations must be projected out by the caller. It provides two
// production checkers:
//
//   - CheckTAS / CheckTASVerdict: the closed form for one-shot
//     test-and-set histories, an O(k log k) decision procedure.
//   - the JIT family (jit.go) — CheckJIT, CheckObjects, Stream: a
//     Wing–Gong/Lowe just-in-time search over an entry-linked history with
//     interned-state configuration memoization, a streaming window mode,
//     and per-object projection (P-compositionality). It is the general
//     checker for every sequential type at every history size, from the
//     dozen operations of a model-checked execution to the stress tier's
//     million-operation histories.
//
// Both are differentially tested against two references that live only in
// the tests (bruteforce_test.go): a permutation-enumerating brute force,
// affordable up to 7 operations, and a Wing–Gong-style memoized search over
// a ≤64-operation bitmask for the sizes beyond it.
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

// CheckTAS decides linearizability of a (possibly large) one-shot
// test-and-set execution in O(k log k): committed operations respond Winner
// or Loser; pending operations may or may not have taken effect. It returns
// an error — never a verdict — on an aborted operation the caller failed to
// project out: the harness or oracle is miswired, not the history wrong.
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
// and may still linearize first (the same tie convention as the JIT
// checker, whose cross-validation suite exercises tied stamps).
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
