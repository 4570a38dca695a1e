package linearize

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/spec"
	"repro/internal/trace"
)

// bruteForce decides linearizability by enumerating every permutation of
// every subset of pending ops appended to the completed ops, checking
// real-time order and responses directly. It is exponential without
// memoization and serves as the independent oracle for histories of up to
// 7 operations; memoSearch takes over beyond that.
func bruteForce(t spec.Type, ops []trace.Op) bool {
	var completed, pending []trace.Op
	for _, o := range ops {
		if o.Pending {
			pending = append(pending, o)
		} else {
			completed = append(completed, o)
		}
	}
	ok := false
	spec.Subsets(opReqs(pending), func(sub []spec.Request) bool {
		chosen := append([]trace.Op{}, completed...)
		for _, r := range sub {
			for _, o := range pending {
				if o.Req.ID == r.ID {
					chosen = append(chosen, o)
				}
			}
		}
		spec.Permutations(opReqs(chosen), func(h spec.History) bool {
			if validLinearization(t, h, chosen) {
				ok = true
				return false
			}
			return true
		})
		return !ok
	})
	return ok
}

func opReqs(ops []trace.Op) []spec.Request {
	out := make([]spec.Request, len(ops))
	for i, o := range ops {
		out[i] = o.Req
	}
	return out
}

func validLinearization(t spec.Type, h spec.History, ops []trace.Op) bool {
	byID := map[int64]trace.Op{}
	for _, o := range ops {
		byID[o.Req.ID] = o
	}
	// Real-time order: if a returns before b is invoked, a must precede b.
	pos := map[int64]int{}
	for i, r := range h {
		pos[r.ID] = i
	}
	for _, a := range ops {
		for _, b := range ops {
			if !a.Pending && b.Inv > a.Ret && pos[a.Req.ID] > pos[b.Req.ID] {
				return false
			}
		}
	}
	// Responses of completed ops must match.
	state := t.Start()
	for _, r := range h {
		var resp int64
		state, resp = state.Apply(r)
		if o := byID[r.ID]; !o.Pending && resp != o.Resp {
			return false
		}
	}
	return true
}

// memoSearch is the second reference, for the 8–64-operation histories
// bruteForce cannot afford: a Wing–Gong-style memoized depth-first search
// over linearization prefixes, with states interned so memo keys are
// (bitmask, state-id) integer pairs. It shares the interner with the JIT
// checker and nothing else — no window, no cuts, no stutter rule, no
// frontier. ops must already be projected (no aborted operation).
func memoSearch(t spec.Type, ops []trace.Op) bool {
	if len(ops) > 64 {
		panic("memoSearch: more than 64 operations")
	}
	ops = append([]trace.Op(nil), ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Inv < ops[j].Inv })

	in := newInterner(t)
	type key struct {
		mask  uint64
		state stateID
	}
	visited := map[key]bool{}
	full := uint64(1)<<uint(len(ops)) - 1 // all ones at 64: the shift yields 0

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
			next, resp := in.apply(state, in.opIndex(o.Req.Op), &o.Req)
			if o.Pending {
				// The pending op takes effect here (any response), or never.
				if dfs(mask|bit, next) || dfs(mask|bit, state) {
					return true
				}
				continue
			}
			if resp == o.Resp && dfs(mask|bit, next) {
				return true
			}
		}
		return false
	}
	return dfs(0, 0)
}

// mustCheck is the small-history entry point of the behavioural tests:
// CheckJIT's result, after holding its verdict to memoSearch's. A contract
// error fails the test, so verdict tests can keep reading .Ok directly.
func mustCheck(t *testing.T, ty spec.Type, ops []trace.Op) Result {
	t.Helper()
	res, _, err := CheckJIT(ty, ops, JITConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if want := memoSearch(ty, ops); res.Ok != want {
		t.Fatalf("disagreement on %s %+v: CheckJIT=%v memoSearch=%v", ty.Name(), ops, res.Ok, want)
	}
	return res
}

// randomOps generates a small random execution over the given op set.
func randomOps(rng *rand.Rand, mkOp func(i int, rng *rand.Rand) (string, int64, int64)) []trace.Op {
	k := 1 + rng.Intn(4)
	ops := make([]trace.Op, 0, k)
	stamp := int64(1)
	for i := 0; i < k; i++ {
		op, arg, resp := mkOp(i, rng)
		inv := stamp
		stamp++
		o := trace.Op{Req: spec.Request{ID: int64(i + 1), Op: op, Arg: arg}, Inv: inv}
		if rng.Intn(5) == 0 {
			o.Pending = true
		} else {
			o.Ret = stamp + int64(rng.Intn(2*k))
			stamp++
			o.Resp = resp
		}
		ops = append(ops, o)
	}
	return ops
}

func TestCrossValidateGenericCheckerQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	okCount, badCount := 0, 0
	for iter := 0; iter < 1500; iter++ {
		ops := randomOps(rng, func(i int, rng *rand.Rand) (string, int64, int64) {
			if rng.Intn(2) == 0 {
				return spec.OpEnq, int64(10 + i), 0
			}
			// Random (often wrong) dequeue responses probe the reject side.
			resps := []int64{spec.EmptyQueue, 10, 11, 12, 13}
			return spec.OpDeq, 0, resps[rng.Intn(len(resps))]
		})
		got := mustCheck(t, spec.QueueType{}, ops).Ok
		want := bruteForce(spec.QueueType{}, ops)
		if got != want {
			t.Fatalf("checker disagreement on %+v: CheckJIT=%v brute=%v", ops, got, want)
		}
		if got {
			okCount++
		} else {
			badCount++
		}
	}
	if okCount == 0 || badCount == 0 {
		t.Fatalf("degenerate sampling: ok=%d bad=%d", okCount, badCount)
	}
}

func TestCrossValidateGenericCheckerStack(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 1500; iter++ {
		ops := randomOps(rng, func(i int, rng *rand.Rand) (string, int64, int64) {
			if rng.Intn(2) == 0 {
				return spec.OpPush, int64(10 + i), 0
			}
			resps := []int64{spec.EmptyStack, 10, 11, 12, 13}
			return spec.OpPop, 0, resps[rng.Intn(len(resps))]
		})
		got := mustCheck(t, spec.StackType{}, ops).Ok
		want := bruteForce(spec.StackType{}, ops)
		if got != want {
			t.Fatalf("checker disagreement on %+v: CheckJIT=%v brute=%v", ops, got, want)
		}
	}
}

func TestCrossValidateGenericCheckerMaxRegister(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for iter := 0; iter < 1000; iter++ {
		ops := randomOps(rng, func(i int, rng *rand.Rand) (string, int64, int64) {
			if rng.Intn(2) == 0 {
				return spec.OpWriteMax, int64(rng.Intn(4)), 0
			}
			return spec.OpReadMax, 0, int64(rng.Intn(4))
		})
		got := mustCheck(t, spec.MaxRegisterType{}, ops).Ok
		want := bruteForce(spec.MaxRegisterType{}, ops)
		if got != want {
			t.Fatalf("checker disagreement on %+v: CheckJIT=%v brute=%v", ops, got, want)
		}
	}
}
