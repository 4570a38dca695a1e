package scenario

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/linearize"
	"repro/internal/spec"
	"repro/internal/trace"
)

// faiHistory is a linearizable fetch-and-increment history of k operations:
// consecutive pairs overlap and return each other's tickets, pairs are
// sequential. With flip set the last response repeats ticket 0.
func faiHistory(k int, flip bool) []trace.Op {
	ops := make([]trace.Op, k)
	for i := range ops {
		resp := i ^ 1
		if resp >= k {
			resp = i
		}
		ops[i] = trace.Op{
			Req:  spec.Request{ID: int64(i + 1), Op: spec.OpInc},
			Resp: int64(resp),
			Inv:  int64(10 * (i / 2)),
			Ret:  int64(10*(i/2) + 5),
		}
	}
	if flip {
		ops[k-1].Resp = 0
	}
	return ops
}

// TestOracleCheck covers every route Oracle.Check takes, which is a function
// of the oracle alone: no history size and no process setting changes it.
func TestOracleCheck(t *testing.T) {
	tasOp := func(id, resp, inv, ret int64) trace.Op {
		return trace.Op{Req: spec.Request{ID: id, Op: spec.OpTAS}, Resp: resp, Inv: inv, Ret: ret}
	}
	tas := Oracle{Kind: OracleLinearize, Type: spec.TASType{}}
	fai := Oracle{Kind: OracleLinearize, Type: spec.FetchIncType{}}
	composed := Oracle{Kind: OracleLinearize, Objects: map[string]spec.Type{"tas": spec.TASType{}}}

	cases := []struct {
		name    string
		oracle  Oracle
		ops     []trace.Op
		wantErr string // "" means the check passes
	}{
		{"invariant oracle", Oracle{Invariant: "lemma-4"}, nil, "has no trace check"},
		{"empty linearize oracle", Oracle{Kind: OracleLinearize}, nil, "scenario: oracle has neither Type nor Objects"},
		{"tas ok", tas, []trace.Op{tasOp(1, spec.Winner, 1, 2), tasOp(2, spec.Loser, 3, 4)}, ""},
		{"tas late winner", tas, []trace.Op{tasOp(1, spec.Loser, 1, 2), tasOp(2, spec.Winner, 3, 4)},
			"not linearizable (test-and-set): a loser completed before the winner was invoked"},
		{"fai 3 ops", fai, faiHistory(3, false), ""},
		{"fai 64 ops", fai, faiHistory(64, false), ""},
		{"fai 65 ops", fai, faiHistory(65, false), ""},
		{"fai 3 ops flipped", fai, faiHistory(3, true), "not linearizable (fetch-and-increment)"},
		{"fai 64 ops flipped", fai, faiHistory(64, true), "not linearizable (fetch-and-increment)"},
		{"fai 65 ops flipped", fai, faiHistory(65, true), "not linearizable (fetch-and-increment)"},
		{"unknown module", composed, []trace.Op{{Req: spec.Request{ID: 1, Op: spec.OpTAS}, Module: "queue", Inv: 1, Ret: 2}},
			`cannot check this trace: linearize: operation tas#1@p0 labeled with unknown module "queue"`},
	}
	for _, c := range cases {
		err := c.oracle.Check(c.ops)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error = %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
}

// TestOracleCheckTASIsClosedForm: a test-and-set oracle is judged by the
// allocation-free closed form, never by a search (CheckJIT allocates its
// stream), and aborted operations are projected to pending in the caller's
// slice.
func TestOracleCheckTASIsClosedForm(t *testing.T) {
	tas := Oracle{Kind: OracleLinearize, Type: spec.TASType{}}
	ops := make([]trace.Op, 4)
	for i := range ops {
		ops[i] = trace.Op{Req: spec.Request{ID: int64(i + 1), Op: spec.OpTAS}, Resp: spec.Loser, Inv: 1, Ret: int64(10 + i)}
	}
	ops[1].Resp = spec.Winner
	ops[3].Aborted = true
	if err := tas.Check(ops); err != nil {
		t.Fatal(err)
	}
	if got := ops[3]; got.Aborted || !got.Pending || got.Ret != 0 {
		t.Fatalf("aborted op not projected to pending in place: %+v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tas.Check(ops); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("TAS oracle check allocates %.0f times per 4-op history, want 0", allocs)
	}
}

// TestOracleCheckTASWithResets: a test-and-set history that contains a
// reset is not one-shot, so it must reach the JIT checker. The closed form
// would read the reset's 0 response as a second win.
func TestOracleCheckTASWithResets(t *testing.T) {
	tas := Oracle{Kind: OracleLinearize, Type: spec.TASType{}}
	op := func(id int64, name string, resp, inv, ret int64) trace.Op {
		return trace.Op{Req: spec.Request{ID: id, Op: name}, Resp: resp, Inv: inv, Ret: ret}
	}
	winResetWin := []trace.Op{
		op(1, spec.OpTAS, spec.Winner, 1, 2),
		op(2, spec.OpReset, 0, 3, 4),
		op(3, spec.OpTAS, spec.Winner, 5, 6),
	}
	if err := tas.Check(winResetWin); err != nil {
		t.Fatalf("sequential win-reset-win rejected: %v", err)
	}
	winWinReset := []trace.Op{
		op(1, spec.OpTAS, spec.Winner, 1, 2),
		op(2, spec.OpTAS, spec.Winner, 3, 4),
		op(3, spec.OpReset, 0, 5, 6),
	}
	if err := tas.Check(winWinReset); err == nil {
		t.Fatal("sequential win-win-reset accepted")
	}
}

// TestOracleTASPathsAgree: on one-shot test-and-set histories the closed
// form that Oracle.Check dispatches to and the JIT checker agree on every
// verdict. Histories are random: up to six operations over distinct
// stamps, each a winner, a loser or pending.
func TestOracleTASPathsAgree(t *testing.T) {
	tas := Oracle{Kind: OracleLinearize, Type: spec.TASType{}}
	rng := rand.New(rand.NewSource(1))
	var verdicts [2]int
	for iter := 0; iter < 3000; iter++ {
		k := 1 + rng.Intn(6)
		stamps := rng.Perm(2 * k)
		ops := make([]trace.Op, k)
		for i := range ops {
			inv, ret := int64(stamps[2*i]+1), int64(stamps[2*i+1]+1)
			if inv > ret {
				inv, ret = ret, inv
			}
			ops[i] = trace.Op{Proc: i, Req: spec.Request{ID: int64(i + 1), Proc: i, Op: spec.OpTAS}, Inv: inv, Ret: ret}
			switch rng.Intn(5) {
			case 0:
				ops[i].Resp = spec.Winner
			case 1:
				ops[i].Pending, ops[i].Ret = true, 0
			default:
				ops[i].Resp = spec.Loser
			}
		}
		closed, err := tas.dispatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		jit, _, err := linearize.CheckJIT(spec.TASType{}, ops, linearize.JITConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if closed.Ok != jit.Ok {
			t.Fatalf("history %d: closed form ok=%v (%s), JIT ok=%v (%s): %+v",
				iter, closed.Ok, closed.Reason, jit.Ok, jit.Reason, ops)
		}
		if closed.Ok {
			verdicts[1]++
		} else {
			verdicts[0]++
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("verdicts not both exercised: %d rejected, %d accepted", verdicts[0], verdicts[1])
	}
	t.Logf("%d histories rejected, %d accepted by both", verdicts[0], verdicts[1])
}
