package scenario

import (
	"strings"
	"testing"

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
