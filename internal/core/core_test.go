package core

import (
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/spec"
	"repro/internal/trace"
)

// tasM is a local copy of the Definition 3 constraint (the canonical one
// lives in package tas, which depends on core; tests here use this minimal
// variant to keep the dependency direction clean).
type tasM struct{}

func (tasM) Contains(tokens []Token, h spec.History) bool {
	if len(h) == 0 || h.HasDuplicates() {
		return false
	}
	hasW, headIsW, headInS := false, false, false
	for _, tk := range tokens {
		if !h.Contains(tk.Req.ID) {
			return false
		}
		if tk.Req.ID == h[0].ID {
			headInS = true
		}
		if tk.Val == "W" {
			hasW = true
			if tk.Req.ID == h[0].ID {
				headIsW = true
			}
		}
	}
	if hasW {
		return headIsW
	}
	return !headInS
}

func (m tasM) Candidates(tokens []Token, available []spec.Request) []spec.History {
	var out []spec.History
	spec.Subsets(available, func(sub []spec.Request) bool {
		subCopy := append([]spec.Request(nil), sub...)
		spec.Permutations(subCopy, func(h spec.History) bool {
			if m.Contains(tokens, h) {
				out = append(out, h.Clone())
			}
			return true
		})
		return true
	})
	return out
}

func req(id int64, proc int) spec.Request {
	return spec.Request{ID: id, Proc: proc, Op: spec.OpTAS}
}

func TestCheckDefinition2SequentialCommits(t *testing.T) {
	r := trace.NewRecorder(2)
	m1, m2 := req(1, 0), req(2, 1)
	r.RecordInvoke(0, m1)
	r.RecordCommit(0, m1, spec.Winner, "A1")
	r.RecordInvoke(1, m2)
	r.RecordCommit(1, m2, spec.Loser, "A1")
	if err := CheckDefinition2(spec.TASType{}, tasM{}, r.Events()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDefinition2RejectsTwoWinners(t *testing.T) {
	r := trace.NewRecorder(2)
	m1, m2 := req(1, 0), req(2, 1)
	r.RecordInvoke(0, m1)
	r.RecordCommit(0, m1, spec.Winner, "A1")
	r.RecordInvoke(1, m2)
	r.RecordCommit(1, m2, spec.Winner, "A1")
	if err := CheckDefinition2(spec.TASType{}, tasM{}, r.Events()); err == nil {
		t.Fatal("two committed winners must admit no interpretation")
	}
}

func TestCheckDefinition2RejectsStaleLoser(t *testing.T) {
	// A loser that completes before any other request is invoked cannot be
	// explained: nothing can precede it in a spine.
	r := trace.NewRecorder(2)
	m1, m2 := req(1, 0), req(2, 1)
	r.RecordInvoke(0, m1)
	r.RecordCommit(0, m1, spec.Loser, "A1")
	r.RecordInvoke(1, m2)
	r.RecordCommit(1, m2, spec.Winner, "A1")
	if err := CheckDefinition2(spec.TASType{}, tasM{}, r.Events()); err == nil {
		t.Fatal("loser completing before the winner's invocation must be rejected")
	}
}

func TestCheckDefinition2AbortClasses(t *testing.T) {
	// Two W-aborts: eq(aborts, M) has one class per candidate head; both
	// must admit interpretations. Overlapping invocations make both heads
	// feasible.
	r := trace.NewRecorder(2)
	m1, m2 := req(1, 0), req(2, 1)
	r.RecordInvoke(0, m1)
	r.RecordInvoke(1, m2)
	r.RecordAbort(0, m1, "W", "A1")
	r.RecordAbort(1, m2, "W", "A1")
	if err := CheckDefinition2(spec.TASType{}, tasM{}, r.Events()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDefinition2AbortClassInfeasible(t *testing.T) {
	// A W-abort together with a winner COMMIT: M's W-headed histories make
	// the aborted request the winner, contradicting the committed winner.
	r := trace.NewRecorder(2)
	m1, m2 := req(1, 0), req(2, 1)
	r.RecordInvoke(0, m1)
	r.RecordInvoke(1, m2)
	r.RecordCommit(0, m1, spec.Winner, "A1")
	r.RecordAbort(1, m2, "W", "A1")
	if err := CheckDefinition2(spec.TASType{}, tasM{}, r.Events()); err == nil {
		t.Fatal("winner commit + W abort must violate Definition 2 (invariant 2)")
	}
}

func TestCheckDefinition2InitHistories(t *testing.T) {
	// A later-module trace: both requests enter with W tokens; the hardware
	// winner commits first. The interpretation must pick the winner-headed
	// init history.
	r := trace.NewRecorder(2)
	m1, m2 := req(1, 0), req(2, 1)
	r.RecordInit(0, m1, "W")
	r.RecordCommit(0, m1, spec.Winner, "A2")
	r.RecordInit(1, m2, "W")
	r.RecordCommit(1, m2, spec.Loser, "A2")
	if err := CheckDefinition2(spec.TASType{}, tasM{}, r.Events()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDefinition2TooManyRequests(t *testing.T) {
	r := trace.NewRecorder(1)
	for i := 0; i < 12; i++ {
		m := req(int64(i+1), 0)
		r.RecordInvoke(0, m)
		r.RecordCommit(0, m, spec.Loser, "A1")
	}
	err := CheckDefinition2(spec.TASType{}, tasM{}, r.Events())
	if err == nil || !strings.Contains(err.Error(), "bounded") {
		t.Fatalf("expected bound error, got %v", err)
	}
}

// fakeModule commits or aborts according to a script.
type fakeModule struct {
	name   string
	commit bool
	resp   int64
	sv     SwitchValue
	calls  int
	gotSV  []SwitchValue
}

func (f *fakeModule) Name() string { return f.name }
func (f *fakeModule) Invoke(p *memory.Proc, m spec.Request, sv SwitchValue) (Outcome, int64, SwitchValue) {
	f.calls++
	f.gotSV = append(f.gotSV, sv)
	if f.commit {
		return Committed, f.resp, nil
	}
	return Aborted, 0, f.sv
}

func TestCompositionThreadsSwitchValues(t *testing.T) {
	env := memory.NewEnv(1)
	m1 := &fakeModule{name: "m1", commit: false, sv: "W"}
	m2 := &fakeModule{name: "m2", commit: true, resp: 7}
	comp := NewComposition(m1, m2)
	out, resp, _, k := comp.Invoke(env.Proc(0), req(1, 0))
	if out != Committed || resp != 7 || k != 1 {
		t.Fatalf("composition = (%v, %d, module %d)", out, resp, k)
	}
	if m1.gotSV[0] != nil {
		t.Fatal("first module must see ⊥")
	}
	if m2.gotSV[0] != "W" {
		t.Fatalf("second module saw %v, want W", m2.gotSV[0])
	}

	// ResetState and HashState walk the modules in chain order.
	p := env.Proc(0)
	r1 := &regModule{fakeModule{name: "r1"}, memory.NewIntReg(0)}
	r2 := &regModule{fakeModule{name: "r2"}, memory.NewIntReg(0)}
	regs := NewComposition(r1, r2)
	r1.r.Write(p, 3)
	r2.r.Write(p, 4)
	var got, want memory.StateHash
	r1.HashState(&want)
	r2.HashState(&want)
	if !regs.HashState(&got) || got.Sum128() != want.Sum128() {
		t.Fatalf("composition hash %v, want %v (r1 then r2)", got.Sum128(), want.Sum128())
	}
	if NewComposition(r1, &fakeModule{name: "plain"}).HashState(&got) {
		t.Fatal("HashState over a module that cannot fingerprint must report false")
	}
	regs.ResetState()
	if r1.r.Read(p) != 0 || r2.r.Read(p) != 0 {
		t.Fatalf("ResetState left registers at %d, %d", r1.r.Read(p), r2.r.Read(p))
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "plain") {
				t.Fatalf("ResetState over a non-resettable module: panic %q, want one naming the module", msg)
			}
		}()
		NewComposition(r1, &fakeModule{name: "plain"}).ResetState()
	}()
}

// regModule is a fakeModule with one register of resettable, hashable state.
type regModule struct {
	fakeModule
	r *memory.IntReg
}

func (m *regModule) ResetState()                        { m.r.ResetState() }
func (m *regModule) HashState(h *memory.StateHash) bool { return m.r.HashState(h) }

func TestCompositionAllAbort(t *testing.T) {
	env := memory.NewEnv(1)
	m1 := &fakeModule{name: "m1", sv: "W"}
	m2 := &fakeModule{name: "m2", sv: "L"}
	comp := NewComposition(m1, m2)
	out, _, sv, k := comp.Invoke(env.Proc(0), req(1, 0))
	if out != Aborted || sv != "L" || k != 1 {
		t.Fatalf("composition = (%v, sv %v, module %d)", out, sv, k)
	}
}

func TestCompositionRecorders(t *testing.T) {
	env := memory.NewEnv(1)
	m1 := &fakeModule{name: "m1", sv: "W"}
	m2 := &fakeModule{name: "m2", commit: true, resp: 1}
	r1, r2 := trace.NewRecorder(1), trace.NewRecorder(1)
	comp := NewComposition(m1, m2).WithRecorders(r1, r2)
	comp.Invoke(env.Proc(0), req(1, 0))

	ev1 := r1.Events()
	if len(ev1) != 2 || ev1[0].Kind != trace.Invoke || ev1[1].Kind != trace.Abort {
		t.Fatalf("module 1 events: %v", ev1)
	}
	ev2 := r2.Events()
	if len(ev2) != 2 || ev2[0].Kind != trace.Init || ev2[0].SV != "W" || ev2[1].Kind != trace.Commit {
		t.Fatalf("module 2 events: %v", ev2)
	}
}

func TestCompositionRecorderCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewComposition(&fakeModule{name: "m"}).WithRecorders(nil, nil)
}
