package engine_test

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// a1Harness is the a1 scenario at n=2: the walk every checkpoint below
// belongs to (22 executions under sleep sets).
func a1Harness(tb testing.TB) engine.Harness {
	sc, err := scenario.Lookup("a1")
	if err != nil {
		tb.Fatal(err)
	}
	h, _ := sc.Build(2, scenario.Options{})
	return h
}

const corruptPrefix = "engine: corrupt checkpoint: "

// TestCorruptCheckpointReported: a checkpoint naming a process the harness
// does not have, or a crash in a walk without crashes, or a prefix the
// harness cannot replay is reported as a corrupt checkpoint, naming the
// item — before the walk starts where the checkpoint alone shows it — while
// a replay that diverges on an item this walk discovered still blames the
// harness.
func TestCorruptCheckpointReported(t *testing.T) {
	h := a1Harness(t)
	for _, c := range []struct{ ckpt, want string }{
		{`{"items":[{"prefix":[{"proc":7}]}]}`, "item 0: process 7 is not in [0, 2)"},
		{`{"items":[{"prefix":[{"proc":0}]},{"prefix":[{"proc":1,"crash":true}]}]}`, "item 1: crash of process 1 in a walk without crashes"},
		{`{"items":[{"prefix":[{"proc":0}],"sleep":[{"proc":99},{"proc":-5}]}]}`, "item 0: process 99 is not in [0, 2)"},
		{`{"items":[{"prefix":[{"proc":0}]},{"prefix":[{"proc":-5}]}]}`, "item 1: process -5 is not in [0, 2)"},
		{`{"items":[{"prefix":[` + strings.Repeat(`{"proc":0},`, 40) + `{"proc":0}]}]}`, "item 0: step "},
	} {
		var ck engine.Checkpoint
		if err := json.Unmarshal([]byte(c.ckpt), &ck); err != nil {
			t.Fatal(err)
		}
		rep, err := engine.Run(h, engine.Config{Prune: engine.PruneSleep, Workers: 1, Resume: &ck})
		if err == nil || !strings.HasPrefix(err.Error(), corruptPrefix+c.want) {
			t.Errorf("%s: got %v, want %q", c.ckpt, err, corruptPrefix+c.want)
		}
		if strings.Contains(c.want, "[0, 2)") && rep.Attempts != 0 {
			t.Errorf("%s: %d attempts before the rejection, want none", c.ckpt, rep.Attempts)
		}
	}

	// The reset flips process 0's read count between 6 and 2: a prefix
	// recorded on one run outlives the body of the next.
	leaky := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		r := memory.NewIntReg(0)
		env.Register(r)
		k := 6
		body0 := func(p *memory.Proc) {
			for i := 0; i < k; i++ {
				r.Read(p)
			}
		}
		return env, []func(p *memory.Proc){body0, func(p *memory.Proc) { r.Write(p, 1) }},
			func(*sched.Result) error { return nil }, func() { k = 8 - k }
	}
	_, err := engine.Run(leaky, engine.Config{Prune: engine.PruneNone, Workers: 1})
	if err == nil || !strings.HasPrefix(err.Error(), "engine: nondeterministic harness: step ") {
		t.Fatalf("leaky harness: got %v, want the nondeterminism error", err)
	}
}

// FuzzCheckpointResume decodes arbitrary bytes as a checkpoint and resumes
// the a1 n=2 walk from it: the walk never panics, and every rejection is a
// corrupt checkpoint. The seed corpus holds a real frontier — what
// `tascheck -scenario a1 -n 2 -prune sleep -workers 1 -max 8
// -checkpoint-out` writes — which must be the cut walk's checkpoint and
// resume to the uncut walk's 22 executions.
func FuzzCheckpointResume(f *testing.F) {
	h := a1Harness(f)
	saved, err := os.ReadFile("testdata/checkpoint-a1-n2-sleep-max8.json")
	if err != nil {
		f.Fatal(err)
	}
	var ck engine.Checkpoint
	if err := json.Unmarshal(saved, &ck); err != nil {
		f.Fatal(err)
	}
	cut, err := engine.Run(h, engine.Config{Prune: engine.PruneSleep, Workers: 1, MaxExecutions: 8})
	if err != nil {
		f.Fatal(err)
	}
	if !reflect.DeepEqual(cut.Checkpoint, &ck) {
		f.Fatalf("testdata checkpoint is not the frontier of the cut walk: %+v", cut.Checkpoint)
	}
	rest, err := engine.Run(h, engine.Config{Prune: engine.PruneSleep, Workers: 1, Resume: &ck})
	if err != nil {
		f.Fatal(err)
	}
	if got := cut.Executions + rest.Executions; got != 22 || rest.Partial {
		f.Fatalf("cut + resumed walk: %d + %d executions (partial %v), want 22 in all", cut.Executions, rest.Executions, rest.Partial)
	}

	f.Add(saved)
	for _, s := range []string{
		`{"items":[{"prefix":[{"proc":7}]}]}`,
		`{"items":[{"prefix":[{"proc":0,"crash":true}]}]}`,
		`{"items":[{"prefix":[{"proc":0}],"sleep":[{"proc":99},{"proc":-5}]}]}`,
		`{"items":[{"prefix":[{"proc":1},{"proc":1},{"proc":1},{"proc":1},{"proc":1},{"proc":1},{"proc":1}]}]}`,
		`{"items":[{"prefix":[]},{"sleep":[{"proc":0},{"proc":1}]}]}`,
		`{"items":[]}`,
		`{}`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ck engine.Checkpoint
		if json.Unmarshal(data, &ck) != nil {
			return
		}
		_, err := engine.Run(h, engine.Config{Prune: engine.PruneSleep, Workers: 1, MaxExecutions: 50, Resume: &ck})
		if err != nil && !strings.HasPrefix(err.Error(), corruptPrefix) {
			t.Fatalf("checkpoint %s: %v", data, err)
		}
	})
}
