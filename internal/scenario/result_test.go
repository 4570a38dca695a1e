package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestRunResultJSONRoundTrip pins the tascheck -json contract: the
// single-run object built from real exhaustive and sampled runs must
// survive an encode/decode round trip unchanged (so downstream tooling can
// re-emit it), and its verdict/failure fields must reflect the run.
func TestRunResultJSONRoundTrip(t *testing.T) {
	roundTrip := func(t *testing.T, r RunResult) {
		t.Helper()
		data, err := json.MarshalIndent(r, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		var back RunResult
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, back) {
			t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", r, back)
		}
		re, err := json.MarshalIndent(back, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if string(re) != string(data) {
			t.Fatalf("re-encoding not byte-identical:\n%s\nvs\n%s", re, data)
		}
	}

	// A passing exhaustive run.
	sc, err := Lookup("a1")
	if err != nil {
		t.Fatal(err)
	}
	h, oracle := sc.Build(2, Options{})
	rep, runErr := engine.Run(h, engine.Config{Prune: engine.PruneSourceDPOR, Workers: 1})
	r := ExhaustiveResult("a1", 2, oracle, engine.PruneSourceDPOR, "exhaustive", rep, runErr)
	if r.Verdict != "ok" || r.Failure != nil || r.Executions != 22 || r.Prune != "dpor" {
		t.Fatalf("a1 exhaustive result: %+v", r)
	}
	if r.Replays != 21 {
		t.Fatalf("a1 replay counter not carried: %+v", r)
	}
	roundTrip(t, r)

	// A failing exhaustive run: the planted handoff bug. The failure must
	// carry the canonical schedule.
	hb, err := Lookup("handoffbug")
	if err != nil {
		t.Fatal(err)
	}
	h, oracle = hb.Build(hb.Procs(2), Options{})
	rep, runErr = engine.Run(h, engine.Config{Prune: engine.PruneSourceDPOR, Workers: 1})
	r = ExhaustiveResult(hb.Name, hb.Procs(2), oracle, engine.PruneSourceDPOR, "exhaustive", rep, runErr)
	if r.Verdict != "fail" || r.Failure == nil || len(r.Failure.Schedule) == 0 || r.Failure.Sampled {
		t.Fatalf("handoffbug exhaustive result: %+v", r)
	}
	if !strings.Contains(r.Failure.Error, "handoff") {
		t.Fatalf("failure cause lost: %+v", r.Failure)
	}
	roundTrip(t, r)

	// A failing sampled run: the failure must carry the reproducing seed.
	h, oracle = hb.Build(5, Options{})
	srep, sErr := engine.Sample(h, engine.SampleConfig{Sampler: engine.SamplerPCT, PCTDepth: 2, Samples: 2000, Seed: 1})
	r = SampledResult(hb.Name, 5, oracle, "pct", srep, sErr)
	if r.Verdict != "fail" || r.Failure == nil || !r.Failure.Sampled || r.Failure.Seed == 0 {
		t.Fatalf("handoffbug sampled result: %+v", r)
	}
	roundTrip(t, r)
}

// TestRunResultTimingFields pins the advisory wall_ms/cut_by columns: a
// completed run carries a positive wall-clock and no cut cause, a
// budget-cut run names its budget, and both fields survive the JSON round
// trip (they are part of the object, just excluded from cross-run
// comparisons).
func TestRunResultTimingFields(t *testing.T) {
	sc, err := Lookup("a1")
	if err != nil {
		t.Fatal(err)
	}
	h, oracle := sc.Build(2, Options{})
	rep, runErr := engine.Run(h, engine.Config{Prune: engine.PruneSourceDPOR, Workers: 1})
	r := ExhaustiveResult("a1", 2, oracle, engine.PruneSourceDPOR, "exhaustive", rep, runErr)
	if r.WallMS <= 0 {
		t.Fatalf("completed run reports wall_ms=%v", r.WallMS)
	}
	if r.CutBy != "" {
		t.Fatalf("completed run reports cut_by=%q", r.CutBy)
	}

	h, oracle = sc.Build(2, Options{})
	rep, runErr = engine.Run(h, engine.Config{Workers: 1, MaxExecutions: 50})
	r = ExhaustiveResult("a1", 2, oracle, engine.PruneNone, "exhaustive-partial", rep, runErr)
	if r.CutBy != "executions" {
		t.Fatalf("budget-cut run reports cut_by=%q, want executions", r.CutBy)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"cut_by":"executions"`) || !strings.Contains(string(data), `"wall_ms":`) {
		t.Fatalf("timing fields lost in JSON: %s", data)
	}

	// Sampled results carry wall-clock too; sampling has no cut cause.
	h, oracle = sc.Build(5, Options{})
	srep, sErr := engine.Sample(h, engine.SampleConfig{Samples: 50, Seed: 1, Workers: 1})
	sr := SampledResult("a1", 5, oracle, "random", srep, sErr)
	if sr.WallMS <= 0 || sr.CutBy != "" {
		t.Fatalf("sampled result timing fields: wall_ms=%v cut_by=%q", sr.WallMS, sr.CutBy)
	}
}
