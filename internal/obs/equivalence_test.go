package obs_test

// The observability contract: attaching obs to a run never changes it,
// and the counters the layer collects agree with the Report the engine
// returns. engine.TestRegistryDifferential checks it over the whole
// registry and the sweep; these tests pin single runs (a1 n=2, the -json
// object, the composed n=3 walk) from an external test package, because
// obs cannot import scenario (scenario imports obs).

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// TestObsCountersMatchReport pins each advisory counter to its Report
// twin on a single-worker run, where both are exact.
func TestObsCountersMatchReport(t *testing.T) {
	sc, err := scenario.Lookup("a1")
	if err != nil {
		t.Fatal(err)
	}
	h, _ := sc.Build(2, scenario.Options{})
	m := obs.New(1)
	rep, err := engine.Run(h, engine.Config{
		Prune: engine.PruneSourceDPOR, Workers: 1, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		obs  int64
		rep  int
	}{
		{"attempts", m.Attempts.Value(), rep.Attempts},
		{"executions", m.Executions.Value(), rep.Executions},
		{"pruned", m.Pruned.Value(), rep.Pruned},
		{"backtracks", m.Backtracks.Value(), rep.Backtracks},
		{"cache_hits", m.CacheHits.Value(), rep.CacheHits},
		{"replays", m.Replays.Value(), rep.Replays},
	} {
		if c.obs != int64(c.rep) {
			t.Errorf("%s: obs folded %d, report says %d", c.name, c.obs, c.rep)
		}
	}
	if rep.Replays != rep.Attempts-1 {
		t.Errorf("replays: report says %d, want every attempt but the root (%d)", rep.Replays, rep.Attempts-1)
	}
	if rep.WallTime <= 0 {
		t.Errorf("WallTime not recorded: %v", rep.WallTime)
	}
	s := m.Snapshot()
	if s.Depths.N != rep.Executions {
		t.Errorf("depth histogram holds %d samples, want one per execution (%d)", s.Depths.N, rep.Executions)
	}
	if s.Depths.Max != rep.MaxDepth {
		t.Errorf("depth histogram max %d, report max depth %d", s.Depths.Max, rep.MaxDepth)
	}
}

// TestObsResultJSONByteIdentity pins the tascheck -json contract: modulo
// the documented advisory wall_ms field, the single-run JSON object is
// byte-identical with obs attached or absent.
func TestObsResultJSONByteIdentity(t *testing.T) {
	sc, err := scenario.Lookup("a1")
	if err != nil {
		t.Fatal(err)
	}
	encode := func(m *obs.Metrics) []byte {
		h, oracle := sc.Build(2, scenario.Options{})
		rep, runErr := engine.Run(h, engine.Config{Prune: engine.PruneSourceDPOR, Workers: 1, Metrics: m})
		r := scenario.ExhaustiveResult("a1", 2, oracle, engine.PruneSourceDPOR, "exhaustive", rep, runErr)
		r.WallMS = 0 // the one advisory field that may differ run to run
		data, err := json.MarshalIndent(r, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	bare := encode(nil)
	instrumented := encode(obs.New(1))
	if !bytes.Equal(bare, instrumented) {
		t.Fatalf("-json output diverged under obs:\n%s\nvs\n%s", bare, instrumented)
	}
	if bytes.Contains(bare, []byte(`"wall_ms"`)) {
		t.Fatalf("normalized wall_ms should be omitted (omitempty):\n%s", bare)
	}
	if !bytes.Contains(bare, []byte(`"verdict": "ok"`)) {
		t.Fatalf("verdict lost from -json object:\n%s", bare)
	}
}

// TestObsOverheadComposed holds an attached (but unscraped) metrics domain
// to its contract on the composed n=3 exhaustive walk in load-independent
// form: at one worker, where advisory fields are exact too, the walk is the
// same walk with the domain attached or nil — 1956 executions in 1991
// attempts, every Report count equal — and each counter the domain kept
// equals its Report twin. What attaching it costs in wall-clock is the
// benchmark's obs.overhead_ratio (benchmark/), not a unit test's.
func TestObsOverheadComposed(t *testing.T) {
	sc, err := scenario.Lookup("composed")
	if err != nil {
		t.Fatal(err)
	}
	walk := func(m *obs.Metrics) engine.Report {
		h, _ := sc.Build(3, scenario.Options{})
		rep, err := engine.Run(h, engine.Config{Prune: engine.PruneSourceDPOR, Workers: 1, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		rep.WallTime = 0 // the one field that differs run to run
		return rep
	}
	bare := walk(nil)
	m := obs.New(1)
	with := walk(m)
	if bare.Executions != 1956 || bare.Attempts != 1991 {
		t.Fatalf("composed n=3 walk: %d executions in %d attempts, want 1956 in 1991", bare.Executions, bare.Attempts)
	}
	if !reflect.DeepEqual(bare, with) {
		t.Fatalf("attaching obs changed the walk:\nbare %+v\nobs  %+v", bare, with)
	}
	for _, c := range []struct {
		name string
		obs  int64
		rep  int
	}{
		{"attempts", m.Attempts.Value(), with.Attempts},
		{"executions", m.Executions.Value(), with.Executions},
		{"pruned", m.Pruned.Value(), with.Pruned},
		{"backtracks", m.Backtracks.Value(), with.Backtracks},
		{"replays", m.Replays.Value(), with.Replays},
	} {
		if c.obs != int64(c.rep) {
			t.Errorf("%s: obs folded %d, report says %d", c.name, c.obs, c.rep)
		}
	}
}

// TestSchedCensusComposed pins the executor's scheduling census on the same
// walk. A run's first decider is always process n-1 and each later one is
// whoever parked or retired last, so at one worker the split of decisions
// into self-grants (no coroutine switch) and handoffs (two) is a function of
// the schedules walked, exactly like the attempt count. The layer sources
// unregister when Run returns, so the census is read from inside the walk:
// the reset closure runs after every attempt, by which time that attempt's
// run has folded its counts.
func TestSchedCensusComposed(t *testing.T) {
	sc, err := scenario.Lookup("composed")
	if err != nil {
		t.Fatal(err)
	}
	h, _ := sc.Build(3, scenario.Options{})
	m := obs.New(1)
	var last map[string]int64
	tapped := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env, bodies, check, reset := h()
		return env, bodies, check, func() {
			reset()
			last = m.Snapshot().Counters
		}
	}
	rep, err := engine.Run(tapped, engine.Config{Prune: engine.PruneSourceDPOR, Workers: 1, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != 1956 || rep.Attempts != 1991 {
		t.Fatalf("composed n=3 walk: %d executions in %d attempts, want 1956 in 1991", rep.Executions, rep.Attempts)
	}
	for name, want := range map[string]int64{
		"sched_runs_total":        1991,
		"sched_decisions_total":   52142,
		"sched_self_grants_total": 27224,
		"sched_handoffs_total":    24918,
	} {
		if last[name] != want {
			t.Errorf("%s = %d, want %d", name, last[name], want)
		}
	}
}
