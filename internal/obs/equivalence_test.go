package obs_test

// The observability contract: attaching obs to a run never changes it.
// Every deterministic Report field, every canonical failure, every sweep
// row and every -json byte must be identical with a Metrics domain
// attached or absent, for every worker count — and the counters the layer
// does collect must agree with the Report the engine returns. An external
// test package so it can drive the real scenario registry (obs cannot
// import scenario: scenario imports obs).

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// obsBudget is the equivalence budget: scenario trees beyond it are skipped
// (budget-cut multi-worker walks are not deterministic).
const obsBudget = 30000

func runObsArm(t *testing.T, sc scenario.Scenario, n, workers int, m *obs.Metrics) (engine.Report, error) {
	t.Helper()
	h, _ := sc.Build(n, scenario.Options{})
	rep, err := engine.Run(h, engine.Config{
		Prune:         engine.PruneSourceDPOR,
		Workers:       workers,
		MaxExecutions: obsBudget,
		Metrics:       m,
	})
	var ce *engine.CheckError
	if err != nil && !errors.As(err, &ce) {
		t.Fatalf("%s n=%d workers=%d: engine error: %v", sc.Name, n, workers, err)
	}
	return rep, err
}

// assertObsEquivalent pins the instrumented arm to the bare baseline:
// identical deterministic Report fields and an identical canonical
// lex-least failure.
func assertObsEquivalent(t *testing.T, label string, base engine.Report, baseErr error, got engine.Report, gotErr error) {
	t.Helper()
	if (baseErr != nil) != (gotErr != nil) {
		t.Fatalf("%s: verdicts diverged: bare=%v obs=%v", label, baseErr, gotErr)
	}
	if baseErr != nil {
		var bce, gce *engine.CheckError
		errors.As(baseErr, &bce)
		errors.As(gotErr, &gce)
		if bce.Err.Error() != gce.Err.Error() || !reflect.DeepEqual(bce.Schedule, gce.Schedule) {
			t.Fatalf("%s: canonical failure diverged:\n%v %v\nvs\n%v %v", label, bce.Schedule, bce.Err, gce.Schedule, gce.Err)
		}
	}
	if base.Executions != got.Executions || base.MaxDepth != got.MaxDepth ||
		base.FingerprintOK != got.FingerprintOK || base.DistinctStates != got.DistinctStates {
		t.Fatalf("%s: deterministic fields diverged:\nbare %+v\nobs  %+v", label, base, got)
	}
	if !reflect.DeepEqual(base.TerminalStates, got.TerminalStates) {
		t.Fatalf("%s: terminal-state sets diverged", label)
	}
}

// TestObsEquivalenceRegistry drives every registered scenario with the
// full observability stack attached — metrics, an event log, fold-on-read
// layer sources — at 1, 4 and 8 workers, and holds each run to the bare
// baseline. This is the tentpole's advisory-only guarantee over the real
// registry.
func TestObsEquivalenceRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: walks the whole registry four ways")
	}
	compared := 0
	for _, sc := range scenario.Registered() {
		n := sc.Procs(2)
		base, baseErr := runObsArm(t, sc, n, 1, nil)
		if base.Partial {
			t.Logf("%s n=%d: tree exceeds %d attempts — skipped", sc.Name, n, obsBudget)
			continue
		}
		compared++
		for _, workers := range []int{1, 4, 8} {
			m := obs.New(workers)
			var events bytes.Buffer
			el := obs.NewEventLog(&events)
			m.SetEvents(el)
			got, gotErr := runObsArm(t, sc, n, workers, m)
			label := sc.Name + " workers=" + itoa(workers)
			assertObsEquivalent(t, label, base, baseErr, got, gotErr)
			if err := el.Close(); err != nil {
				t.Fatalf("%s: event log: %v", label, err)
			}
			// The layer must have actually observed the run it did not
			// perturb.
			if got := m.Executions.Value(); got != int64(base.Executions) {
				t.Fatalf("%s: obs counted %d executions, engine reported %d", label, got, base.Executions)
			}
			if events.Len() == 0 {
				t.Fatalf("%s: no lifecycle events emitted", label)
			}
		}
	}
	if compared == 0 {
		t.Fatal("no scenario fit the equivalence budget — nothing compared")
	}
}

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

// TestObsSweepByteIdentity pins the sweep rendering: the full registry
// sweep renders byte-identically with a shared Metrics domain attached or
// absent, across worker counts.
func TestObsSweepByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: sweeps the registry four times")
	}
	scs := scenario.Registered()
	cfg := scenario.SweepConfig{MaxExecutions: obsBudget, Samples: 200, Seed: 1, Workers: 1}
	baseRows, baseErr := scenario.Sweep(scs, cfg)
	base := scenario.Render(baseRows)
	for _, workers := range []int{1, 4, 8} {
		mcfg := cfg
		mcfg.Workers = workers
		mcfg.Metrics = obs.New(workers)
		var events bytes.Buffer
		el := obs.NewEventLog(&events)
		mcfg.Metrics.SetEvents(el)
		rows, err := scenario.Sweep(scs, mcfg)
		if (err != nil) != (baseErr != nil) {
			t.Fatalf("workers=%d: sweep error diverged: %v vs %v", workers, err, baseErr)
		}
		if got := scenario.Render(rows); got != base {
			t.Fatalf("workers=%d: sweep report not byte-identical with obs attached:\n%s\nvs\n%s", workers, got, base)
		}
		if err := el.Close(); err != nil {
			t.Fatal(err)
		}
		// One scenario_done event per row.
		done := bytes.Count(events.Bytes(), []byte(`"type":"scenario_done"`))
		if done != len(scs) {
			t.Fatalf("workers=%d: %d scenario_done events for %d rows", workers, done, len(scs))
		}
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

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
