package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/sched"
)

// genFamily classifies a generated scenario by its family (independent of
// the per-seed parameters embedded in the description).
func genFamily(t *testing.T, sc Scenario) string {
	t.Helper()
	switch {
	case strings.Contains(sc.Description, "tournament tree"):
		return "tas-tree"
	case strings.Contains(sc.Description, "fetch-and-increment"):
		return "fai-stack"
	case strings.Contains(sc.Description, "renaming network"):
		return "splitter-net"
	}
	t.Fatalf("unrecognized generated scenario description %q", sc.Description)
	return ""
}

// conformanceScenarios is the set the registry conformance tests cover:
// every registered scenario plus one generated scenario per family.
func conformanceScenarios(t *testing.T) []Scenario {
	t.Helper()
	scs := Registered()
	seen := map[string]bool{}
	for seed := int64(1); seed <= 20 && len(seen) < 3; seed++ {
		g := Generate(seed)
		family := genFamily(t, g)
		if !seen[family] {
			seen[family] = true
			scs = append(scs, g)
		}
	}
	if len(seen) < 3 {
		t.Fatalf("generator seeds 1..20 produced only %d families", len(seen))
	}
	return scs
}

func TestRegistryHasAtLeastTenScenarios(t *testing.T) {
	if n := len(Registered()); n < 10 {
		t.Fatalf("registry holds %d scenarios, want >= 10", n)
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("composed"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Fatal("unknown name must not resolve")
	}
	if _, err := Lookup("gen:notanumber"); err == nil {
		t.Fatal("malformed generator seed must not resolve")
	}
	g, err := Lookup("gen:42")
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "gen:42" {
		t.Fatalf("generated scenario named %q", g.Name)
	}
}

func TestListingMentionsEveryScenario(t *testing.T) {
	l := Listing()
	for _, sc := range Registered() {
		if !strings.Contains(l, sc.Name) {
			t.Fatalf("listing omits %s", sc.Name)
		}
	}
	if !strings.Contains(l, "gen:<seed>") {
		t.Fatal("listing omits the generator family")
	}
}

// TestConformance is the registry conformance check: every scenario (and
// one generated scenario per family) builds at n=2, returns a reset, declares
// its fingerprint capability truthfully, and resets completely — every
// execution a budget-cut walk checks on its reused instance replays, on a
// freshly constructed instance through the one-shot executor, to the same
// schedule, verdict and terminal fingerprint.
func TestConformance(t *testing.T) {
	const budget = 400
	for _, sc := range conformanceScenarios(t) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			n := sc.Procs(2)
			h, oracle := sc.Build(n, Options{})
			if oracle.String() == "" {
				t.Fatal("empty oracle")
			}
			env, bodies, _, reset := h()
			if len(bodies) != n || env.N() != n {
				t.Fatalf("built %d bodies over env of %d procs, want %d", len(bodies), env.N(), n)
			}
			if reset == nil {
				t.Fatal("harness returns no reset")
			}
			if _, ok := env.Fingerprint(); ok != sc.Params.Fingerprints {
				t.Fatalf("Fingerprint ok=%v, Params.Fingerprints=%v", ok, sc.Params.Fingerprints)
			}

			cfg := engine.Config{Prune: engine.PruneSourceDPOR, Workers: 1, MaxExecutions: budget}
			resetMatchesFresh(t, sc, h, cfg)
			if sc.Params.Crashes {
				hc, _ := sc.Build(n, Options{Crashes: true})
				cfg.Crashes = true
				resetMatchesFresh(t, sc, hc, cfg)
			}
		})
	}
}

// resetMatchesFresh walks h under cfg recording (schedule, terminal
// fingerprint, verdict) of every checked execution — the engine serializes
// check calls, and takes the fingerprint before the reset as here — then
// replays each schedule on a fresh h() and requires the same three.
func resetMatchesFresh(t *testing.T, sc Scenario, h engine.Harness, cfg engine.Config) {
	t.Helper()
	type checkedRun struct {
		schedule []sched.Choice
		fp       memory.Fingerprint
		fpOK     bool
		err      error
	}
	var runs []checkedRun
	_, err := engine.Run(func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env, bodies, check, reset := h()
		return env, bodies, func(res *sched.Result) error {
			run := checkedRun{schedule: append([]sched.Choice(nil), res.Schedule...)}
			run.fp, run.fpOK = env.Fingerprint()
			run.err = check(res)
			runs = append(runs, run)
			return run.err
		}, reset
	}, cfg)
	var ce *engine.CheckError
	if failed := errors.As(err, &ce); failed != sc.Params.ExpectFail || (err != nil && !failed) {
		t.Fatalf("walk returned %v, ExpectFail=%v", err, sc.Params.ExpectFail)
	}
	for _, want := range runs {
		env, bodies, check, _ := h()
		res := sched.Run(env, sched.NewReplay(want.schedule), bodies)
		if !reflect.DeepEqual(res.Schedule, want.schedule) {
			t.Fatalf("fresh instance ran %v, reused instance %v", res.Schedule, want.schedule)
		}
		if fp, ok := env.Fingerprint(); fp != want.fp || ok != want.fpOK {
			t.Fatalf("schedule %v: fresh fingerprint %v (ok=%v), reused %v (ok=%v)", want.schedule, fp, ok, want.fp, want.fpOK)
		}
		if err := check(res); fmt.Sprint(err) != fmt.Sprint(want.err) {
			t.Fatalf("schedule %v: fresh verdict %v, reused %v", want.schedule, err, want.err)
		}
	}
}

// sameReport compares the deterministic counters of two reports, ignoring
// the checkpoint frontier (a pointer, carried only by budget-cut walks).
func sameReport(a, b engine.Report) bool {
	return a.Executions == b.Executions && a.Pruned == b.Pruned &&
		a.CacheHits == b.CacheHits && a.Partial == b.Partial && a.MaxDepth == b.MaxDepth
}

// TestConformanceRepeatable re-runs one pooled exploration over the same
// harness value to certify that a completed walk leaves the instance fully
// reset (Run constructs fresh instances internally, so this exercises
// construction determinism rather than in-place reuse).
func TestConformanceRepeatable(t *testing.T) {
	for _, sc := range conformanceScenarios(t) {
		if sc.Params.ExpectFail {
			continue
		}
		h, _ := sc.Build(sc.Procs(2), Options{})
		cfg := engine.Config{Prune: engine.PruneSourceDPOR, Workers: 1, MaxExecutions: 200}
		first, err := engine.Run(h, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		second, err := engine.Run(h, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !sameReport(first, second) {
			t.Fatalf("%s: reports differ across runs: %+v vs %+v", sc.Name, first, second)
		}
	}
}

// TestHoldsDisjointClocks pins which stamp closes a hold on which clock.
// Process 1 acquires after process 0's pre stamp but before its rel stamp:
// under the gate that is a real overlap (rel is exact there), on the native
// clock it is the benign race of an acquire after the releasing write.
// An acquire before pre overlaps on both clocks, and an open hold
// conflicts with every later acquisition on both.
func TestHoldsDisjointClocks(t *testing.T) {
	a := hold{acq: 10, pre: 11, rel: 20}
	cases := []struct {
		name          string
		b             hold
		gated, native bool // want a violation on each clock
	}{
		{"after rel", hold{acq: 21, pre: 22, rel: 30}, false, false},
		{"between pre and rel", hold{acq: 15, pre: 16, rel: 30}, true, false},
		{"before pre", hold{acq: 9, pre: 12, rel: 30}, true, true},
	}
	for _, c := range cases {
		for _, scheduled := range []bool{true, false} {
			want := c.native
			if scheduled {
				want = c.gated
			}
			err := holdsDisjoint([][]hold{{a}, {c.b}}, scheduled)
			if (err != nil) != want {
				t.Errorf("%s, scheduled=%v: err = %v, want violation %v", c.name, scheduled, err, want)
			}
		}
	}
	open := hold{acq: 10, pre: 11}
	for _, scheduled := range []bool{true, false} {
		if holdsDisjoint([][]hold{{open}, {{acq: 40, pre: 41, rel: 50}}}, scheduled) == nil {
			t.Errorf("scheduled=%v: an open hold must conflict with a later acquisition", scheduled)
		}
	}
}
