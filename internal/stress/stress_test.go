package stress

// Tests drive real scenarios natively with small round budgets, so they
// exercise genuine concurrency (and run under -race in CI) while staying
// fast and deterministic in everything but timing.

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
)

func mustScenario(t *testing.T, name string) scenario.Scenario {
	t.Helper()
	sc, err := scenario.Lookup(name)
	if err != nil {
		t.Fatalf("Lookup(%q): %v", name, err)
	}
	return sc
}

// TestRunA1 hammers the basic TAS scenario and checks the accounting
// invariants that hold regardless of scheduling: ops = rounds*G, every op
// took at least one shared-memory access, every access census field is
// consistent, and the latency histogram saw every op.
func TestRunA1(t *testing.T) {
	m := obs.New(4)
	r, err := Run(Config{
		Scenario:   mustScenario(t, "a1"),
		G:          4,
		Duration:   time.Minute, // MaxRounds is the real bound
		MaxRounds:  200,
		CheckEvery: 10,
		Seed:       1,
		Metrics:    m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds != 200 {
		t.Fatalf("rounds = %d, want 200", r.Rounds)
	}
	if r.Ops != int64(r.G)*r.Rounds {
		t.Fatalf("ops = %d, want G*rounds = %d", r.Ops, int64(r.G)*r.Rounds)
	}
	if r.Accesses < r.Ops {
		t.Errorf("accesses = %d < ops = %d: every op takes at least one access", r.Accesses, r.Ops)
	}
	// a1 is the paper's register-only obstruction-free module: its native
	// census must show zero RMWs — the same claim E7's census makes under
	// the gate, reproduced on real hardware.
	if r.RMWs != 0 {
		t.Errorf("a1 issued %d RMWs, want 0 (register-only algorithm)", r.RMWs)
	}
	if r.RMWFails > r.RMWs {
		t.Errorf("rmw fails = %d > rmw attempts = %d", r.RMWFails, r.RMWs)
	}
	if r.Latency.N() != r.Ops {
		t.Errorf("latency histogram saw %d samples, want %d", r.Latency.N(), r.Ops)
	}
	if r.CheckRounds != 20 {
		t.Errorf("check rounds = %d, want 20 (every 10th of 200)", r.CheckRounds)
	}
	if r.CheckFailures != 0 {
		t.Errorf("a1 spot-checks failed: %d (%s)", r.CheckFailures, r.FirstCheckErr)
	}
	if r.OpsPerSec <= 0 || r.WallMS <= 0 {
		t.Errorf("throughput accounting missing: ops/sec=%v wall=%vms", r.OpsPerSec, r.WallMS)
	}
	// The live counters carry the same totals, and a second run on the
	// same Metrics adds its own.
	wantCounters := func(rs ...Result) {
		t.Helper()
		var want Result
		for _, r := range rs {
			want.Ops += r.Ops
			want.Accesses += r.Accesses
			want.RMWs += r.RMWs
			want.RMWFails += r.RMWFails
		}
		s := m.Snapshot()
		for name, w := range map[string]int64{
			"stress_ops_total":          want.Ops,
			"stress_mem_accesses_total": want.Accesses,
			"stress_mem_rmw_total":      want.RMWs,
			"stress_rmw_fail_total":     want.RMWFails,
		} {
			if got := s.Counters[name]; got != w {
				t.Errorf("after %d runs: %s = %d, want %d", len(rs), name, got, w)
			}
		}
		if !strings.Contains(s.Prometheus(), "repro_stress_ops_total") {
			t.Error("stress counters missing from Prometheus rendering")
		}
	}
	wantCounters(r)
	r2, err := Run(Config{
		Scenario:  mustScenario(t, "composed"),
		G:         4,
		Duration:  time.Minute,
		MaxRounds: 100,
		Seed:      2,
		Metrics:   m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Accesses < r2.Ops {
		t.Errorf("second run: accesses = %d < ops = %d", r2.Accesses, r2.Ops)
	}
	wantCounters(r, r2)
}

// TestRunComposedLinearizeSpotCheck runs the composed TAS (linearize
// oracle) with a check every round: the sampled histories must all
// linearize.
func TestRunComposedLinearizeSpotCheck(t *testing.T) {
	r, err := Run(Config{
		Scenario:   mustScenario(t, "composed"),
		G:          3,
		Duration:   time.Minute,
		MaxRounds:  100,
		CheckEvery: 1,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.CheckRounds != 100 {
		t.Fatalf("check rounds = %d, want 100", r.CheckRounds)
	}
	if r.CheckFailures != 0 {
		t.Fatalf("composed spot-checks failed: %d (%s)", r.CheckFailures, r.FirstCheckErr)
	}
	// The composed TAS reaches its hardware A2 stage only under real step
	// contention (Lemma 7: registers only in contention-free runs), so the
	// RMW census is timing-dependent — assert only its internal
	// consistency, not a floor.
	if r.RMWs > r.Accesses || r.RMWFails > r.RMWs {
		t.Errorf("census inconsistent: accesses=%d rmws=%d fails=%d", r.Accesses, r.RMWs, r.RMWFails)
	}
}

// TestRunArrivalPacing: open-loop arrivals still complete rounds and
// record latencies that exclude the arrival gaps (a 1ms mean gap must not
// inflate per-op latency to milliseconds).
func TestRunArrivalPacing(t *testing.T) {
	r, err := Run(Config{
		Scenario:  mustScenario(t, "a1"),
		G:         2,
		Duration:  time.Minute,
		MaxRounds: 10,
		Arrival:   1000, // 1ms mean gap per worker
		Seed:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds != 10 {
		t.Fatalf("rounds = %d, want 10", r.Rounds)
	}
	if r.P50 > 5e5 {
		t.Errorf("p50 = %.0fns: arrival gaps leaked into op latency", r.P50)
	}
}

// TestSweepEventsAndTable: a two-point sweep emits the event triple and
// renders one row per point.
func TestSweepEventsAndTable(t *testing.T) {
	m := obs.New(4)
	var events strings.Builder
	log := obs.NewEventLog(&events)
	m.SetEvents(log)
	results, err := Sweep(Config{
		Scenario:  mustScenario(t, "a1"),
		G:         2,
		Duration:  time.Minute,
		MaxRounds: 20,
		Seed:      5,
		Metrics:   m,
	}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if err := log.Close(); err != nil {
		t.Fatalf("closing event log: %v", err)
	}
	for _, typ := range []string{"sweep_start", "point_done", "sweep_end"} {
		if !strings.Contains(events.String(), `"type":"`+typ+`"`) {
			t.Errorf("missing %s event in %s", typ, events.String())
		}
	}
	table := Table(results, 0)
	if !strings.Contains(table, "## stress a1") {
		t.Errorf("table missing header:\n%s", table)
	}
	// Header row plus one data row per point.
	if got := strings.Count(table, "\n| "); got != 3 {
		t.Errorf("table has %d pipe rows, want 3 (header + 2 points):\n%s", got, table)
	}
}

// TestRunLincheckOnline streams every tasfai round through the JIT
// checker concurrently with the workload: all 3·G·rounds recorded
// operations verify, the telemetry lands in the result, and the live
// counters agree.
func TestRunLincheckOnline(t *testing.T) {
	m := obs.New(8)
	r, err := Run(Config{
		Scenario:  mustScenario(t, "tasfai"),
		G:         8,
		Duration:  time.Minute,
		MaxRounds: 150,
		LinMode:   LinOnline,
		Seed:      6,
		Metrics:   m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.LinErr != "" {
		t.Fatalf("lincheck contract error: %s", r.LinErr)
	}
	if r.LinMode != "online" {
		t.Fatalf("LinMode = %q, want online", r.LinMode)
	}
	want := 3 * int64(r.G) * r.Rounds // tasfai records 1 TAS + 2 incs per proc
	if r.LinOps != want {
		t.Fatalf("LinOps = %d, want %d", r.LinOps, want)
	}
	if r.LinFailures != 0 {
		t.Fatalf("lincheck failures = %d (%s)", r.LinFailures, r.FirstLinErr)
	}
	if r.LinWindows < r.Rounds {
		t.Errorf("LinWindows = %d < rounds = %d: round barriers should close at least one window each", r.LinWindows, r.Rounds)
	}
	s := m.Snapshot()
	if got := s.Counters["stress_lincheck_ops_total"]; got != r.LinOps {
		t.Errorf("stress_lincheck_ops_total = %d, want %d", got, r.LinOps)
	}
	if got := s.Counters["stress_lincheck_rounds_total"]; got != r.Rounds {
		t.Errorf("stress_lincheck_rounds_total = %d, want %d", got, r.Rounds)
	}
	if got := s.Counters["stress_lincheck_failures_total"]; got != 0 {
		t.Errorf("stress_lincheck_failures_total = %d, want 0", got)
	}
}

// TestEveryLinearizeScenarioVerifiesOnline streams every registered
// linearize-oracle scenario through the online checker. The table gives
// each one's recorded operations per body and must name exactly those
// scenarios, so a new one cannot skip online verification.
func TestEveryLinearizeScenarioVerifiesOnline(t *testing.T) {
	opsPerBody := map[string]int64{"composed": 1, "quickstart": 1, "abstract": 1, "universalqueue": 2, "tasfai": 3}
	var names []string
	for _, sc := range scenario.Registered() {
		if _, o := sc.Build(sc.Procs(0), scenario.Options{}); o.Kind == scenario.OracleLinearize {
			names = append(names, sc.Name)
		}
	}
	if got := slices.Sorted(maps.Keys(opsPerBody)); !slices.Equal(got, names) {
		t.Fatalf("table names %v, linearize-oracle scenarios are %v", got, names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			r, err := Run(Config{
				Scenario:  mustScenario(t, name),
				G:         3,
				Duration:  time.Minute,
				MaxRounds: 200,
				LinMode:   LinOnline,
				Seed:      10,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.LinErr != "" {
				t.Fatalf("lincheck contract error: %s", r.LinErr)
			}
			if want := opsPerBody[name] * int64(r.G) * r.Rounds; r.LinOps != want {
				t.Fatalf("LinOps = %d, want %d", r.LinOps, want)
			}
			if r.LinFailures != 0 {
				t.Fatalf("lincheck failures = %d (%s)", r.LinFailures, r.FirstLinErr)
			}
		})
	}
}

// TestRunLincheckOnlineCap: LinMaxOps stops the online checker at exactly
// that operation, mid-round, and the result reports the truncation.
func TestRunLincheckOnlineCap(t *testing.T) {
	r, err := Run(Config{
		Scenario:  mustScenario(t, "tasfai"),
		G:         4,
		Duration:  time.Minute,
		MaxRounds: 100,
		LinMode:   LinOnline,
		LinMaxOps: 59,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.LinErr != "" {
		t.Fatalf("lincheck contract error: %s", r.LinErr)
	}
	if r.LinOps != 59 || !r.LinTruncated {
		t.Fatalf("LinOps = %d, truncated = %v over %d recorded ops: want exactly 59, truncated", r.LinOps, r.LinTruncated, 3*int64(r.G)*r.Rounds)
	}
	if r.LinFailures != 0 {
		t.Fatalf("lincheck failures = %d (%s)", r.LinFailures, r.FirstLinErr)
	}
}

// TestRunLincheckOffDisablesChecks: pure-throughput mode runs no spot
// checks and records no streaming telemetry.
func TestRunLincheckOff(t *testing.T) {
	r, err := Run(Config{
		Scenario:   mustScenario(t, "tasfai"),
		G:          2,
		Duration:   time.Minute,
		MaxRounds:  20,
		CheckEvery: 1,
		LinMode:    LinOff,
		Seed:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.CheckRounds != 0 {
		t.Fatalf("LinOff still spot-checked %d rounds", r.CheckRounds)
	}
	if r.LinOps != 0 || r.LinWindows != 0 {
		t.Fatalf("LinOff recorded streaming telemetry: ops=%d windows=%d", r.LinOps, r.LinWindows)
	}
}

// roundProbe is an unregistered scenario that checks the driver's round
// contract: each body sets its process's flag (and counts a stale flag,
// left over from a round that was never reset), the check fails unless
// every flag is set, and the reset clears the flags and counts its calls.
// Each body also takes exactly one shared-memory access, an RMW that never
// loses, so the run's memory census is known exactly. The flags are plain
// memory, so under -race any round that is checked or
// reset before all of its bodies returned is also a reported race.
func roundProbe(flags []bool, stale []int, resets *int) scenario.Scenario {
	return scenario.Scenario{
		Name:   "round-probe",
		Params: scenario.Params{MinProcs: 1},
		Build: func(n int, _ scenario.Options) (engine.Harness, scenario.Oracle) {
			h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
				ctr := memory.NewFetchInc(0)
				bodies := make([]func(p *memory.Proc), n)
				for i := range bodies {
					bodies[i] = func(p *memory.Proc) {
						ctr.Inc(p)
						if flags[i] {
							stale[i]++
						}
						flags[i] = true
					}
				}
				check := func(*sched.Result) error {
					for i, f := range flags {
						if !f {
							return fmt.Errorf("round closed before process %d's body returned", i)
						}
					}
					return nil
				}
				reset := func() {
					clear(flags)
					*resets++
				}
				return memory.NewEnv(n), bodies, check, reset
			}
			return h, scenario.Oracle{Kind: scenario.OracleInvariant, Invariant: "round-quiescent"}
		},
	}
}

// TestRunRoundContract: every round is quiescent when it is closed, a run
// capped at k rounds performs exactly k rounds, G·k operations, G·k memory
// accesses and k checks with k−1 resets in between, and a run whose
// deadline has passed stops after its first round.
func TestRunRoundContract(t *testing.T) {
	run := func(g, procs int, k int64, dur time.Duration) (Result, int) {
		t.Helper()
		flags, stale, resets := make([]bool, g), make([]int, g), 0
		r, err := Run(Config{
			Scenario:   roundProbe(flags, stale, &resets),
			G:          g,
			Duration:   dur,
			MaxRounds:  k,
			CheckEvery: 1,
			Procs:      procs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.CheckFailures != 0 {
			t.Fatalf("g=%d procs=%d: %d check failures (%s)", g, procs, r.CheckFailures, r.FirstCheckErr)
		}
		for i, s := range stale {
			if s != 0 {
				t.Fatalf("g=%d procs=%d: process %d found its flag set %d times: a round ran without a reset", g, procs, i, s)
			}
		}
		return r, resets
	}
	const k = 300
	for _, g := range []int{1, 3, 8} {
		for _, procs := range []int{1, 2} {
			r, resets := run(g, procs, k, time.Minute)
			if r.Accesses != r.Ops || r.RMWs != r.Ops || r.RMWFails != 0 {
				t.Errorf("g=%d procs=%d: census accesses=%d rmws=%d fails=%d, want %d, %d, 0",
					g, procs, r.Accesses, r.RMWs, r.RMWFails, r.Ops, r.Ops)
			}
			if r.Rounds != k || r.Ops != int64(g)*k || r.Latency.N() != r.Ops || r.CheckRounds != k || resets != k-1 {
				t.Errorf("g=%d procs=%d: rounds=%d ops=%d latency samples=%d checks=%d resets=%d, want %d, %d, %d, %d, %d",
					g, procs, r.Rounds, r.Ops, r.Latency.N(), r.CheckRounds, resets, k, g*k, g*k, k, k-1)
			}
		}
	}
	r, resets := run(3, 0, 0, time.Nanosecond)
	if r.Rounds != 1 || r.Ops != 3 || r.CheckRounds != 1 || resets != 0 {
		t.Errorf("expired deadline: rounds=%d ops=%d checks=%d resets=%d, want 1, 3, 1, 0", r.Rounds, r.Ops, r.CheckRounds, resets)
	}
}
