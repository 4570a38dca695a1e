// Command stresscheck is the native-execution stress frontend: it hammers
// a registered scenario with G real goroutines on the ungated memory path
// (internal/stress), where the Go scheduler and the hardware — not the
// cooperative gate — pick the interleavings. Where tascheck proves
// correctness over every interleaving of a small instance, stresscheck
// measures what the paper's claims are empirically about: throughput
// scaling over a GOMAXPROCS sweep, per-operation latency tails
// (p50/p90/p99/p999 from a mergeable log-bucketed histogram), and the RMW
// contention census — attempts and lost races — from the memory layer's
// access census. Recorded histories are spot-checked through the
// scenario's own oracle every -check-every rounds (sampling, not
// verification: the exhaustive tiers remain the source of truth for
// correctness).
//
// The default output is one GBBS-style markdown scaling table per run
// (one row per sweep point); -json prints the result array instead. The
// observability surfaces mirror tascheck: -debug-addr serves live
// Prometheus /metrics (repro_stress_* counters and latency gauges update
// mid-run), -events writes sweep_start/point_done/sweep_end JSON lines.
//
// Exit codes: 0 ok, 1 when spot-checks failed on a scenario that is not
// a planted-bug (ExpectFail) scenario — or never failed on one that is,
// 2 usage errors.
//
// Usage:
//
//	stresscheck -scenario a1 -g 8 -procs-sweep 1,2,4,8
//	stresscheck -scenario composed -g 8 -duration 5s -arrival 100000
//	stresscheck -scenario composed -g 8 -debug-addr 127.0.0.1:6060 -events ev.jsonl
//	stresscheck -scenario a1 -g 4 -max-rounds 1000 -json
//	stresscheck -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stress"
)

func main() {
	scenarioName := flag.String("scenario", "", "scenario to stress: a registered name or gen:<seed> (see -list)")
	list := flag.Bool("list", false, "print every registered and generator scenario with its oracle, then exit")
	g := flag.Int("g", defG, "stress goroutines (clamped to the scenario's process range)")
	duration := flag.Duration("duration", defDuration, "wall-clock budget per sweep point")
	arrival := flag.Float64("arrival", 0, "per-goroutine arrival rate in ops/sec (Poisson gaps; 0 = closed loop)")
	procsSweep := flag.String("procs-sweep", "", "comma-separated GOMAXPROCS values, one sweep point each (empty = one point at the current setting)")
	checkEvery := flag.Int("check-every", defCheckEvery, "spot-check the recorded history every Nth round (-1 = never)")
	maxRounds := flag.Int64("max-rounds", 0, "additionally cap rounds per point (0 = duration only; the deterministic-workload knob)")
	seed := flag.Int64("seed", defSeed, "seed for the arrival-gap generators")
	lincheck := flag.String("lincheck", defLincheck, "linearizability tier: spot (sampled spot-checks), off, online (stream every round's history through the JIT checker during the run)")
	linWindow := flag.Int("lin-window", 0, "JIT checker window: max resident ops between quiescent cuts (0 = checker default; needs -lincheck online)")
	linMaxConfigs := flag.Int("lin-max-configs", 0, "JIT checker per-segment configuration budget (0 = checker default; needs -lincheck online)")
	linMaxOps := flag.Int64("lin-max-ops", 0, "cap the operations fed to the checker, later rounds run unverified (0 = unlimited; needs -lincheck online)")
	jsonOut := flag.Bool("json", false, "print the sweep results as one JSON array instead of the scaling table")
	events := flag.String("events", "", "write sweep lifecycle events to this file as JSON lines")
	debugAddr := flag.String("debug-addr", "", "serve /metrics (Prometheus), /statusz (JSON) and /debug/pprof on this address for the run's duration")
	flag.Parse()

	cf := &cliFlags{
		g:             *g,
		duration:      *duration,
		arrival:       *arrival,
		procsSweep:    *procsSweep,
		checkEvery:    *checkEvery,
		maxRounds:     *maxRounds,
		seed:          *seed,
		lincheck:      *lincheck,
		linWindow:     *linWindow,
		linMaxConfigs: *linMaxConfigs,
		linMaxOps:     *linMaxOps,
		jsonOut:       *jsonOut,
		events:        *events,
		debugAddr:     *debugAddr,
	}
	path := pathStress
	if *list {
		path = pathList
	}
	if err := validateFlags(cf, path, pathContexts()); err != nil {
		fmt.Fprintf(os.Stderr, "stresscheck: %v\n", err)
		os.Exit(2)
	}
	if *list {
		fmt.Print(scenario.Listing())
		return
	}
	if *scenarioName == "" {
		fmt.Fprintln(os.Stderr, "stresscheck: -scenario is required (see -list)")
		os.Exit(2)
	}
	sc, err := scenario.Lookup(*scenarioName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stresscheck: %v\n%s", err, scenario.Listing())
		os.Exit(2)
	}
	procsList, err := parseProcsSweep(*procsSweep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stresscheck: %v\n", err)
		os.Exit(2)
	}

	n := sc.Procs(*g)
	m := obs.New(n)
	m.SetInfo("mode", "stress")
	m.SetInfo("scenario", sc.Name)
	m.SetInfo("g", strconv.Itoa(n))
	m.SetInfo("duration", duration.String())

	var el *obs.EventLog
	if *events != "" {
		out, err := os.Create(*events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stresscheck: opening -events file: %v\n", err)
			os.Exit(2)
		}
		el = obs.NewEventLog(out)
		m.SetEvents(el)
	}
	var srv *obs.Server
	if *debugAddr != "" {
		srv, err = obs.Serve(*debugAddr, m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stresscheck: starting -debug-addr server: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "stresscheck: debug endpoint on http://%s (/metrics, /statusz, /debug/pprof)\n", srv.Addr)
	}

	linMode, err := stress.ParseLinMode(*lincheck)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stresscheck: %v\n", err)
		os.Exit(2)
	}
	m.SetInfo("lincheck", linMode.String())

	results, runErr := stress.Sweep(stress.Config{
		Scenario:      sc,
		G:             *g,
		Duration:      *duration,
		MaxRounds:     *maxRounds,
		Arrival:       *arrival,
		CheckEvery:    *checkEvery,
		Seed:          *seed,
		LinMode:       linMode,
		LinWindow:     *linWindow,
		LinMaxConfigs: *linMaxConfigs,
		LinMaxOps:     *linMaxOps,
		Metrics:       m,
	}, procsList)

	if el != nil {
		if cerr := el.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "stresscheck: writing -events file: %v\n", cerr)
		}
	}
	if srv != nil {
		defer srv.Close()
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "stresscheck: %v\n", runErr)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "stresscheck: encoding results: %v\n", err)
			os.Exit(1)
		}
	} else {
		fmt.Print(stress.Table(results, *duration))
	}

	os.Exit(verdict(sc, results))
}

// verdict maps the correctness tally — spot-checks and, under -lincheck
// online, full-history verification — to the exit code: a normal
// scenario must never fail either; a planted-bug scenario is expected to
// be caught (though native scheduling may not hit the buggy window in a
// short run — only an actual observed failure counts either way). A
// checker contract error (budget overrun, lost trace source) is always an
// exit-1 failure: it means the verification the user asked for did not
// happen.
func verdict(sc scenario.Scenario, results []stress.Result) int {
	var fails, checks, linFails, linOps int64
	for _, r := range results {
		fails += r.CheckFailures
		checks += r.CheckRounds
		linFails += r.LinFailures
		linOps += r.LinOps
		if r.LinErr != "" {
			fmt.Fprintf(os.Stderr, "stresscheck: lincheck error (procs=%d): %s\n", r.Procs, r.LinErr)
			return 1
		}
	}
	if sc.Params.ExpectFail {
		if fails+linFails > 0 {
			fmt.Fprintf(os.Stderr, "stresscheck: planted bug caught (%d spot-check, %d lincheck failures; expected)\n", fails, linFails)
			return 0
		}
		if checks > 0 || linOps > 0 {
			fmt.Fprintf(os.Stderr, "stresscheck: planted-bug scenario passed every check — native scheduling did not hit the buggy window\n")
			return 1
		}
		return 0
	}
	if linFails > 0 {
		for _, r := range results {
			if r.FirstLinErr != "" {
				fmt.Fprintf(os.Stderr, "stresscheck: lincheck FAILED (procs=%d): %s\n", r.Procs, r.FirstLinErr)
				break
			}
		}
		fmt.Fprintf(os.Stderr, "stresscheck: %d round histories failed linearizability (%d ops verified)\n", linFails, linOps)
		return 1
	}
	if fails > 0 {
		for _, r := range results {
			if r.FirstCheckErr != "" {
				fmt.Fprintf(os.Stderr, "stresscheck: spot-check FAILED (procs=%d): %s\n", r.Procs, r.FirstCheckErr)
				break
			}
		}
		fmt.Fprintf(os.Stderr, "stresscheck: %d of %d spot-checks failed\n", fails, checks)
		return 1
	}
	return 0
}

// parseProcsSweep parses "1,2,4,8" into the GOMAXPROCS sweep points.
func parseProcsSweep(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -procs-sweep entry %q (want positive integers, e.g. 1,2,4,8)", p)
		}
		out = append(out, v)
	}
	return out, nil
}
