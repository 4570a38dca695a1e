package main

// Running workloads as child processes. Without -workload the program
// re-executes itself once per workload run, so peak RSS and the GOMAXPROCS
// pin are per workload and all load comes from one process at a time. The
// -aa self-check builds on that: two full sets back to back must agree.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// childResult is a child run's result object plus its exact counts.
type childResult struct {
	output
	Counts map[string]int64
}

// runChild runs one workload in a child process, echoing its standard
// output to echo when non-nil, and parses the counts line and the final
// result object. A child that printed a result but exited non-zero (a
// failed gate) is returned as a result with Correct false, not an error.
func runChild(name string, seed int64, seconds float64, traced, toy bool, outDir string, echo io.Writer) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, fmt.Errorf("locating own executable: %w", err)
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg, "-outdir", outDir}
	if toy {
		args = append(args, "-toy")
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if echo != nil {
		if _, err := echo.Write(stdout.Bytes()); err != nil {
			return childResult{}, err
		}
	}

	var res childResult
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.output); err != nil || res.Metrics == nil {
		if runErr != nil {
			return childResult{}, fmt.Errorf("child failed without a result: %w", runErr)
		}
		return childResult{}, fmt.Errorf("child printed no result object: %v", err)
	}
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, countsPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &res.Counts); err != nil {
				return childResult{}, fmt.Errorf("parsing counts line: %w", err)
			}
		}
	}
	return res, nil
}

// set is one side of the self-check: per workload, every end-to-end value
// by metric, and the exact counts by run label.
type set struct {
	values map[string]map[string][]float64
	counts map[string]map[string]int64
	bad    int
}

func runSet(label string, seed int64, seconds float64, runs int, toy bool, outDir string) set {
	s := set{values: map[string]map[string][]float64{}, counts: map[string]map[string]int64{}}
	for _, def := range workloads {
		s.values[def.name] = map[string][]float64{}
		s.counts[def.name] = map[string]int64{}
		// runs untraced runs on consecutive seeds, then one traced run:
		// engine.attempts and the other one-worker counts come from it.
		for r := 0; r <= runs; r++ {
			traced := r == runs
			runSeed := seed + int64(r)
			if traced {
				runSeed = seed
			}
			fmt.Fprintf(os.Stderr, "benchmark: set %s %s seed %d traced=%t\n", label, def.name, runSeed, traced)
			res, err := runChild(def.name, runSeed, seconds, traced, toy, outDir, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: set %s %s: %v\n", label, def.name, err)
				s.bad++
				continue
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: set %s %s seed %d: %d of %d operations failed\n", label, def.name, runSeed, res.Failed, res.Attempted)
				s.bad++
			}
			for k, v := range res.Counts {
				s.counts[def.name][fmt.Sprintf("seed%d/traced=%t/%s", runSeed, traced, k)] = v
			}
			if !traced {
				for _, m := range endToEnd {
					s.values[def.name][m.name] = append(s.values[def.name][m.name], res.Metrics[m.name].Value)
				}
			}
		}
	}
	return s
}

// selfCheck runs two full sets of the same code back to back and returns
// the exit code: non-zero unless every end-to-end median of set B is
// within its own bound of set A and every exact count is identical.
func selfCheck(seed int64, seconds float64, runs int, toy bool, outDir string) int {
	a := runSet("A", seed, seconds, runs, toy, outDir)
	b := runSet("B", seed, seconds, runs, toy, outDir)
	failures := a.bad + b.bad

	fmt.Printf("%-22s %-12s %12s %26s %7s %12s %26s %7s %8s %6s\n",
		"workload", "metric", "A median", "A [q1, q3]", "A iqr", "B median", "B [q1, q3]", "B iqr", "B vs A", "bound")
	for _, def := range workloads {
		for _, m := range endToEnd {
			av, bv := a.values[def.name][m.name], b.values[def.name][m.name]
			am, bm := median(av), median(bv)
			aq1, aq3 := quartiles(av)
			bq1, bq3 := quartiles(bv)
			worse := ratio(bm-am, am) // positive = B worse, for lower-is-better
			if m.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.bound {
				verdict = "  REGRESSED"
				failures++
			}
			fmt.Printf("%-22s %-12s %12.6g %26s %6.1f%% %12.6g %26s %6.1f%% %+7.1f%% %5.0f%%%s\n",
				def.name, m.name, am, fmt.Sprintf("[%.6g, %.6g]", aq1, aq3), 100*spread(av),
				bm, fmt.Sprintf("[%.6g, %.6g]", bq1, bq3), 100*spread(bv), 100*worse, 100*m.bound, verdict)
		}
	}
	for _, def := range workloads {
		ac, bc := a.counts[def.name], b.counts[def.name]
		differ := 0
		for _, k := range slices.Sorted(maps.Keys(ac)) {
			if bv, ok := bc[k]; !ok || bv != ac[k] {
				fmt.Printf("COUNT MISMATCH %s %s: A=%d B=%d\n", def.name, k, ac[k], bv)
				differ++
			}
		}
		fmt.Printf("%-22s %d exact counts, %d differ across sets\n", def.name, len(ac), differ)
		failures += differ
	}
	if failures > 0 {
		fmt.Printf("self-check FAILED: %d problems\n", failures)
		return 1
	}
	fmt.Println("self-check ok: set B within every bound of set A, all exact counts identical")
	return 0
}
