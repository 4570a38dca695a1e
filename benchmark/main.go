// Command benchmark is the repository's performance instrument: five
// workloads over the three verifier tiers, six end-to-end metrics a user
// of the verifier sees, and — in a separate traced run — a per-layer
// ledger recorded from the outside, around each layer's public calls.
// BENCHMARK.json at the repository root names the metrics and their
// regression bounds; README.md in this directory says why each was chosen.
//
// Usage (through run.sh, which builds into .bench_build and runs from the
// repository root):
//
//	bash benchmark/run.sh                          # every workload, one child process each
//	bash benchmark/run.sh -trace 1                 # every workload, traced: the per-layer ledger
//	bash benchmark/run.sh -workload lin-wide-1m -seed 2 -seconds 10 -trace 0
//	bash benchmark/run.sh -aa -runs 10             # two sets back to back must agree within the bounds
//
// A single-workload run prints every metric by name with its unit and
// sample count, then one JSON object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	workloadName := flag.String("workload", "", "run this workload in this process (default: every workload, one child process each)")
	seed := flag.Int64("seed", 1, "input seed: feeds only the input generators")
	seconds := flag.Float64("seconds", 10, "length of the measuring window of a run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = end-to-end metrics, tracing off")
	toy := flag.Bool("toy", false, "toy input sizes (what the smoke test runs)")
	aa := flag.Bool("aa", false, "self-check: run two full sets back to back; fail unless they agree within the bounds")
	runs := flag.Int("runs", 3, "with -aa: runs per workload and set, seeds -seed..-seed+runs-1")
	outDir := flag.String("outdir", filepath.Join("benchmark", "out"), "directory the traced run writes Chrome trace JSON into")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments (see -h)")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)

	switch {
	case *aa:
		os.Exit(selfCheck(*seed, *seconds, *runs, *toy, *outDir))
	case *workloadName == "":
		code := 0
		for _, def := range workloads {
			res, err := runChild(def.name, *seed, *seconds, *trace == 1, *toy, *outDir, os.Stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.name, err)
				code = 1
			} else if !res.Correct {
				code = 1
			}
		}
		os.Exit(code)
	}

	def, ok := lookupWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; the workloads are:\n", *workloadName)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-22s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	e := &runEnv{seed: *seed, seconds: *seconds, toy: *toy, outDir: *outDir, counts: map[string]int64{}}
	res := runWorkload(def, e, *trace == 1)
	if err := report(os.Stdout, def, res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if e.failed > 0 {
		os.Exit(1)
	}
}

// output is the last line of a run: the acceptance driver's result object.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// countsPrefix marks the line carrying a run's exact counts, which the
// -aa check compares for identity across sets.
const countsPrefix = "#counts "

// report prints a run: a header telling two result files apart, every
// metric by name with unit and sample count, the ledger and the trace
// file of a traced run, any failed gate by name, the exact counts, and the
// result object as the last line.
func report(w io.Writer, def workloadDef, res runResult) error {
	e := res.env
	fmt.Fprintf(w, "# benchmark workload=%s seed=%d seconds=%g trace=%t toy=%t nproc=%d GOMAXPROCS=%d go=%s\n",
		def.name, e.seed, e.seconds, res.led != nil, e.toy, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(w, "# why: %s\n", def.why)
	out := output{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metricValue{}}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "%-28s %16.6g %-6s n=%d\n", m.def.name, m.value, m.def.unit, m.n)
		out.Metrics[m.def.name] = metricValue{Value: m.value, Unit: m.def.unit}
	}
	fmt.Fprintf(w, "%-28s %16.6g %-6s attempted=%d failed=%d\n", "fail_share", ratio(float64(e.failed), float64(e.attempted)), "ratio", e.attempted, e.failed)
	for _, c := range e.causes {
		fmt.Fprintf(w, "# FAILED %s\n", c)
	}
	if res.led != nil {
		res.led.print(w)
		path := filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d.trace.json", def.name, e.seed))
		if err := res.led.writeChrome(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "# trace: %s (spans of the first %d executions or rounds)\n", path, rawRuns)
	}
	counts, err := json.Marshal(e.counts)
	if err != nil {
		return fmt.Errorf("encoding counts: %w", err)
	}
	fmt.Fprintf(w, "%s%s\n", countsPrefix, counts)
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
