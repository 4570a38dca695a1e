// Command composebench runs the experiment suite that regenerates the
// paper's quantitative claims (DESIGN.md, E1–E12) and prints each result
// as a markdown table. EXPERIMENTS.md records a reference run.
//
// Usage:
//
//	composebench              # run every experiment
//	composebench -exp E3      # run one experiment
//	composebench -seed 7      # re-roll the randomized schedules
//	composebench -scenario fai -exp E10,E11,E12   # engine experiments on another scenario
//	composebench -json out.json   # additionally record rows as JSON
//	composebench -list        # list experiments
//
// Randomized experiments derive their schedules from -seed (default 1), so
// a table regenerates identically until the seed is changed deliberately.
// The engine experiments (E10–E12) drive harnesses from the scenario
// registry (internal/scenario); -scenario swaps in any registered or
// generated (gen:<seed>) scenario, so their rows can be produced for every
// checkable workload, not just the composed TAS.
// With -json, every table row is additionally written to the given file as
// a JSON array of one object per row ({experiment, table, title, row,
// cells}), the machine-readable form the bench trajectory (BENCH_*.json)
// records; the markdown output is unchanged.
// With -bench-dir, the timed experiments (E10–E12, E14, E16)
// additionally write one BENCH_<id>.json perf-trajectory file each — the
// committed files CI's bench-regression smoke compares fresh runs against
// via benchdiff (see EXPERIMENTS.md, "Perf-trajectory files").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/bench"
)

func main() {
	expFlag := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	seed := flag.Int64("seed", 1, "base seed for randomized experiment schedules")
	scenarioFlag := flag.String("scenario", "", "registered or gen:<seed> scenario the engine experiments (E10-E12) drive (default: each experiment's documented workload)")
	jsonOut := flag.String("json", "", "also write the experiment rows to this file as JSON")
	benchDir := flag.String("bench-dir", "", "write BENCH_<id>.json perf-trajectory files for the engine experiments into this directory")
	flag.Parse()
	bench.SetSeed(*seed)
	if err := bench.SetScenario(*scenarioFlag); err != nil {
		fmt.Fprintf(os.Stderr, "composebench: %v (try tascheck -list)\n", err)
		os.Exit(2)
	}

	experiments := bench.All()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Desc)
		}
		return
	}

	want := map[string]bool{}
	if *expFlag != "" {
		valid := make([]string, len(experiments))
		for i, e := range experiments {
			valid[i] = e.ID
		}
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if !slices.Contains(valid, id) {
				fmt.Fprintf(os.Stderr, "composebench: unknown experiment %q (valid: %s)\n", id, strings.Join(valid, ", "))
				os.Exit(2)
			}
			want[id] = true
		}
	}

	var rows []bench.RowJSON
	for _, e := range experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		fmt.Printf("== %s: %s ==\n\n", e.ID, e.Desc)
		tables := e.Run()
		for _, t := range tables {
			fmt.Println(t.Markdown())
		}
		if *jsonOut != "" {
			rows = append(rows, bench.RowsJSON(e.ID, tables)...)
		}
		if *benchDir != "" {
			if err := writeBench(*benchDir, e.ID); err != nil {
				fmt.Fprintf(os.Stderr, "composebench: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rows, "", " ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "composebench: encoding rows: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "composebench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("composebench: %d experiment rows written to %s\n", len(rows), *jsonOut)
	}
}

// writeBench drains the perf rows one experiment recorded into
// BENCH_<id>.json. Experiments without timed engine runs record nothing
// and produce no file.
func writeBench(dir, id string) error {
	perf := bench.TakePerf(id)
	if len(perf) == 0 {
		return nil
	}
	data, err := json.MarshalIndent(perf, "", " ")
	if err != nil {
		return fmt.Errorf("encoding perf rows: %w", err)
	}
	path := filepath.Join(dir, "BENCH_"+id+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("composebench: %d perf rows written to %s\n", len(perf), path)
	return nil
}
