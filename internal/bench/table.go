// Package bench implements the experiment drivers that regenerate the
// paper's quantitative claims (see DESIGN.md's per-experiment index,
// E1–E10). Each driver produces a Table; cmd/composebench prints them and
// EXPERIMENTS.md records paper-claim-vs-measured for each.
//
// The experiments measure the paper's own complexity metric — shared-memory
// steps and RMW (fence) operations per high-level operation, under
// precisely controlled schedules — rather than wall-clock time; the
// wall-clock view is provided separately by the testing.B benchmarks in
// bench_test.go at the repository root.
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim the table regenerates
	Columns []string
	Rows    [][]string
	Notes   string
}

// AddRow appends a row, formatting every cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "*Paper claim:* %s\n\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	pad := func(s string, w int) string { return s + strings.Repeat(" ", w-len(s)) }
	b.WriteString("| ")
	for i, c := range t.Columns {
		b.WriteString(pad(c, widths[i]))
		b.WriteString(" | ")
	}
	b.WriteString("\n|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteString("|")
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		b.WriteString("| ")
		for i, c := range r {
			w := len(c)
			if i < len(widths) {
				w = widths[i]
			}
			b.WriteString(pad(c, w))
			b.WriteString(" | ")
		}
		b.WriteString("\n")
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n%s\n", t.Notes)
	}
	return b.String()
}

// Experiment names a driver.
type Experiment struct {
	ID   string
	Run  func() []*Table
	Desc string
}

// All returns every experiment driver, in order.
func All() []Experiment {
	return []Experiment{
		{"E1", RunE1, "constant-step speculative TAS vs linear obstruction-free consensus"},
		{"E2", RunE2, "Figure 1 dynamics: module usage vs contention, reset back-edge"},
		{"E3", RunE3, "cost of generic composition: state transfer and per-op steps"},
		{"E4", RunE4, "SplitConsensus: O(1) solo commits, aborts under interval contention"},
		{"E5", RunE5, "AbortableBakery: Θ(n) solo commits, aborts under step contention"},
		{"E6", RunE6, "biased-lock comparison: fence (RMW) complexity of reacquisition"},
		{"E7", RunE7, "Proposition 2 and the primitive census (consensus numbers)"},
		{"E8", RunE8, "solo-fast TAS: hardware only on own step contention"},
		{"E9", RunE9, "ablations: stage stacks and the speculative fetch-and-increment"},
		{"E10", RunE10, "exploration engine: partial-order reduction and worker-pool scaling"},
		{"E11", RunE11, "execution core: state-fingerprint caching on top of sleep sets"},
		{"E12", RunE12, "randomized exploration: PCT vs uniform bug finding, sampler coverage growth"},
		{"E14", RunE14, "unified engine core: source-DPOR vs legacy sleep sets, attempts and wall-clock"},
		{"E16", RunE16, "native stress: throughput scaling, latency tails and the RMW census"},
	}
}

// RowJSON is the machine-readable form of one experiment-table row
// (composebench -json): enough context to interpret the cells without the
// markdown rendering, one object per row so bench trajectories can be
// recorded and diffed line by line.
type RowJSON struct {
	Experiment string            `json:"experiment"`
	Table      string            `json:"table"`
	Title      string            `json:"title"`
	Row        int               `json:"row"`
	Cells      map[string]string `json:"cells"`
}

// RowsJSON flattens tables (produced by the experiment with the given id)
// into their RowJSON records, pairing each cell with its column name.
// Extra cells beyond the declared columns get positional names ("col7").
func RowsJSON(experiment string, tables []*Table) []RowJSON {
	var out []RowJSON
	for _, t := range tables {
		for i, row := range t.Rows {
			cells := make(map[string]string, len(row))
			for j, c := range row {
				name := fmt.Sprintf("col%d", j)
				if j < len(t.Columns) {
					name = t.Columns[j]
				}
				cells[name] = c
			}
			out = append(out, RowJSON{
				Experiment: experiment,
				Table:      t.ID,
				Title:      t.Title,
				Row:        i,
				Cells:      cells,
			})
		}
	}
	return out
}
