package bench

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func cellInt(t *testing.T, tab *Table, row, col int) int {
	t.Helper()
	v, err := strconv.Atoi(tab.Rows[row][col])
	if err != nil {
		t.Fatalf("%s row %d col %d: %q not an int", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[row][col], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %q not a float", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func TestE1Shapes(t *testing.T) {
	tab := RunE1()[0]
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	first := cellInt(t, tab, 0, 1)
	for i := range tab.Rows {
		if got := cellInt(t, tab, i, 1); got != first {
			t.Fatalf("A1 steps not flat: row %d = %d, first = %d", i, got, first)
		}
		if cellInt(t, tab, i, 2) != 0 || cellInt(t, tab, i, 4) != 0 {
			t.Fatalf("TAS rows must have zero RMWs")
		}
	}
	// Bakery grows: last n (64) must exceed first (1) several-fold.
	if cellInt(t, tab, 6, 5) < 8*cellInt(t, tab, 0, 5) {
		t.Fatalf("bakery steps did not grow linearly: %v", tab.Rows)
	}
}

func TestE2Shapes(t *testing.T) {
	tab := RunE2()[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// A1 share decreases monotonically with contention; RMW/op increases.
	prevA1, prevRMW := 101.0, -1.0
	for i := range tab.Rows {
		a1 := cellFloat(t, tab, i, 2)
		rmw := cellFloat(t, tab, i, 5)
		if a1 > prevA1 {
			t.Fatalf("A1 share increased with contention: %v", tab.Rows)
		}
		if rmw < prevRMW {
			t.Fatalf("RMW/op decreased with contention: %v", tab.Rows)
		}
		prevA1, prevRMW = a1, rmw
	}
	if cellFloat(t, tab, 0, 2) != 100.0 {
		t.Fatalf("0%% contention must be fully A1-served: %v", tab.Rows[0])
	}
	if cellFloat(t, tab, 0, 5) != 0 {
		t.Fatalf("0%% contention must be RMW-free: %v", tab.Rows[0])
	}
}

func TestE3Shapes(t *testing.T) {
	tabs := RunE3()
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	ta := tabs[0]
	// Universal switch cost grows with H; TAS column constant.
	firstTAS := cellInt(t, ta, 0, 2)
	for i := range ta.Rows {
		if cellInt(t, ta, i, 2) != firstTAS {
			t.Fatalf("TAS switch cost not constant: %v", ta.Rows)
		}
	}
	n := len(ta.Rows)
	if cellInt(t, ta, n-1, 1) < 4*cellInt(t, ta, 1, 1) {
		t.Fatalf("universal switch cost did not grow: %v", ta.Rows)
	}
	tb := tabs[1]
	if cellFloat(t, tb, len(tb.Rows)-1, 1) < 2*cellFloat(t, tb, 0, 1) {
		t.Fatalf("universal per-op cost did not grow with n: %v", tb.Rows)
	}
	lastTAS := cellInt(t, tb, len(tb.Rows)-1, 2)
	if lastTAS != cellInt(t, tb, 0, 2) {
		t.Fatalf("TAS per-op cost not flat: %v", tb.Rows)
	}
}

func TestE4Shapes(t *testing.T) {
	tab := RunE4()[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Solo: all commits, no aborts.
	if cellInt(t, tab, 0, 1) != 2 || cellInt(t, tab, 0, 2) != 0 {
		t.Fatalf("solo row: %v", tab.Rows[0])
	}
	// Register-only: zero RMW everywhere.
	for i := range tab.Rows {
		if cellFloat(t, tab, i, 4) != 0 {
			t.Fatalf("split consensus used RMWs: %v", tab.Rows[i])
		}
	}
}

func TestE5Shapes(t *testing.T) {
	tab := RunE5()[0]
	for i := range tab.Rows {
		if cellInt(t, tab, i, 3) != 0 {
			t.Fatalf("bakery used RMWs: %v", tab.Rows[i])
		}
		ratio := cellFloat(t, tab, i, 2)
		if ratio < 3 || ratio > 9 {
			t.Fatalf("steps/n = %v outside Θ(n) band: %v", ratio, tab.Rows[i])
		}
	}
}

func TestE6Shapes(t *testing.T) {
	tab := RunE6()[0]
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	for _, zero := range []string{"speculative TAS (this paper)", "solo-fast TAS (Appendix B)", "biased lock [9]"} {
		if byName[zero][2] != "0.00" {
			t.Fatalf("%s should be RMW-free: %v", zero, byName[zero])
		}
	}
	for _, one := range []string{"TTAS lock", "hardware TAS"} {
		if byName[one][2] != "1.00" {
			t.Fatalf("%s should pay exactly one RMW: %v", one, byName[one])
		}
	}
}

func TestE7Shapes(t *testing.T) {
	tabs := RunE7()
	ta, tb := tabs[0], tabs[1]
	for _, r := range ta.Rows {
		if r[2] != "0" || r[3] != "0" {
			t.Fatalf("Proposition 2 violated: %v", r)
		}
	}
	// Composed TAS: zero CAS; universal: nonzero CAS.
	if tb.Rows[0][4] != "0" {
		t.Fatalf("composed TAS used CAS: %v", tb.Rows[0])
	}
	if tb.Rows[1][4] == "0" {
		t.Fatalf("universal construction should use CAS under contention: %v", tb.Rows[1])
	}
	if v, _ := strconv.Atoi(tb.Rows[0][2]); v > 4 {
		t.Fatalf("composed TAS should use at most one hardware TAS op per process: %v", tb.Rows[0])
	}
}

func TestE8Shapes(t *testing.T) {
	tab := RunE8()[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[0][2], "A2") {
		t.Fatalf("original variant should route the bystander to A2: %v", tab.Rows[0])
	}
	if !strings.Contains(tab.Rows[1][2], "A1") {
		t.Fatalf("solo-fast variant should keep the bystander on A1: %v", tab.Rows[1])
	}
	for i := range tab.Rows {
		if tab.Rows[i][4] != "0" {
			t.Fatalf("bystander paid an RMW: %v", tab.Rows[i])
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Claim: "c", Columns: []string{"a", "bb"}, Notes: "n"}
	tab.AddRow(1, "x")
	md := tab.Markdown()
	for _, want := range []string{"### X — t", "*Paper claim:* c", "| a ", "| bb ", "| 1 ", "n"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestAllExperimentsListed(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.Run == nil || e.Desc == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

func TestE9Shapes(t *testing.T) {
	tabs := RunE9()
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	ta := tabs[0]
	// The bare CAS stack pays at least one more solo RMW/op than any
	// register-front stack (the consensus CAS itself).
	casOnly := cellFloat(t, ta, 0, 2)
	for i := 1; i < len(ta.Rows); i++ {
		if cellFloat(t, ta, i, 2) >= casOnly {
			t.Fatalf("register-front stack row %d should pay fewer solo RMWs than bare CAS: %v", i, ta.Rows)
		}
	}
	tb := tabs[1]
	if tb.Rows[0][2] != "0.00" {
		t.Fatalf("speculative dispenser solo path must be RMW-free: %v", tb.Rows[0])
	}
	if tb.Rows[1][2] != "1.00" {
		t.Fatalf("hardware dispenser pays exactly one RMW per ticket: %v", tb.Rows[1])
	}
}

func TestE10Shapes(t *testing.T) {
	tables := RunE10()
	if len(tables) != 1 {
		t.Fatalf("E10 tables = %d", len(tables))
	}
	rows := tables[0].Rows
	if len(rows) != 5 {
		t.Fatalf("E10 rows = %d, want seed n=2, sleep n=2, dpor n=2, sleep n=3, dpor n=3", len(rows))
	}
	seedExecs := cellInt(t, tables[0], 0, 2)
	sleepExecs := cellInt(t, tables[0], 1, 2)
	dporExecs := cellInt(t, tables[0], 2, 2)
	if seedExecs == 0 || sleepExecs == 0 || dporExecs == 0 {
		t.Fatalf("E10 executions missing: %v", rows)
	}
	if sleepExecs*3 > seedExecs {
		t.Fatalf("sleep-set mode ran %d executions, want <= 1/3 of the seed mode's %d", sleepExecs, seedExecs)
	}
	// Both reductions complete one interleaving per trace class — equal
	// executions — while source-DPOR attempts strictly fewer runs. Checked
	// on the n=2 pair (rows 1, 2) and the n=3 pair (rows 3, 4).
	for _, pair := range [][2]int{{1, 2}, {3, 4}} {
		sleepE, dporE := cellInt(t, tables[0], pair[0], 2), cellInt(t, tables[0], pair[1], 2)
		if sleepE != dporE {
			t.Fatalf("E10 rows %v: executions diverged between reductions: %d vs %d", pair, sleepE, dporE)
		}
		sleepA, dporA := cellInt(t, tables[0], pair[0], 3), cellInt(t, tables[0], pair[1], 3)
		if dporA >= sleepA {
			t.Fatalf("E10 rows %v: source-DPOR attempted %d runs, want strictly fewer than sleep sets' %d", pair, dporA, sleepA)
		}
	}
}

func TestE14Shapes(t *testing.T) {
	tables := RunE14()
	if len(tables) != 1 {
		t.Fatalf("E14 tables = %d", len(tables))
	}
	rows := tables[0].Rows
	if len(rows) != 8 {
		t.Fatalf("E14 rows = %d, want 4 harnesses x 2 modes", len(rows))
	}
	for r := 0; r < len(rows); r += 2 {
		sleepExecs, dporExecs := cellInt(t, tables[0], r, 2), cellInt(t, tables[0], r+1, 2)
		if sleepExecs != dporExecs {
			t.Fatalf("E14 rows %d/%d: executions diverged between reductions: %d vs %d", r, r+1, sleepExecs, dporExecs)
		}
		sleepAtt, dporAtt := cellInt(t, tables[0], r, 3), cellInt(t, tables[0], r+1, 3)
		if dporAtt >= sleepAtt {
			t.Fatalf("E14 rows %d/%d: dpor attempted %d runs, want strictly fewer than sleep's %d", r, r+1, dporAtt, sleepAtt)
		}
	}
	// The reference attempt counts of the n=3 rows are pinned exactly.
	if a := cellInt(t, tables[0], 2, 3); a != 4037 {
		t.Fatalf("a1 n=3 sleep attempts = %d, want 4037", a)
	}
	if a := cellInt(t, tables[0], 3, 3); a != 1127 {
		t.Fatalf("a1 n=3 dpor attempts = %d, want 1127", a)
	}
	if a := cellInt(t, tables[0], 6, 3); a != 7165 {
		t.Fatalf("composed n=3 sleep attempts = %d, want 7165", a)
	}
	if a := cellInt(t, tables[0], 7, 3); a != 1991 {
		t.Fatalf("composed n=3 dpor attempts = %d, want 1991", a)
	}
	// Every trajectory row carries the advisory per-attempt allocation
	// figures (the budget itself is gated in internal/engine).
	perf := TakePerf("E14")
	if len(perf) != len(rows) {
		t.Fatalf("E14 perf rows = %d, want one per table row (%d)", len(perf), len(rows))
	}
	for _, p := range perf {
		if p.AllocsPerAttempt <= 0 || p.BytesPerAttempt <= 0 {
			t.Fatalf("E14 perf row %q lacks allocation figures: %+v", p.Label, p)
		}
	}
}

func TestE12Shapes(t *testing.T) {
	tables := RunE12()
	if len(tables) != 2 {
		t.Fatalf("E12 tables = %d", len(tables))
	}
	bug := tables[0]
	if len(bug.Rows) != len(e12Samplers) {
		t.Fatalf("E12a rows = %d, want %d", len(bug.Rows), len(e12Samplers))
	}
	failures := map[string]int{}
	for i, s := range e12Samplers {
		failures[s.name] = cellInt(t, bug, i, 1)
	}
	// The planted bug must stay invisible to unstructured sampling and to
	// PCT without its change point, and visible to matching-depth PCT and
	// the straggler rates model.
	for _, blind := range []string{"uniform random", "walk", "pct d=1"} {
		if failures[blind] != 0 {
			t.Fatalf("E12a: %s found the rare bug (%d failures) — not rare enough: %v", blind, failures[blind], bug.Rows)
		}
	}
	for _, sharp := range []string{"pct d=2", "pct d=3", "rates 12:1"} {
		if failures[sharp] == 0 {
			t.Fatalf("E12a: %s found nothing: %v", sharp, bug.Rows)
		}
	}

	cov := tables[1]
	if len(cov.Rows) != 8 {
		t.Fatalf("E12b rows = %d", len(cov.Rows))
	}
	walkEstimates := 0
	for i := range cov.Rows {
		if got := cellInt(t, cov, i, 2); got != e12Samples/3 {
			t.Fatalf("E12b row %d executions = %d (a sampler failed on the correct TAS?): %v", i, got, cov.Rows)
		}
		if cellInt(t, cov, i, 3) == 0 || cellInt(t, cov, i, 4) == 0 {
			t.Fatalf("E12b row %d reports no coverage: %v", i, cov.Rows[i])
		}
		if cov.Rows[i][1] == "walk" && cov.Rows[i][5] != "—" {
			walkEstimates++
		}
	}
	if walkEstimates != 2 {
		t.Fatalf("E12b: %d walk tree-size estimates, want 2: %v", walkEstimates, cov.Rows)
	}
}

// TestRowsJSONRoundTrip pins the composebench -json contract: one object
// per row, cells keyed by column name, and lossless through
// encoding/json.
func TestRowsJSONRoundTrip(t *testing.T) {
	tab := &Table{ID: "X1", Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow(1, "x")
	tab.AddRow(2, "y", "overflow")
	rows := RowsJSON("EX", []*Table{tab})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Experiment != "EX" || rows[0].Table != "X1" || rows[0].Row != 0 {
		t.Fatalf("row 0 = %+v", rows[0])
	}
	if rows[0].Cells["a"] != "1" || rows[0].Cells["b"] != "x" {
		t.Fatalf("row 0 cells = %v", rows[0].Cells)
	}
	if rows[1].Cells["col2"] != "overflow" {
		t.Fatalf("extra cell not positionally named: %v", rows[1].Cells)
	}
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var back []RowJSON
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, back) {
		t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", rows, back)
	}
}

func TestSeedPlumbing(t *testing.T) {
	defer SetSeed(1)
	SetSeed(99)
	if seedFor(1) != 100 {
		t.Fatalf("seedFor(1) = %d after SetSeed(99)", seedFor(1))
	}
}

func TestE11Shapes(t *testing.T) {
	tables := RunE11()
	if len(tables) != 1 {
		t.Fatalf("E11 tables = %d", len(tables))
	}
	cache := tables[0]
	if len(cache.Rows) != 6 {
		t.Fatalf("E11b rows = %d", len(cache.Rows))
	}
	anyHits := false
	for r := 0; r < len(cache.Rows); r += 2 {
		off := cellInt(t, cache, r, 2)
		on := cellInt(t, cache, r+1, 2)
		hits := cellInt(t, cache, r+1, 3)
		if on > off {
			t.Fatalf("E11b: caching increased executions: %v", cache.Rows)
		}
		if hits > 0 {
			anyHits = true
		} else if on != off {
			t.Fatalf("E11b: executions changed without cache hits: %v", cache.Rows)
		}
		if cellInt(t, cache, r, 3) != 0 {
			t.Fatalf("E11b: uncached row reports cache hits: %v", cache.Rows)
		}
	}
	if !anyHits {
		t.Fatalf("E11b: no harness produced cache hits: %v", cache.Rows)
	}
}

func TestE16Shapes(t *testing.T) {
	tables := RunE16()
	if len(tables) != 1 {
		t.Fatalf("E16 tables = %d", len(tables))
	}
	tab := tables[0]
	if len(tab.Rows)%2 != 0 || len(tab.Rows) < 4 {
		t.Fatalf("E16 rows = %d, want 2 scenarios x the sweep points", len(tab.Rows))
	}
	for r := range tab.Rows {
		name := tab.Rows[r][0]
		rounds, ops := cellInt(t, tab, r, 2), cellInt(t, tab, r, 3)
		if rounds != e16Rounds {
			t.Fatalf("E16 row %d: rounds = %d, want the pinned budget %d", r, rounds, e16Rounds)
		}
		if ops != 4*rounds {
			t.Fatalf("E16 row %d: ops = %d, want G x rounds = %d", r, ops, 4*rounds)
		}
		rmw, rmwFail := cellInt(t, tab, r, 8), cellInt(t, tab, r, 9)
		if name == "a1" && rmw != 0 {
			t.Fatalf("E16 row %d: a1 performed %d RMWs, want 0 (register-only algorithm)", r, rmw)
		}
		if rmwFail > rmw {
			t.Fatalf("E16 row %d: rmw-fail %d exceeds rmw %d", r, rmwFail, rmw)
		}
		if fails := cellInt(t, tab, r, 10); fails != 0 {
			t.Fatalf("E16 row %d: %d spot-check failures on a verified scenario", r, fails)
		}
	}
	// The drained perf rows carry one (scenario, procs) label each.
	perf := TakePerf("E16")
	if len(perf) != len(tab.Rows) {
		t.Fatalf("E16 perf rows = %d, want %d", len(perf), len(tab.Rows))
	}
	for _, p := range perf {
		if p.Attempts != 4*e16Rounds || p.WallMS <= 0 {
			t.Fatalf("E16 perf row %q: attempts=%d wall=%.3fms", p.Label, p.Attempts, p.WallMS)
		}
	}
}
