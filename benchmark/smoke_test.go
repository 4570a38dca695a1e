package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// contract mirrors the parts of BENCHMARK.json this test pins.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTablesMatchContract: the program's metric and workload tables are
// BENCHMARK.json's, name for name, unit for unit, bound for bound.
func TestTablesMatchContract(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, want []contractMetric, got []metricDef, bounded bool) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(want), len(got))
		}
		for i, m := range want {
			g := got[i]
			if m.Name != g.name || m.Unit != g.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, g.name, g.unit)
			}
			if bounded && (m.Better != g.better || m.Bound != g.bound) {
				t.Errorf("%s: BENCHMARK.json %s %v, program %s %v", m.Name, m.Better, m.Bound, g.better, g.bound)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd, true)
	same("per_layer", c.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at toy size through the code path the
// full-size run takes, untraced and traced, and checks that the result
// object carries exactly the contract's metric names once each, with their
// units, and that every known-answer gate held. No timing is asserted.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			e := &runEnv{seed: 1, seconds: 0.05, toy: true, outDir: t.TempDir(), counts: map[string]int64{}}
			res := runWorkload(def, e, traced)
			var buf bytes.Buffer
			if err := report(&buf, def, res); err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var out output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v", def.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", def.name, traced, out.Correct, out.Attempted, out.Failed, e.causes)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, contract lists %d", def.name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", def.name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s reported in %q, contract says %q", def.name, traced, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, m.Name, got.Value)
				}
				if n := strings.Count(buf.String(), "\n"+m.Name+" "); n != 1 {
					t.Errorf("%s traced=%v: %s printed %d times", def.name, traced, m.Name, n)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which the acceptance driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q3 != 31.0 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if m := median([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11}); m != 13.5 {
		t.Fatalf("median = %v, want 13.5", m)
	}
}
