package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// TestSampledCoveragePinned holds the seeded strategies' random stream to
// the known answer the repo benchmark gates on (`sample-seed1-coverage` in
// benchmark/workload_engine.go): 100000 PCT d=3 runs of composed n=8 from
// seed 1·1000003 end in 96 distinct terminal states over 66403 distinct
// schedule shapes, at any worker count. One differing draw in one of the
// 100000 streams moves the shape count, so a generator or strategy change
// that drifts fails here, in tier-1, before it fails the benchmark.
func TestSampledCoveragePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("100000 sampled runs")
	}
	sc, err := scenario.Lookup("composed")
	if err != nil {
		t.Fatal(err)
	}
	h, _ := sc.Build(8, scenario.Options{})
	for _, workers := range []int{1, 2} {
		rep, err := engine.Sample(h, engine.SampleConfig{
			Sampler: engine.SamplerPCT, PCTDepth: 3, Samples: 100000, Seed: 1000003, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Executions != 100000 || rep.DistinctStates != 96 || rep.DistinctShapes != 66403 {
			t.Fatalf("workers=%d: %d runs, %d states, %d shapes; pinned 100000, 96, 66403",
				workers, rep.Executions, rep.DistinctStates, rep.DistinctShapes)
		}
	}
}
