// Package stress is the native-execution stress tier: it hammers any
// registered scenario with G real goroutines on the ungated memory path,
// where the primitives compile down to raw sync/atomic operations and the
// Go runtime — not the cooperative gate — chooses the interleavings.
//
// The model-checking tiers answer "is the algorithm correct under every
// interleaving of a small bounded instance"; this tier answers the
// complementary empirical questions the paper's claims are ultimately
// about: how does throughput scale with real parallelism, what do the
// per-operation latency tails look like, and how often do the lock-free
// retry loops actually lose their CAS races under hardware contention.
// None of that is observable under the gate, because a serialized step
// can neither wait nor lose.
//
// Mechanically the driver runs rounds: each round is one native concurrent
// execution of the scenario's G process bodies (the same bodies the model
// checker explores — one high-level operation per process) on G persistent
// workers. The worker whose body returns last closes the round — an
// optional spot-check of the recorded history through the scenario's own
// check function, the stop test (the deadline is read after the first
// round and then every 64th), a reset — then wakes the others and runs its
// own next body. Latencies go to per-worker log-bucketed stats.LatencyHist
// shards. Access, RMW and lost-race counts come from the memory layer's own
// census of the environment; the closer folds them into obs counters when
// it reads the clock, so they stay live-scrapable mid-run.
//
// Correctness coverage here is sampling, not verification: a spot-check
// only judges the histories that actually happened. The exhaustive tiers
// stay the source of truth for correctness; this tier is the source of
// truth for contention behavior.
package stress

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/linearize"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config parameterizes one stress run (one sweep point).
type Config struct {
	// Scenario is the workload; its bodies run natively.
	Scenario scenario.Scenario
	// G is the requested goroutine count; clamped by the scenario's
	// process range exactly like the model-checking frontends.
	G int
	// Duration bounds the run's wall clock (default 1s). At least one
	// round always completes.
	Duration time.Duration
	// MaxRounds, when positive, additionally bounds the number of rounds —
	// the deterministic-workload knob benchmarks and tests use.
	MaxRounds int64
	// Arrival, when positive, is the target per-goroutine arrival rate in
	// operations per second: each worker delays its next operation by an
	// exponentially distributed gap with that mean (an open-loop Poisson
	// arrival process). Zero means closed-loop: workers re-arrive
	// immediately, maximizing contention.
	Arrival float64
	// CheckEvery spot-checks the recorded history of every k-th round
	// through the scenario's check function (default 64; negative
	// disables). Checking every round costs composed (G=4, two cores)
	// about a fifth of its throughput; the default costs about 1%.
	CheckEvery int
	// Seed seeds the arrival-gap generators (deterministic per worker).
	Seed int64
	// LinMode selects the linearizability tier: the default sampled
	// spot-check, off, or online — every round's history verified by the
	// streaming JIT checker concurrently with the workload. online needs a
	// linearize-oracle scenario, whose op log is its Env's history source
	// (memory.Env.HistorySource); it replaces the sampled spot-check.
	LinMode LinMode
	// LinWindow and LinMaxConfigs override the streaming checker's
	// budgets (linearize.JITConfig defaults when zero).
	LinWindow     int
	LinMaxConfigs int
	// LinMaxOps, when positive, caps the operations fed to the checker;
	// later rounds run unverified and the result notes the truncation.
	LinMaxOps int64
	// Procs, when positive, pins GOMAXPROCS for the duration of the run
	// (restored afterwards). Zero leaves the runtime setting alone.
	Procs int
	// Metrics, when non-nil, receives the live counters and latency
	// gauges. Counters accumulate across runs on the same Metrics; the
	// Result deltas are computed against the run's start values.
	Metrics *obs.Metrics
}

// Result is one completed stress run: throughput, the merged latency
// distribution, the memory-access census, and the spot-check tally. All
// counter fields are deltas for this run only.
type Result struct {
	Scenario  string  `json:"scenario"`
	G         int     `json:"g"`
	Procs     int     `json:"procs"`
	Rounds    int64   `json:"rounds"`
	Ops       int64   `json:"ops"`
	WallMS    float64 `json:"wall_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`

	// Memory-access census of the run's environment.
	Accesses int64 `json:"mem_accesses"`
	RMWs     int64 `json:"mem_rmws"`
	RMWFails int64 `json:"rmw_fails"`

	// Latency quantiles in nanoseconds (bucket-interpolated).
	P50    float64 `json:"p50_ns"`
	P90    float64 `json:"p90_ns"`
	P99    float64 `json:"p99_ns"`
	P999   float64 `json:"p999_ns"`
	MeanNS float64 `json:"mean_ns"`

	// Spot-check tally.
	CheckRounds   int64  `json:"check_rounds"`
	CheckFailures int64  `json:"check_failures"`
	FirstCheckErr string `json:"first_check_err,omitempty"`

	// Streaming linearizability telemetry (populated when LinMode is not
	// the default spot tier; all omitted otherwise so existing reports
	// stay byte-identical).
	LinMode         string  `json:"lincheck,omitempty"`
	LinOps          int64   `json:"lincheck_ops,omitempty"`
	LinWindows      int64   `json:"lincheck_windows,omitempty"`
	LinPeakWindow   int     `json:"lincheck_peak_window,omitempty"`
	LinPeakConfigs  int     `json:"lincheck_peak_configs,omitempty"`
	LinPeakStates   int     `json:"lincheck_peak_states,omitempty"`
	LinPeakFrontier int     `json:"lincheck_peak_frontier,omitempty"`
	LinWallMS       float64 `json:"lincheck_wall_ms,omitempty"`
	LinFailures     int64   `json:"lincheck_failures,omitempty"`
	FirstLinErr     string  `json:"first_lincheck_err,omitempty"`
	LinTruncated    bool    `json:"lincheck_truncated,omitempty"`
	LinErr          string  `json:"lincheck_err,omitempty"`

	// Latency is the merged distribution (not serialized; quantile fields
	// above carry the reporting surface).
	Latency stats.LatencyHist `json:"-"`
}

// FailRatio returns RMWFails/RMWs (0 when no RMWs ran).
func (r Result) FailRatio() float64 {
	if r.RMWs == 0 {
		return 0
	}
	return float64(r.RMWFails) / float64(r.RMWs)
}

// latShard is one worker's latency histogram. The mutex serializes the
// worker's Add against live gauge folds from the debug endpoint; it is
// per-worker and almost always uncontended, so the hot-path cost is one
// uncontended lock per operation.
type latShard struct {
	mu sync.Mutex
	h  stats.LatencyHist
	_  [32]byte
}

func (s *latShard) add(ns int64) {
	s.mu.Lock()
	s.h.Add(ns)
	s.mu.Unlock()
}

// foldLatency merges all shards into one histogram.
func foldLatency(shards []latShard) stats.LatencyHist {
	var out stats.LatencyHist
	for i := range shards {
		s := &shards[i]
		s.mu.Lock()
		out.Merge(&s.h)
		s.mu.Unlock()
	}
	return out
}

// construct calls the harness constructor, reporting a panic as an error
// that wraps the panic value when it is one.
func construct(h engine.Harness) (env *memory.Env, bodies []func(p *memory.Proc), check func(res *sched.Result) error, reset func(), err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness constructor panicked: %v", r)
			if e, ok := r.(error); ok {
				err = fmt.Errorf("harness constructor panicked: %w", e)
			}
		}
	}()
	env, bodies, check, reset = h()
	return env, bodies, check, reset, nil
}

// Run executes one stress run. It returns an error only for configuration
// or harness contract problems; spot-check failures are reported in the
// Result (planted-bug scenarios are expected to fail — the caller decides
// what a failure means).
func Run(cfg Config) (Result, error) {
	sc := cfg.Scenario
	if sc.Build == nil {
		return Result{}, fmt.Errorf("stress: config has no scenario")
	}
	n := sc.Procs(cfg.G)
	dur := cfg.Duration
	if dur <= 0 {
		dur = time.Second
	}
	checkEvery := cfg.CheckEvery
	if checkEvery == 0 {
		checkEvery = 64
	}
	if cfg.LinMode != LinSpot {
		// off turns correctness checking off entirely; online replaces the
		// sampled spot-check with full history verification.
		checkEvery = -1
	}
	if cfg.Procs > 0 {
		prev := runtime.GOMAXPROCS(cfg.Procs)
		defer runtime.GOMAXPROCS(prev)
	}

	m := cfg.Metrics
	if m == nil {
		// A private domain keeps the Result accounting identical whether or
		// not a live metrics surface is attached.
		m = obs.New(n)
	}
	opsC := m.Counter("stress_ops_total", "High-level scenario operations completed by stress workers.")
	roundsC := m.Counter("stress_rounds_total", "Native concurrent executions (rounds) completed.")
	memC := [3]*obs.Counter{
		m.Counter("stress_mem_accesses_total", "Shared-memory accesses on the native path."),
		m.Counter("stress_mem_rmw_total", "RMW accesses (CAS/TAS/fetch-inc/swap attempts) on the native path."),
		m.Counter("stress_rmw_fail_total", "RMW attempts that lost their race (failed CAS, lost TAS, taken cell)."),
	}
	checksC := m.Counter("stress_check_rounds_total", "Rounds whose recorded history was spot-checked.")
	checkFailC := m.Counter("stress_check_failures_total", "Spot-checked rounds whose history failed the scenario's check.")

	// Counter start values: Result reports deltas for this run.
	ops0 := opsC.Value()
	chk0, chkFail0 := checksC.Value(), checkFailC.Value()

	lats := make([]latShard, n)
	for _, g := range []struct {
		name string
		q    float64
	}{
		{"stress_latency_p50_ns", 0.50},
		{"stress_latency_p90_ns", 0.90},
		{"stress_latency_p99_ns", 0.99},
		{"stress_latency_p999_ns", 0.999},
	} {
		remove := m.AddSource(g.name, fmt.Sprintf("Per-op latency quantile q=%v in nanoseconds (this run).", g.q), true, func() int64 {
			h := foldLatency(lats)
			return int64(h.Quantile(g.q))
		})
		defer remove()
	}
	removeG := m.AddSource("stress_goroutines", "Stress worker goroutines in flight.", true, func() int64 { return int64(n) })
	defer removeG()

	h, oracle := sc.Build(n, scenario.Options{})
	env, bodies, check, reset, err := construct(h)
	if err != nil {
		return Result{}, fmt.Errorf("stress: scenario %q: %w", sc.Name, err)
	}
	if len(bodies) != n {
		return Result{}, fmt.Errorf("stress: harness returned %d bodies for n=%d", len(bodies), n)
	}
	if reset == nil {
		return Result{}, fmt.Errorf("stress: scenario %q: %w (rounds re-run one instance)", sc.Name, engine.ErrNilReset)
	}
	// memAt is the env's memory census (accesses, RMWs, lost races) at the
	// last fold; foldMem adds what it gained since to memC, on shard w. The
	// census starts from whatever building the harness accessed.
	readMem := func() [3]int64 {
		acc, rmw, _ := env.CumulativeCounts()
		return [3]int64{acc, rmw, env.CumulativeRMWFails()}
	}
	memAt := readMem()
	mem0 := memAt
	foldMem := func(w int) {
		now := readMem()
		for i, c := range memC {
			c.Add(w, now[i]-memAt[i])
		}
		memAt = now
	}

	// Full-history verification: append each round's recorded operations
	// from the scenario's trace source to a batch for the per-object JIT
	// streams, and hand each full batch off to the checker goroutine over a
	// bounded channel.
	var lc *linChecker
	var src trace.Source
	var batch *linBatch
	var linCh, free chan *linBatch
	var linDone chan struct{}
	handOff := func() {
		linCh <- batch
		select {
		case batch = <-free:
		default:
			batch = new(linBatch)
		}
	}
	if cfg.LinMode == LinOnline {
		jcfg := linearize.JITConfig{Window: cfg.LinWindow, MaxConfigs: cfg.LinMaxConfigs}
		var err error
		if lc, err = newLinChecker(oracle, jcfg, cfg.LinMaxOps, m); err != nil {
			return Result{}, err
		}
		var ok bool
		if src, ok = env.HistorySource().(trace.Source); !ok {
			return Result{}, fmt.Errorf("stress: scenario %q does not expose a recorded history; -lincheck %s needs a trace source", sc.Name, cfg.LinMode)
		}
		batch = new(linBatch)
		linCh = make(chan *linBatch, linBatchesInFlight)
		// Room for every batch that can exist, and the return below never
		// blocks on it anyway: a checker stuck returning a batch while the
		// closing worker is stuck sending one would deadlock.
		free = make(chan *linBatch, linBatchesInFlight+2)
		linDone = make(chan struct{})
		go func() {
			defer close(linDone)
			for b := range linCh {
				lc.feedBatch(b)
				b.ops, b.ends = b.ops[:0], b.ends[:0]
				select {
				case free <- b:
				default:
				}
			}
		}()
	}

	res := &sched.Result{Finished: slices.Repeat([]bool{true}, n), Crashed: make([]bool, n)}

	// Persistent workers, one per process, and no coordinator: the worker
	// whose body returns last closes the round. The chain of decrements on
	// pending orders every body of a round before its close, and the close's
	// wake-ups order it before the next round. Arrival gaps use per-worker
	// deterministic generators; latency is measured around the body only,
	// from two monotonic clock reads.
	chans := make([]chan struct{}, n)
	var pending atomic.Int64
	var workersDone sync.WaitGroup
	var rounds int64
	var firstCheckErr string
	start := time.Now()
	deadline := start.Add(dur)
	// closeRound is the between-round work, run by the last arriver w. It
	// reports whether w goes straight on into its next body.
	closeRound := func(w int) bool {
		rounds++
		roundsC.Add(w, 1)
		if lc != nil {
			batch.add(src)
			if len(batch.ends) == linBatchRounds {
				handOff()
			}
		}
		if check != nil && checkEvery > 0 && rounds%int64(checkEvery) == 0 {
			checksC.Add(w, 1)
			if cerr := check(res); cerr != nil {
				checkFailC.Add(w, 1)
				if firstCheckErr == "" {
					firstCheckErr = cerr.Error()
				}
			}
		}
		// The clock is read after the first round and then every 64th, and
		// the memory census is folded into its counters on the same rounds.
		stop := cfg.MaxRounds > 0 && rounds >= cfg.MaxRounds
		if rounds == 1 || rounds%64 == 0 {
			foldMem(w)
			stop = stop || !time.Now().Before(deadline)
		}
		// After the fold, so a live scrape that sees ops sees their accesses.
		opsC.Add(w, int64(n))
		if !stop {
			env.Reset() // recycle the environment for the next round
			reset()
			pending.Store(int64(n))
		}
		for i, ch := range chans {
			if stop {
				close(ch) // every worker, w included, exits on its closed channel
			} else if i != w {
				ch <- struct{}{}
			}
		}
		return !stop
	}
	pending.Store(int64(n))
	workersDone.Add(n)
	for w := range n {
		chans[w] = make(chan struct{}, 1)
		go func() {
			defer workersDone.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*0x9e3779b9))
			body, proc, ch := bodies[w], env.Proc(w), chans[w]
			for _, ok := <-ch; ok; {
				if cfg.Arrival > 0 {
					gap := time.Duration(rng.ExpFloat64() / cfg.Arrival * float64(time.Second))
					time.Sleep(gap)
				}
				t0 := time.Since(start)
				body(proc)
				lats[w].add((time.Since(start) - t0).Nanoseconds())
				if pending.Add(-1) != 0 || !closeRound(w) {
					_, ok = <-ch
				}
			}
		}()
	}
	for _, ch := range chans {
		ch <- struct{}{}
	}
	workersDone.Wait()
	wall := time.Since(start)
	foldMem(0)
	if lc != nil {
		if len(batch.ends) > 0 {
			handOff() // the last, partial batch
		}
		close(linCh)
		<-linDone
		lc.finish()
	}

	merged := foldLatency(lats)
	out := Result{
		Scenario:      sc.Name,
		G:             n,
		Procs:         runtime.GOMAXPROCS(0),
		Rounds:        rounds,
		Ops:           opsC.Value() - ops0,
		WallMS:        float64(wall.Nanoseconds()) / 1e6,
		Accesses:      memAt[0] - mem0[0],
		RMWs:          memAt[1] - mem0[1],
		RMWFails:      memAt[2] - mem0[2],
		P50:           merged.Quantile(0.50),
		P90:           merged.Quantile(0.90),
		P99:           merged.Quantile(0.99),
		P999:          merged.Quantile(0.999),
		MeanNS:        merged.Mean(),
		CheckRounds:   checksC.Value() - chk0,
		CheckFailures: checkFailC.Value() - chkFail0,
		FirstCheckErr: firstCheckErr,
		Latency:       merged,
	}
	if secs := wall.Seconds(); secs > 0 {
		out.OpsPerSec = float64(out.Ops) / secs
	}
	if cfg.LinMode != LinSpot {
		out.LinMode = cfg.LinMode.String()
	}
	if lc != nil {
		out.LinOps = lc.fed
		out.LinWindows = lc.stats.Windows
		out.LinPeakWindow = lc.stats.PeakWindow
		out.LinPeakConfigs = lc.stats.PeakConfigs
		out.LinPeakStates = lc.stats.PeakStates
		out.LinPeakFrontier = lc.stats.PeakFrontier
		out.LinWallMS = float64(lc.wall.Nanoseconds()) / 1e6
		out.LinFailures = lc.failures
		out.FirstLinErr = lc.firstErr
		out.LinTruncated = lc.truncated
		if lc.err != nil {
			out.LinErr = lc.err.Error()
		}
	}
	return out, nil
}
