// Package obs is the engine's observability layer: a near-zero-overhead
// metrics core the exploration hot paths increment into, with everything
// user-facing — the Prometheus /metrics rendering, the /statusz JSON
// snapshot, the JSONL event log, and the live progress reporter — built on
// top of fold-on-read snapshots of it.
//
// The design constraint is the engine's determinism contract: observability
// is advisory-only. Nothing in this package is ever consulted by an
// exploration decision, so every deterministic Report field, sweep row and
// -json byte is identical with obs attached or absent; the equivalence
// tests in internal/obs pin that. The cost side is kept negligible by
// sharding: counters are per-worker cache-line-padded atomics incremented
// once per execution (never per scheduler step), folded across shards only
// when a reader asks. Per-step quantities (scheduler decisions, memory
// accesses by kind) are not routed through this package at all — the sched
// and memory layers keep their own always-on cumulative atomics, and the
// engine registers fold-on-read sources for them (see AddSource), so the
// hot step path pays nothing for observability being attached.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// shardPad pads each counter shard to its own cache line so workers
// incrementing concurrently never false-share.
const shardPad = 64

type counterShard struct {
	v int64
	_ [shardPad - 8]byte
}

// Counter is a per-worker sharded monotonic counter. Add and Inc are
// wait-free single-atomic operations on the caller's own shard; Value folds
// all shards. A nil Counter ignores writes and reads zero, so call sites
// need no metrics-enabled branches.
type Counter struct {
	name, help string
	shards     []counterShard
	mask       int
}

func newCounter(name, help string, shards int) *Counter {
	return &Counter{name: name, help: help, shards: make([]counterShard, shards), mask: shards - 1}
}

// Inc adds 1 to the shard owned by worker w.
func (c *Counter) Inc(w int) { c.Add(w, 1) }

// Add adds d to the shard owned by worker w.
func (c *Counter) Add(w int, d int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.shards[w&c.mask].v, d)
}

// Value folds all shards.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var t int64
	for i := range c.shards {
		t += atomic.LoadInt64(&c.shards[i].v)
	}
	return t
}

// Hist is a sharded histogram over stats.Hist: each worker adds into its
// own mutex-guarded shard (one short critical section per execution), and
// readers merge the shards. A nil Hist ignores writes.
type Hist struct {
	name, help string
	width      int
	shards     []histShard
	mask       int
}

type histShard struct {
	mu  sync.Mutex
	h   stats.Hist
	sum int64
	_   [24]byte
}

func newHist(name, help string, width, shards int) *Hist {
	h := &Hist{name: name, help: help, width: width, shards: make([]histShard, shards), mask: shards - 1}
	for i := range h.shards {
		h.shards[i].h.Width = width
	}
	return h
}

// Add records one sample from worker w.
func (h *Hist) Add(w int, v int) {
	if h == nil {
		return
	}
	s := &h.shards[w&h.mask]
	s.mu.Lock()
	s.h.Add(v)
	s.sum += int64(v)
	s.mu.Unlock()
}

// fold merges all shards into one histogram plus the sample sum.
func (h *Hist) fold() (stats.Hist, int64) {
	out := stats.Hist{Width: h.width}
	var sum int64
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		out.Merge(&s.h)
		sum += s.sum
		s.mu.Unlock()
	}
	return out, sum
}

// source is one registered fold-on-read metric: a closure over layer state
// (frontier length, executor decision counts, memory access counters). Same-
// name sources sum in the snapshot, so concurrent engines — a sweep runs
// many — can each register theirs against one shared Metrics.
type source struct {
	name, help string
	gauge      bool // rendered as a gauge (instantaneous) vs counter
	fn         func() int64
}

// Metrics is one observation domain: the engine-layer sharded counters, the
// depth histogram, registered layer sources, run-info labels and the
// optional event log. One Metrics may serve several engine runs (sweeps,
// resumed walks); counters accumulate across them.
type Metrics struct {
	start    time.Time
	shards   int
	counters []*Counter

	// Engine-layer counters, incremented by internal/engine (at most a
	// handful of atomic adds per execution — never per scheduler step).
	Attempts     *Counter
	Executions   *Counter
	Pruned       *Counter
	Backtracks   *Counter
	CacheLookups *Counter
	CacheHits    *Counter
	Replays      *Counter
	Failures     *Counter
	Samples      *Counter

	// Depths is the completed-execution schedule-depth distribution
	// (bucket width 8, matching engine.SampleReport's DepthHist).
	Depths *Hist

	mu      sync.Mutex
	sources []*source
	dynamic map[string]*Counter
	dynOrd  []string
	info    map[string]string
	events  *EventLog
}

// New creates a Metrics domain sized for the given worker count (shards are
// rounded up to a power of two, minimum 1).
func New(workers int) *Metrics {
	shards := 1
	for shards < workers {
		shards <<= 1
	}
	m := &Metrics{start: time.Now(), shards: shards, info: map[string]string{}}
	reg := func(name, help string) *Counter {
		c := newCounter(name, help, shards)
		m.counters = append(m.counters, c)
		return c
	}
	m.Attempts = reg("engine_attempts_total", "Work items started: completed executions plus abandoned prefix replays.")
	m.Executions = reg("engine_executions_total", "Distinct interleavings run to completion and checked.")
	m.Pruned = reg("engine_pruned_total", "Branches skipped or runs abandoned as redundant by sleep sets.")
	m.Backtracks = reg("engine_backtracks_total", "Race-driven backtrack points added by source-DPOR.")
	m.CacheLookups = reg("engine_cache_lookups_total", "State-cache claim attempts at branching decision points.")
	m.CacheHits = reg("engine_cache_hits_total", "Runs abandoned because their state key was already claimed.")
	m.Replays = reg("engine_replays_total", "Branch re-entries by prefix re-execution: every work item but the root.")
	m.Failures = reg("engine_failures_total", "Executions whose check failed.")
	m.Samples = reg("engine_samples_total", "Seeded sampling runs completed.")
	m.Depths = newHist("engine_depth", "Schedule depth of completed executions.", 8, shards)
	return m
}

// Shards returns the shard count (for tests).
func (m *Metrics) Shards() int { return m.shards }

// Counter returns the dynamic sharded counter with the given name,
// creating it on first use. Dynamic counters render exactly like the fixed
// engine counters (same sharding, same Prometheus counter type) but are
// declared by their writers — the stress tier registers its op/failure
// counters this way instead of growing the engine-layer struct. Repeated
// calls with one name return the same counter; help is taken from the
// first call. A nil Metrics returns a nil Counter, which ignores writes.
func (m *Metrics) Counter(name, help string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.dynamic[name]; ok {
		return c
	}
	c := newCounter(name, help, m.shards)
	if m.dynamic == nil {
		m.dynamic = map[string]*Counter{}
	}
	m.dynamic[name] = c
	m.dynOrd = append(m.dynOrd, name)
	return c
}

// SetInfo records a run-info label (scenario name, mode, process count),
// rendered on /statusz and as the Prometheus run-info metric's labels.
func (m *Metrics) SetInfo(key, value string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.info[key] = value
	m.mu.Unlock()
}

// AddSource registers a fold-on-read metric backed by a closure; gauge
// selects the Prometheus type it renders as. Snapshot sums same-name
// sources. The returned remove function unregisters it (engines deregister
// their frontier and layer sources when their run ends).
func (m *Metrics) AddSource(name, help string, gauge bool, fn func() int64) (remove func()) {
	if m == nil {
		return func() {}
	}
	s := &source{name: name, help: help, gauge: gauge, fn: fn}
	m.mu.Lock()
	m.sources = append(m.sources, s)
	m.mu.Unlock()
	return func() {
		m.mu.Lock()
		for i, it := range m.sources {
			if it == s {
				m.sources = append(m.sources[:i], m.sources[i+1:]...)
				break
			}
		}
		m.mu.Unlock()
	}
}

// SetEvents attaches a structured event log; Event emits into it. The
// caller keeps ownership (and closes it after the run).
func (m *Metrics) SetEvents(e *EventLog) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.events = e
	m.mu.Unlock()
}

// Event emits a structured event stamped with the current attempts count
// (the engine's schedule-derived clock). A Metrics without an attached
// EventLog drops it; so does a nil Metrics.
func (m *Metrics) Event(typ string, fields map[string]any) {
	if m == nil {
		return
	}
	m.mu.Lock()
	e := m.events
	m.mu.Unlock()
	if e != nil {
		e.Emit(typ, m.Attempts.Value(), fields)
	}
}

// HistSnapshot is a folded histogram in a snapshot. P50/P99 are the
// bucket-interpolated quantiles of the folded sample (stats.Hist.Quantile);
// zero when empty.
type HistSnapshot struct {
	Width  int     `json:"width"`
	Counts []int   `json:"counts"`
	N      int     `json:"n"`
	Min    int     `json:"min"`
	Max    int     `json:"max"`
	Sum    int64   `json:"sum"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
}

// Snapshot is one folded view of a Metrics domain — what /statusz serializes
// and the Prometheus renderer walks.
type Snapshot struct {
	UptimeSec float64           `json:"uptime_sec"`
	Info      map[string]string `json:"info,omitempty"`
	Counters  map[string]int64  `json:"counters"`
	Gauges    map[string]int64  `json:"gauges,omitempty"`
	Depths    HistSnapshot      `json:"depths"`

	// counterOrder/gaugeOrder preserve a deterministic rendering order.
	counterOrder []string
	gaugeOrder   []string
	counterHelp  map[string]string
	gaugeHelp    map[string]string
}

// Snapshot folds every shard and source into one consistent-enough view
// (counters are read while workers run; each is individually atomic).
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		UptimeSec:   time.Since(m.start).Seconds(),
		Info:        map[string]string{},
		Counters:    map[string]int64{},
		Gauges:      map[string]int64{},
		counterHelp: map[string]string{},
		gaugeHelp:   map[string]string{},
	}
	for _, c := range m.counters {
		s.Counters[c.name] = c.Value()
		s.counterHelp[c.name] = c.help
		s.counterOrder = append(s.counterOrder, c.name)
	}
	m.mu.Lock()
	for k, v := range m.info {
		s.Info[k] = v
	}
	srcs := append([]*source(nil), m.sources...)
	dynNames := append([]string(nil), m.dynOrd...)
	dyn := make([]*Counter, len(dynNames))
	for i, name := range dynNames {
		dyn[i] = m.dynamic[name]
	}
	m.mu.Unlock()
	for _, c := range dyn {
		s.Counters[c.name] = c.Value()
		s.counterHelp[c.name] = c.help
		s.counterOrder = append(s.counterOrder, c.name)
	}
	for _, src := range srcs {
		v := src.fn()
		if src.gauge {
			if _, seen := s.Gauges[src.name]; !seen {
				s.gaugeOrder = append(s.gaugeOrder, src.name)
				s.gaugeHelp[src.name] = src.help
			}
			s.Gauges[src.name] += v
		} else {
			if _, seen := s.Counters[src.name]; !seen {
				s.counterOrder = append(s.counterOrder, src.name)
				s.counterHelp[src.name] = src.help
			}
			s.Counters[src.name] += v
		}
	}
	sort.Strings(s.counterOrder[len(m.counters):]) // dynamics+sources in name order
	sort.Strings(s.gaugeOrder)
	h, sum := m.Depths.fold()
	s.Depths = HistSnapshot{
		Width: h.Width, Counts: h.Counts, N: h.N, Min: h.Min, Max: h.Max, Sum: sum,
		P50: h.Quantile(0.50), P99: h.Quantile(0.99),
	}
	return s
}
