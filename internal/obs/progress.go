package obs

// The live progress reporter behind tascheck -progress: a ticker goroutine
// that prints one status line per interval — attempts, attempts/sec over
// the last window, executions, frontier size, max depth — plus an ETA when
// the caller supplied a total-attempts estimate. For exhaustive walks that
// estimate comes from the Knuth tree-size estimator (the walk
// sampler's importance weights); under pruning the full-tree estimate is an
// upper bound on attempts, and the line says so.

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// ProgressConfig parameterizes a reporter.
type ProgressConfig struct {
	// Interval between lines (required > 0).
	Interval time.Duration
	// Out receives the lines (tascheck passes os.Stderr).
	Out io.Writer
	// Metrics is the observed domain.
	Metrics *Metrics
	// EstTotal is the estimated total attempts of the run (0 = unknown, no
	// ETA). For sampled runs this is the exact sample count.
	EstTotal float64
	// EstUpper marks EstTotal an upper bound (a full-tree estimate over a
	// pruned walk): the ETA is then a "at most" figure.
	EstUpper bool
	// Label prefixes every line (defaults to "progress").
	Label string
}

// Progress is a running reporter; Stop halts it and prints a final line.
type Progress struct {
	cfg  ProgressConfig
	done chan struct{}
	wg   sync.WaitGroup
}

// StartProgress launches the reporter goroutine. Returns nil (a no-op to
// Stop) when the interval is zero or the config is incomplete.
func StartProgress(cfg ProgressConfig) *Progress {
	if cfg.Interval <= 0 || cfg.Out == nil || cfg.Metrics == nil {
		return nil
	}
	if cfg.Label == "" {
		cfg.Label = "progress"
	}
	p := &Progress{cfg: cfg, done: make(chan struct{})}
	p.wg.Add(1)
	go p.loop()
	return p
}

func (p *Progress) loop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	start := time.Now()
	var lastAttempts int64
	last := start
	for {
		select {
		case <-p.done:
			return
		case now := <-t.C:
			s := p.cfg.Metrics.Snapshot()
			attempts := s.Counters["engine_attempts_total"]
			rate := float64(attempts-lastAttempts) / now.Sub(last).Seconds()
			lastAttempts, last = attempts, now
			fmt.Fprintln(p.cfg.Out, p.line(s, time.Since(start), attempts, rate))
		}
	}
}

// line formats one status line from a snapshot.
func (p *Progress) line(s Snapshot, elapsed time.Duration, attempts int64, rate float64) string {
	execs := s.Counters["engine_executions_total"]
	samples := s.Counters["engine_samples_total"]
	if samples > 0 {
		// Sampled path: attempts stay zero; report samples instead.
		attempts = samples
		execs = samples
		rate = 0
		if elapsed > 0 {
			rate = float64(samples) / elapsed.Seconds()
		}
	}
	line := fmt.Sprintf("%s: %s attempts=%d (%.0f/s) execs=%d frontier=%d maxdepth=%d",
		p.cfg.Label, elapsed.Round(100*time.Millisecond), attempts, rate, execs,
		s.Gauges["engine_frontier"], s.Depths.Max)
	if eta, ok := p.eta(attempts, rate); ok {
		line += " " + eta
	}
	return line
}

// eta derives the remaining-time estimate from the caller's total estimate
// and the current rate.
func (p *Progress) eta(done int64, rate float64) (string, bool) {
	if p.cfg.EstTotal <= 0 || rate <= 0 {
		return "", false
	}
	remaining := p.cfg.EstTotal - float64(done)
	if remaining <= 0 {
		if p.cfg.EstUpper {
			// A pruned walk legitimately finishes under the full-tree
			// estimate; past it the estimate carries no information.
			return "", false
		}
		return "eta~0s", true
	}
	eta := time.Duration(remaining / rate * float64(time.Second)).Round(time.Second)
	if p.cfg.EstUpper {
		return fmt.Sprintf("eta<=%s (full-tree est %.3g attempts, upper bound under pruning)", eta, p.cfg.EstTotal), true
	}
	return fmt.Sprintf("eta~%s (est %.3g)", eta, p.cfg.EstTotal), true
}

// Stop halts the reporter. Safe on a nil receiver.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	close(p.done)
	p.wg.Wait()
}
