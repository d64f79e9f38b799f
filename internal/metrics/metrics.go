// Package metrics provides the stdlib-only observability primitives of the
// execution stack: lock-free counters and gauges that the engine, the model
// checker, and the experiment harness publish into while running, plus an
// atomic snapshot API that turns them into a consistent progress report —
// states per second, frontier depth, visited-set size, hash collisions,
// sweep cells completed, per-worker utilization.
//
// Publishing is optional everywhere: every layer takes a nil-able *Run and
// pays a single pointer comparison when metrics are off, so the un-budgeted
// deterministic hot paths are unaffected.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic last-value (or running-maximum) gauge.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// SetMax raises the gauge to n if n exceeds the current value.
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// WorkerStats tracks per-worker busy time and item counts for a worker
// pool, from which Snapshot derives utilization.
type WorkerStats struct {
	busy  []atomic.Int64 // nanoseconds spent inside work items
	items []atomic.Int64
}

// NewWorkerStats returns stats for n workers.
func NewWorkerStats(n int) *WorkerStats {
	return &WorkerStats{busy: make([]atomic.Int64, n), items: make([]atomic.Int64, n)}
}

// Record charges one finished item of the given duration to a worker.
// Safe on a nil receiver and out-of-range workers (both no-ops).
func (w *WorkerStats) Record(worker int, d time.Duration) {
	if w == nil || worker < 0 || worker >= len(w.busy) {
		return
	}
	w.busy[worker].Add(int64(d))
	w.items[worker].Add(1)
}

// N returns the worker count (0 for nil).
func (w *WorkerStats) N() int {
	if w == nil {
		return 0
	}
	return len(w.busy)
}

// Run is one run's metric set. All fields may be written concurrently;
// Snapshot reads them atomically field by field (the snapshot is a
// consistent progress report, not a linearizable cut).
type Run struct {
	start atomic.Int64 // unix nanos at NewRun

	// Model-checker metrics.
	States         Counter // distinct configurations visited
	Terminal       Counter // terminal configurations found
	FrontierDepth  Gauge   // deepest schedule prefix reached
	VisitedSize    Gauge   // live entries across visited tables
	HashCollisions Counter // lane-A collisions detected

	// Engine metrics.
	Steps       Counter // time steps executed
	Activations Counter // process rounds performed

	// Harness metrics.
	CellsDone  Counter // sweep cells completed
	CellsTotal Counter // sweep cells enumerated (monotone across experiments)

	// Fuzzing metrics.
	Schedules   Counter // fuzz schedules executed to completion
	ShrinkIters Counter // witness-shrinking replay attempts

	workers atomic.Pointer[WorkerStats]
}

// NewRun returns a Run stamped with the current time (the states/sec
// denominator).
func NewRun() *Run {
	r := &Run{}
	r.start.Store(time.Now().UnixNano())
	return r
}

// SetWorkers installs (and returns) per-worker stats for n workers.
func (r *Run) SetWorkers(n int) *WorkerStats {
	ws := NewWorkerStats(n)
	r.workers.Store(ws)
	return ws
}

// Workers returns the installed per-worker stats, or nil.
func (r *Run) Workers() *WorkerStats { return r.workers.Load() }

// Snapshot is a point-in-time view of a Run, JSON-marshalable for
// -metrics-json style outputs.
type Snapshot struct {
	ElapsedSeconds    float64   `json:"elapsed_seconds"`
	States            int64     `json:"states"`
	StatesPerSec      float64   `json:"states_per_sec"`
	Terminal          int64     `json:"terminal"`
	FrontierDepth     int64     `json:"frontier_depth"`
	VisitedSize       int64     `json:"visited_size"`
	HashCollisions    int64     `json:"hash_collisions"`
	Steps             int64     `json:"steps"`
	Activations       int64     `json:"activations"`
	CellsDone         int64     `json:"cells_done"`
	CellsTotal        int64     `json:"cells_total"`
	Schedules         int64     `json:"schedules"`
	ShrinkIters       int64     `json:"shrink_iters"`
	WorkerItems       []int64   `json:"worker_items,omitempty"`
	WorkerUtilization []float64 `json:"worker_utilization,omitempty"`
}

// Snapshot captures the current values. Safe on a nil receiver (returns a
// zero Snapshot).
func (r *Run) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	elapsed := time.Duration(time.Now().UnixNano() - r.start.Load())
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	s := Snapshot{
		ElapsedSeconds: elapsed.Seconds(),
		States:         r.States.Load(),
		Terminal:       r.Terminal.Load(),
		FrontierDepth:  r.FrontierDepth.Load(),
		VisitedSize:    r.VisitedSize.Load(),
		HashCollisions: r.HashCollisions.Load(),
		Steps:          r.Steps.Load(),
		Activations:    r.Activations.Load(),
		CellsDone:      r.CellsDone.Load(),
		CellsTotal:     r.CellsTotal.Load(),
		Schedules:      r.Schedules.Load(),
		ShrinkIters:    r.ShrinkIters.Load(),
	}
	s.StatesPerSec = float64(s.States) / elapsed.Seconds()
	if ws := r.Workers(); ws != nil {
		s.WorkerItems = make([]int64, len(ws.items))
		s.WorkerUtilization = make([]float64, len(ws.busy))
		for i := range ws.items {
			s.WorkerItems[i] = ws.items[i].Load()
			s.WorkerUtilization[i] = float64(ws.busy[i].Load()) / float64(elapsed)
		}
	}
	return s
}

// String renders the snapshot as the one-line progress status printed to
// stderr by the -progress flags.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%.1fs states=%d (%.0f/s) depth=%d visited=%d collisions=%d steps=%d acts=%d",
		s.ElapsedSeconds, s.States, s.StatesPerSec, s.FrontierDepth, s.VisitedSize,
		s.HashCollisions, s.Steps, s.Activations)
	if s.CellsTotal > 0 {
		fmt.Fprintf(&b, " cells=%d/%d", s.CellsDone, s.CellsTotal)
	}
	if s.Schedules > 0 {
		fmt.Fprintf(&b, " schedules=%d shrink=%d", s.Schedules, s.ShrinkIters)
	}
	if len(s.WorkerUtilization) > 0 {
		min, max := s.WorkerUtilization[0], s.WorkerUtilization[0]
		for _, u := range s.WorkerUtilization[1:] {
			if u < min {
				min = u
			}
			if u > max {
				max = u
			}
		}
		fmt.Fprintf(&b, " workers=%d util=%.0f%%–%.0f%%", len(s.WorkerUtilization), 100*min, 100*max)
	}
	return b.String()
}

// WriteJSON writes the snapshot as indented JSON followed by a newline.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: marshal snapshot: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// StartProgress spawns a goroutine printing r.Snapshot() to w every
// interval, prefixed with "progress: ". The returned stop function halts
// the ticker, prints one final line, and waits for the goroutine to exit.
// It is idempotent: calling it again — the natural thing to do from both a
// defer and a signal handler — is a no-op, not a close-of-closed-channel
// panic. interval <= 0 defaults to one second.
func StartProgress(w io.Writer, interval time.Duration, r *Run) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fmt.Fprintf(w, "progress: %s\n", r.Snapshot())
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			fmt.Fprintf(w, "progress: %s (final)\n", r.Snapshot())
		})
	}
}

// StartCLI sets up what a command's -progress and -metrics-json flags ask
// for. It returns the Run to publish into (nil when both are off) and a
// finish function for the command to defer. finish stops the progress
// printer before it writes the final snapshot as JSON to path ("-" means
// w), so the printer and the snapshot never write to w at the same time.
// Errors are reported on w, prefixed with cmd.
func StartCLI(w io.Writer, cmd string, progress time.Duration, path string) (*Run, func()) {
	if progress <= 0 && path == "" {
		return nil, func() {}
	}
	r := NewRun()
	stop := func() {}
	if progress > 0 {
		stop = StartProgress(w, progress, r)
	}
	return r, func() {
		stop()
		if path == "" {
			return
		}
		out := w
		var f *os.File
		if path != "-" {
			var err error
			if f, err = os.Create(path); err != nil {
				fmt.Fprintf(w, "%s: metrics: %v\n", cmd, err)
				return
			}
			out = f
		}
		err := r.Snapshot().WriteJSON(out)
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(w, "%s: metrics: %v\n", cmd, err)
		}
	}
}
