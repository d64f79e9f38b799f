package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGaugeConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.SetMax(int64(w*1000 + i))
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Load())
	}
	if g.Load() != 7999 {
		t.Errorf("max gauge = %d, want 7999", g.Load())
	}
	g.Set(5)
	g.SetMax(3) // lower: must not move
	if g.Load() != 5 {
		t.Errorf("SetMax lowered the gauge to %d", g.Load())
	}
}

func TestRunSnapshot(t *testing.T) {
	r := NewRun()
	r.States.Add(100)
	r.Terminal.Add(7)
	r.FrontierDepth.SetMax(13)
	r.VisitedSize.Set(100)
	r.Steps.Add(42)
	r.Activations.Add(84)
	r.CellsTotal.Add(10)
	r.CellsDone.Add(4)
	ws := r.SetWorkers(2)
	ws.Record(0, time.Millisecond)
	ws.Record(1, 2*time.Millisecond)
	ws.Record(99, time.Hour) // out of range: ignored
	(*WorkerStats)(nil).Record(0, time.Hour)

	s := r.Snapshot()
	if s.States != 100 || s.Terminal != 7 || s.FrontierDepth != 13 || s.Steps != 42 ||
		s.Activations != 84 || s.CellsDone != 4 || s.CellsTotal != 10 {
		t.Errorf("snapshot fields wrong: %+v", s)
	}
	if s.StatesPerSec <= 0 {
		t.Errorf("states/sec = %v, want positive", s.StatesPerSec)
	}
	if len(s.WorkerItems) != 2 || s.WorkerItems[0] != 1 || s.WorkerItems[1] != 1 {
		t.Errorf("worker items = %v", s.WorkerItems)
	}
	if len(s.WorkerUtilization) != 2 || s.WorkerUtilization[1] <= 0 {
		t.Errorf("worker utilization = %v", s.WorkerUtilization)
	}

	line := s.String()
	for _, frag := range []string{"states=100", "cells=4/10", "workers=2"} {
		if !strings.Contains(line, frag) {
			t.Errorf("progress line %q missing %q", line, frag)
		}
	}
}

func TestNilRunSnapshot(t *testing.T) {
	var r *Run
	if s := r.Snapshot(); s.States != 0 || s.CellsTotal != 0 {
		t.Errorf("nil Run snapshot not zero: %+v", s)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRun()
	r.States.Add(5)
	var b strings.Builder
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, b.String())
	}
	if back.States != 5 {
		t.Errorf("round-tripped states = %d, want 5", back.States)
	}
}

func TestStartProgress(t *testing.T) {
	var mu sync.Mutex
	var b strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	})
	r := NewRun()
	r.States.Add(3)
	stop := StartProgress(w, 5*time.Millisecond, r)
	time.Sleep(30 * time.Millisecond)
	stop()
	mu.Lock()
	out := b.String()
	mu.Unlock()
	if !strings.Contains(out, "progress: ") || !strings.Contains(out, "states=3") {
		t.Errorf("progress output missing status lines:\n%s", out)
	}
	if !strings.Contains(out, "(final)") {
		t.Errorf("stop() did not print the final line:\n%s", out)
	}
}

// TestStartCLIStopsProgressBeforeSnapshot pins the order of a command's
// finish: the progress printer has stopped (its final line written)
// before the JSON snapshot goes to the same writer. The writer is
// deliberately unsynchronized, so -race reports any overlap.
func TestStartCLIStopsProgressBeforeSnapshot(t *testing.T) {
	if r, _ := StartCLI(nil, "test", 0, ""); r != nil {
		t.Fatal("StartCLI with both outputs off returned a Run")
	}
	var b strings.Builder
	r, finish := StartCLI(&b, "test", time.Millisecond, "-")
	r.States.Add(3)
	time.Sleep(5 * time.Millisecond)
	finish()
	out := b.String()
	final, js := strings.Index(out, "(final)"), strings.Index(out, "{")
	if final < 0 || js < final || !strings.Contains(out[js:], `"states": 3`) {
		t.Fatalf("want the final progress line, then the snapshot:\n%s", out)
	}
}

// TestStartProgressStopTwice is the regression for the double-stop panic:
// the stop function is naturally called from both a defer and a signal
// handler, so the second (and any concurrent) call must be a no-op rather
// than a close of a closed channel.
func TestStartProgressStopTwice(t *testing.T) {
	var mu sync.Mutex
	var b strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	})
	stop := StartProgress(w, time.Millisecond, NewRun())
	stop()
	stop() // must not panic

	// Concurrent double-stop (defer racing a signal handler) must also be
	// safe, and the final line must be printed exactly once.
	stop2 := StartProgress(w, time.Millisecond, NewRun())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop2()
		}()
	}
	wg.Wait()
	mu.Lock()
	finals := strings.Count(b.String(), "(final)")
	mu.Unlock()
	if finals != 2 {
		t.Errorf("final line printed %d times across 2 progress sessions, want 2", finals)
	}
}

// TestRunConcurrentPublishSnapshot hammers every Run field from publisher
// goroutines while snapshotting and JSON-encoding concurrently — the
// contract the serve layer relies on when it streams per-job snapshots
// over HTTP while the job's engine is still publishing. Run under -race.
func TestRunConcurrentPublishSnapshot(t *testing.T) {
	r := NewRun()
	ws := r.SetWorkers(4)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				r.States.Inc()
				r.Steps.Add(2)
				r.Activations.Inc()
				r.FrontierDepth.SetMax(int64(i))
				r.VisitedSize.Set(int64(i))
				r.Schedules.Inc()
				ws.Record(w, time.Microsecond)
				if i%256 == 0 {
					r.SetWorkers(4)
				}
			}
		}()
	}
	deadline := time.After(50 * time.Millisecond)
	var last Snapshot
	for looping := true; looping; {
		select {
		case <-deadline:
			looping = false
		default:
			last = r.Snapshot()
			if err := last.WriteJSON(discardWriter{}); err != nil {
				t.Fatalf("WriteJSON under concurrency: %v", err)
			}
		}
	}
	close(done)
	wg.Wait()
	final := r.Snapshot()
	if final.States < last.States {
		t.Errorf("states went backwards: %d then %d", last.States, final.States)
	}
	if final.States == 0 || final.Steps != 2*final.States {
		t.Errorf("final snapshot inconsistent: states=%d steps=%d", final.States, final.Steps)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
