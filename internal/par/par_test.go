package par

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"asynccycle/internal/metrics"
)

func TestMapOrderAndValues(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i * 3
	}
	for _, workers := range []int{0, 1, 2, 4, 7, 100, 1000} {
		out := Map(workers, items, func(i, item int) string {
			return fmt.Sprintf("%d:%d", i, item)
		})
		if len(out) != len(items) {
			t.Fatalf("workers=%d: %d results for %d items", workers, len(out), len(items))
		}
		for i, got := range out {
			want := fmt.Sprintf("%d:%d", i, i*3)
			if got != want {
				t.Errorf("workers=%d: out[%d] = %q, want %q", workers, i, got, want)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out := Map(4, nil, func(i, item int) int { return item })
	if len(out) != 0 {
		t.Fatalf("got %d results for empty input", len(out))
	}
}

// TestMapDeterministicMerge is the load-bearing property: the merged result
// slice is identical at every parallelism level, even though execution
// order differs.
func TestMapDeterministicMerge(t *testing.T) {
	items := make([]int, 257)
	for i := range items {
		items[i] = i
	}
	f := func(i, item int) uint64 {
		// A result depending only on the item's coordinates.
		h := uint64(item)*0x9E3779B97F4A7C15 + 1
		return h ^ h>>29
	}
	serial := Map(1, items, f)
	for _, workers := range []int{2, 3, 8, 64} {
		got := Map(workers, items, f)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], serial[i])
			}
		}
	}
}

func TestMapEachItemOnce(t *testing.T) {
	counts := make([]atomic.Int32, 500)
	Map(8, make([]struct{}, len(counts)), func(i int, _ struct{}) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("item %d executed %d times", i, c)
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was swallowed")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	Map(4, []int{0, 1, 2, 3, 4, 5, 6, 7}, func(i, item int) int {
		if item == 3 {
			panic("boom")
		}
		return item
	})
}

func TestMapCtxAllDoneMatchesMap(t *testing.T) {
	items := make([]int, 200)
	for i := range items {
		items[i] = i
	}
	want := Map(4, items, func(i, item int) int { return item * item })
	for _, workers := range []int{1, 4, 0} {
		got, done := MapCtx(nil, workers, items, nil, func(i, item int) int { return item * item })
		if !AllDone(done) {
			t.Fatalf("workers=%d: not all items done without cancellation", workers)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapCtxStopsClaimingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 1000)
	var ran atomic.Int64
	out, done := MapCtx(ctx, 4, items, nil, func(i, item int) int {
		if ran.Add(1) == 10 {
			cancel()
		}
		return i + 1
	})
	if AllDone(done) {
		t.Fatal("cancellation did not stop the pool from claiming items")
	}
	// Every claimed item ran to completion and recorded its result; every
	// unclaimed one is zero-valued.
	completed := 0
	for i, d := range done {
		if d {
			completed++
			if out[i] != i+1 {
				t.Fatalf("done item %d has result %d, want %d", i, out[i], i+1)
			}
		} else if out[i] != 0 {
			t.Fatalf("skipped item %d has non-zero result %d", i, out[i])
		}
	}
	if completed == 0 || completed == len(items) {
		t.Fatalf("completed = %d, want strictly partial", completed)
	}
}

func TestMapCtxSerialCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, done := MapCtx(ctx, 1, []int{1, 2, 3}, nil, func(i, item int) int { return item })
	if AllDone(done) || done[0] {
		t.Fatalf("pre-cancelled serial MapCtx ran items: done=%v out=%v", done, out)
	}
}

func TestMapCtxRecordsWorkerStats(t *testing.T) {
	r := metrics.NewRun()
	ws := r.SetWorkers(4)
	items := make([]int, 64)
	_, done := MapCtx(context.Background(), 4, items, ws, func(i, item int) int { return i })
	if !AllDone(done) {
		t.Fatal("expected all items done")
	}
	total := int64(0)
	for _, n := range r.Snapshot().WorkerItems {
		total += n
	}
	if total != int64(len(items)) {
		t.Fatalf("worker stats recorded %d items, want %d", total, len(items))
	}
}

// TestRunCommitsInOrder: under random work delays, commits arrive in
// strictly increasing index order, never overlap, and each follows its
// own work call. Run it under -race: commit reads what work wrote without
// a lock of its own.
func TestRunCommitsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		const n = 200
		delays := make([]time.Duration, n)
		rng := rand.New(rand.NewSource(int64(workers)))
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(200)) * time.Microsecond
		}
		vals := make([]int, n)
		var got []int
		var inCommit atomic.Bool
		committed := Run(context.Background(), workers, n, nil, func(_, i int) {
			time.Sleep(delays[i])
			vals[i] = i * i
		}, func(i int) bool {
			if !inCommit.CompareAndSwap(false, true) {
				t.Errorf("workers=%d: commit %d overlaps another commit", workers, i)
			}
			if vals[i] != i*i {
				t.Errorf("workers=%d: commit %d before its work finished", workers, i)
			}
			got = append(got, i)
			inCommit.Store(false)
			return true
		})
		if committed != n || len(got) != n {
			t.Fatalf("workers=%d: committed %d (%d calls), want %d", workers, committed, len(got), n)
		}
		for i, g := range got {
			if g != i {
				t.Fatalf("workers=%d: commit #%d was index %d", workers, i, g)
			}
		}
	}
}

// TestRunCommitStops: a commit returning false ends the pool — nothing
// after it is committed, and claims stop long before the items run out.
func TestRunCommitStops(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n, stopAt = 10000, 10
		var ran atomic.Int64
		var last int
		committed := Run(nil, workers, n, nil, func(_, i int) {
			ran.Add(1)
			time.Sleep(20 * time.Microsecond)
		}, func(i int) bool {
			last = i
			return i != stopAt
		})
		if committed != stopAt+1 || last != stopAt {
			t.Fatalf("workers=%d: committed %d, last commit %d; want %d and %d", workers, committed, last, stopAt+1, stopAt)
		}
		if r := ran.Load(); r >= n {
			t.Errorf("workers=%d: all %d items ran although a commit stopped the pool at %d", workers, r, stopAt)
		}
	}
}

// TestRunCancelStopsClaims: a cancelled context stops claims; everything
// claimed still finishes and is committed as a prefix.
func TestRunCancelStopsClaims(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 1000
		var ran atomic.Int64
		var commits int
		committed := Run(ctx, workers, n, nil, func(_, i int) {
			if ran.Add(1) == 10 {
				cancel()
			}
		}, func(i int) bool {
			if i != commits {
				t.Errorf("workers=%d: commit %d out of order (want %d)", workers, i, commits)
			}
			commits++
			return true
		})
		cancel()
		if committed != commits || int64(committed) != ran.Load() {
			t.Errorf("workers=%d: committed %d, commit calls %d, ran %d", workers, committed, commits, ran.Load())
		}
		if committed == 0 || committed == n {
			t.Errorf("workers=%d: committed %d of %d, want a strict prefix", workers, committed, n)
		}
	}
}

// TestRunPanicAfterDrain: a panic in work is re-raised in the caller, but
// only once every worker has returned.
func TestRunPanicAfterDrain(t *testing.T) {
	var inFlight atomic.Int64
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		if n := inFlight.Load(); n != 0 {
			t.Fatalf("%d work calls still running when the panic surfaced", n)
		}
	}()
	Run(nil, 4, 100, nil, func(_, i int) {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		if i == 7 {
			panic("boom")
		}
		time.Sleep(time.Millisecond)
	}, func(int) bool { return true })
}

// TestRunOneWorkerInline: one worker (or one item) calls work on the
// caller's goroutine and starts none.
func TestRunOneWorkerInline(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 5}, {8, 1}} {
		before := runtime.NumGoroutine()
		w0 := true
		Run(nil, tc.workers, tc.n, nil, func(w, _ int) {
			if w != 0 {
				w0 = false
			}
			// Only growth counts: a worker left by an earlier test may
			// still be exiting, which lowers the count.
			if g := runtime.NumGoroutine(); g > before {
				t.Errorf("workers=%d n=%d: %d goroutines inside work, %d before Run", tc.workers, tc.n, g, before)
			}
		}, nil)
		if !w0 {
			t.Errorf("workers=%d n=%d: inline work ran as a worker other than 0", tc.workers, tc.n)
		}
	}
}

// TestRunRecordsWorkerBusyTime: every work call is charged to the worker
// that ran it.
func TestRunRecordsWorkerBusyTime(t *testing.T) {
	r := metrics.NewRun()
	ws := r.SetWorkers(3)
	Run(nil, 3, 30, ws, func(_, _ int) { time.Sleep(100 * time.Microsecond) }, nil)
	var items int64
	for _, n := range r.Snapshot().WorkerItems {
		items += n
	}
	if items != 30 {
		t.Fatalf("worker stats charged %d items, want 30", items)
	}
}
