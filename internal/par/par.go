// Package par provides a bounded worker pool with deterministic result
// merging, the execution layer under the experiment sweeps, the schedule
// fuzzer's campaigns and the model checker's orbit sweeps.
//
// The contract is the one SPIN-style explicit-state checkers and
// deterministic-replay harnesses rely on: work items are independent, each
// item's result depends only on the item (never on execution order), and
// results are delivered in input order. Under that contract MapCtx is
// observably identical to a serial loop — callers that derive their
// randomness from item coordinates (rather than from shared mutable state)
// therefore produce byte-identical output at any parallelism level. Run,
// the claim-and-commit loop under MapCtx, goes one step further:
// it hands each result to a commit callback in input order while the pool
// is still running, so a caller can fold, checkpoint and stop exactly as
// its serial loop would.
package par

import (
	"context"
	"runtime"
	"sync"
	"time"

	"asynccycle/internal/metrics"
)

// Run calls work(w, i) for every index i in [0, n) on at most workers
// goroutines and returns how many indices were committed. Workers claim
// indices in increasing order; w in [0, workers) names the claiming
// worker, so a caller can keep one piece of per-worker state (an explorer,
// a buffer) without locking. workers <= 0 means runtime.GOMAXPROCS(0).
//
// commit, when non-nil, is called once per finished index, in strictly
// increasing index order and never concurrently: the worker that finishes
// index i stores that fact and then commits every finished index from the
// commit cursor on, unless another worker is committing already (that one
// picks i up). work(w, i) happens before commit(i), so commit may read
// what work wrote for i. commit returning false stops the pool: no index
// is claimed or committed after it, and Run returns i+1. A nil commit
// commits every finished index.
//
// Workers stop claiming once ctx is done (a nil ctx never is) or a commit
// has stopped the pool; indices already claimed run to completion, and
// since claims are a prefix their commits still arrive in order. Each
// work call's duration is recorded into ws (which may be nil) under its
// worker's index. A panic in work or commit stops all claims and is
// re-raised in the caller after the pool drains, so no goroutine is
// leaked. One worker, or one index, runs inline with no goroutine: the
// serial loop is the pool with the goroutines removed.
func Run(ctx context.Context, workers, n int, ws *metrics.WorkerStats, work func(w, i int), commit func(i int) bool) int {
	if n <= 0 {
		return 0
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if closed(done) {
				return i
			}
			timed(ws, 0, i, work)
			if commit != nil && !commit(i) {
				return i + 1
			}
		}
		return n
	}

	var (
		mu         sync.Mutex
		claimed    int    // next index to claim
		cursor     int    // next index to commit
		finished   []bool // finished[i]: work(i) returned, commit(i) pending
		committing bool   // a worker is inside the commit loop
		stopped    bool   // a commit returned false, or something panicked
		panicVal   any
		wg         sync.WaitGroup
	)
	finished = make([]bool, n)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || claimed >= n || closed(done) {
			return 0, false
		}
		claimed++
		return claimed - 1, true
	}
	// finish marks i finished and, unless another worker holds the commit
	// loop, commits the finished run from the cursor on. commit runs
	// outside the lock, so a slow commit (a checkpoint write) delays no
	// other worker's claim; the committing flag keeps commits serial.
	finish := func(i int) {
		mu.Lock()
		finished[i] = true
		if committing {
			mu.Unlock()
			return
		}
		committing = true
		for !stopped && cursor < n && finished[cursor] {
			c := cursor
			mu.Unlock()
			ok := commit == nil || commit(c)
			mu.Lock()
			cursor++
			if !ok {
				stopped = true
			}
		}
		committing = false
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					stopped = true
					mu.Unlock()
				}
			}()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				timed(ws, w, i, work)
				finish(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return cursor
}

// timed runs work(w, i), recording its duration into ws when ws is set.
func timed(ws *metrics.WorkerStats, w, i int, work func(w, i int)) {
	if ws == nil {
		work(w, i)
		return
	}
	start := time.Now()
	work(w, i)
	ws.Record(w, time.Since(start))
}

// closed reports whether done is closed; a nil channel never is.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// MapCtx applies f to every item, fanning the calls out over at most
// workers goroutines, and returns the results in input order: out[i] ==
// f(i, items[i]). workers <= 0 means runtime.GOMAXPROCS(0); workers == 1
// (or a single item) runs inline with no goroutines, so the serial path is
// the parallel path with the pool removed.
//
// f must treat items as independent: it must not mutate shared state
// without its own synchronization, and its result must not depend on the
// completion order of other items. A panic in any call is re-raised in the
// caller after the pool drains, so no goroutine is leaked.
//
// Workers stop claiming new items once ctx is cancelled (items already
// being processed run to completion; a nil ctx never is), and each
// finished item is recorded into ws (which may be nil). Besides the
// results, MapCtx returns a done slice marking which items actually ran —
// out[i] is f's result when done[i], the zero value otherwise.
func MapCtx[T, R any](ctx context.Context, workers int, items []T, ws *metrics.WorkerStats, f func(i int, item T) R) ([]R, []bool) {
	out := make([]R, len(items))
	done := make([]bool, len(items))
	Run(ctx, workers, len(items), ws, func(_, i int) {
		out[i] = f(i, items[i])
		done[i] = true
	}, nil)
	return out, done
}

// AllDone reports whether every item of a MapCtx done slice ran.
func AllDone(done []bool) bool {
	for _, d := range done {
		if !d {
			return false
		}
	}
	return true
}
