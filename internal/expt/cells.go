package expt

import (
	"fmt"
	"runtime"

	"asynccycle/internal/metrics"
	"asynccycle/internal/par"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
)

// The experiment runners fan their sweeps out as *cells*: one cell is one
// independent unit of work (typically one engine run or one model-check),
// enumerated up front with explicit coordinates and dispatched through
// par.MapCtx. Determinism rests on two legs:
//
//   - every cell derives its random seeds from its own coordinates via
//     cellSeed, never from shared mutable state, so a cell computes the
//     same result no matter which worker runs it or in which order;
//   - par.MapCtx returns results indexed by input position, and the
//     runners merge them serially in enumeration order.
//
// Together these make every Table byte-identical across parallelism levels
// (asserted by TestParallelSerialEquivalence).

// mapCells is the run-controlled fan-out every runner uses: par.MapCtx
// over the sweep cells, publishing CellsTotal/CellsDone and per-worker
// utilization into o.Metrics (when set) and marking tb Partial when the
// context stopped the pool before every cell ran. It returns the results
// (input order, as always) plus the done mask; merge loops must skip cells
// whose done entry is false — their result slot is the zero value.
//
// With a nil o.Context every cell runs, so un-budgeted tables stay
// byte-identical at every parallelism level.
func mapCells[T, R any](o Options, tb *Table, cells []T, f func(i int, c T) R) ([]R, []bool) {
	work := f
	var ws *metrics.WorkerStats
	if o.Metrics != nil {
		o.Metrics.CellsTotal.Add(int64(len(cells)))
		nw := o.workers()
		if nw <= 0 {
			nw = runtime.GOMAXPROCS(0)
		}
		if nw > len(cells) {
			nw = len(cells)
		}
		if ws = o.Metrics.Workers(); ws.N() != nw {
			ws = o.Metrics.SetWorkers(nw)
		}
		work = func(i int, c T) R {
			r := f(i, c)
			o.Metrics.CellsDone.Inc()
			return r
		}
	}
	out, done := par.MapCtx(o.Context, o.workers(), cells, ws, work)
	if skipped := len(cells) - countDone(done); skipped > 0 {
		tb.MarkPartial(runctl.Reason(o.Context), skipped, len(cells))
	}
	return out, done
}

func countDone(done []bool) int {
	n := 0
	for _, d := range done {
		if d {
			n++
		}
	}
	return n
}

// rowComplete reports whether every cell in done[from:to) ran — merge
// loops use it to decide whether a table row's aggregate is trustworthy.
func rowComplete(done []bool, from, to int) bool {
	for i := from; i < to && i < len(done); i++ {
		if !done[i] {
			return false
		}
	}
	return true
}

// cellSeed derives a deterministic non-zero seed from the experiment ID
// and the cell coordinates (FNV-1a over their %v renderings). It replaces
// the old pattern of passing one shared Options seed everywhere, whose
// effective values depended on sweep execution order.
func cellSeed(base int64, parts ...any) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime64
		}
	}
	mix(fmt.Sprintf("%d", base))
	for _, p := range parts {
		mix("|")
		mix(fmt.Sprintf("%v", p))
	}
	seed := int64(h >> 1) // non-negative
	if seed == 0 {
		seed = 1
	}
	return seed
}

// schedSpec describes a scheduler by name plus a factory, so cells can
// construct private instances (stateful schedulers cannot be shared) from
// coordinate-derived seeds while merges and notes refer to the stable name.
type schedSpec struct {
	name string
	mk   func(seed int64) schedule.Scheduler
}

// schedSpecs is the standard sweep battery, mirroring the schedulers the
// suite has always used (the names match each scheduler's Name()).
func schedSpecs() []schedSpec {
	return []schedSpec{
		{"synchronous", func(int64) schedule.Scheduler { return schedule.Synchronous{} }},
		{"round-robin(1)", func(int64) schedule.Scheduler { return schedule.NewRoundRobin(1) }},
		{"round-robin(3)", func(int64) schedule.Scheduler { return schedule.NewRoundRobin(3) }},
		{"random-subset(p=0.30)", func(s int64) schedule.Scheduler { return schedule.NewRandomSubset(0.3, s) }},
		{"random-one", func(s int64) schedule.Scheduler { return schedule.NewRandomOne(s + 1) }},
		{"alternating", func(int64) schedule.Scheduler { return schedule.Alternating{} }},
		{"burst(4)", func(int64) schedule.Scheduler { return schedule.NewBurst(4) }},
	}
}

// parallelSchedSpecs is the reduced battery for very large instances,
// where sequential schedulers cost Θ(n) steps per sweep of the ring.
func parallelSchedSpecs() []schedSpec {
	return []schedSpec{
		{"synchronous", func(int64) schedule.Scheduler { return schedule.Synchronous{} }},
		{"random-subset(p=0.50)", func(s int64) schedule.Scheduler { return schedule.NewRandomSubset(0.5, s) }},
		{"alternating", func(int64) schedule.Scheduler { return schedule.Alternating{} }},
	}
}
