// Package model is a bounded model checker for the simulation engine: it
// exhaustively explores every schedule of an algorithm on a small instance,
// deduplicating configurations by fingerprint.
//
// Because a crash is just a schedule that stops activating a process, crash
// tolerance does not need separate branches: checking the safety invariant
// at *every* reachable configuration covers every crash pattern (the
// execution in which everyone else crashes "now" ends in exactly that
// configuration).
//
// Wait-freedom is checked two ways. First, a cycle in the reachable
// configuration graph (every transition activates at least one working
// process) is a certificate of an infinite execution in which some process
// takes infinitely many rounds without terminating — i.e. the algorithm is
// not wait-free; Explore detects such cycles. Second, WorstActivations
// computes, by memoized longest-path analysis over the acyclic
// configuration graph, the exact supremum of per-process activation counts
// over all schedules — the paper's running-time measure (§2.2).
package model

import (
	"context"
	"fmt"
	"os"

	"asynccycle/internal/metrics"
	"asynccycle/internal/ooc"
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
)

// Options bound the exploration.
type Options struct {
	// MaxDepth bounds schedule length (steps from the initial
	// configuration). 0 means DefaultMaxDepth.
	MaxDepth int
	// MaxStates bounds the number of distinct configurations explored.
	// 0 means DefaultMaxStates.
	MaxStates int
	// SingletonsOnly restricts σ(t) to single-process activations. The
	// general model allows arbitrary simultaneous sets, but for two-phase
	// write/read rounds the singleton schedules already generate every
	// reachable register interleaving up to observational equivalence on
	// most instances; full subset exploration is the default.
	SingletonsOnly bool
	// MaxViolations caps recorded invariant-violation messages.
	MaxViolations int
	// Workers counts a sweep's orbit workers; <= 1 (the default) is
	// serial. In a sweep (SweepExplore, SweepWorstActivations) Workers > 1
	// explores that many orbit representatives at once, each on a
	// worker's own serial explorer, and commits their reports in
	// enumeration order: the SweepReport, every OnOrbitDone call and so
	// every checkpoint are exactly the serial sweep's, and MaxStates
	// bounds each orbit's own exploration. The registry's sweeps fill
	// Workers <= 0 with every CPU. A single check (Explore,
	// WorstActivations) is serial at any Workers.
	Workers int
	// Symmetry selects a sweep's reduction under the cycle's automorphism
	// group (see symmetry.go): SymmetryOff (default) explores every
	// identifier assignment; SymmetryAssignments and SymmetryFull explore
	// one assignment per dihedral orbit. A single check (Explore,
	// WorstActivations, ObstructionFree, FairlyTerminates) ignores it.
	Symmetry Symmetry
	// Context, when non-nil, cancels the exploration early: the checker
	// stops claiming new branches (polled every few hundred states, so
	// cancellation lands promptly) and returns the partial Report for the
	// region explored so far, labeled with a StopReason. A nil Context
	// leaves the hot path entirely unaffected.
	Context context.Context
	// Budget adds wall-clock and size bounds on top of the explicit
	// MaxDepth/MaxStates options: Budget.Timeout stops the run after that
	// much wall-clock, and Budget.MaxStates/Budget.MaxSteps tighten
	// MaxStates/MaxDepth when smaller (the smaller positive bound wins).
	Budget runctl.Budget
	// Metrics, when non-nil, receives live progress: States/Terminal
	// counters, FrontierDepth and VisitedSize gauges, HashCollisions. A
	// sweep's orbit workers publish into the same sink: counters sum over
	// orbits, and VisitedSize is the largest single orbit's table.
	Metrics *metrics.Run

	// SpillDir, when non-empty, makes Explore's visited set out-of-core:
	// once it outgrows SpillMemLimit resident fingerprints, sorted
	// 128-bit fingerprint runs are spilled to a fresh subdirectory of
	// SpillDir and membership is resolved against the on-disk runs (see
	// internal/ooc). State identity is the full 128-bit fingerprint —
	// exactly the in-RAM compact tables' identity — so States and
	// Terminal are bit-identical to an in-RAM run. A sweep's orbit workers
	// each spill their own orbit.
	SpillDir string
	// SpillMemLimit bounds resident visited fingerprints before a spill;
	// <= 0 selects ooc.DefaultMemLimit. Only meaningful with SpillDir. In
	// a sweep it bounds each orbit worker's resident keys, so up to
	// Workers × SpillMemLimit are resident at once.
	SpillMemLimit int

	// ShardIndex/ShardCount split an assignment sweep across processes:
	// with ShardCount > 1, SweepExplore explores only the orbit
	// representatives whose zero-based enumeration index ≡ ShardIndex
	// (mod ShardCount) and reports counts for that shard alone; shard
	// reports over a partition merge exactly via MergeSweepReports.
	ShardIndex int
	ShardCount int

	// SweepResume, when non-nil, resumes an interrupted sweep: every
	// assignment lexicographically ≤ Cursor is skipped (it was completed
	// and is already folded into Totals, which seed the cumulative
	// report). The sweep enumerates assignments deterministically, so a
	// resumed run's final report is bit-identical to an uninterrupted one.
	SweepResume *SweepResume
	// OnOrbitDone, when non-nil, is called after each completed (never
	// after a cancelled or timed-out) per-assignment exploration with the
	// assignment, its orbit weight, the per-run report, and the cumulative
	// sweep report so far — the checkpoint writer's hook. Calls come in
	// enumeration order and never concurrently, but with Workers > 1 from
	// whichever worker goroutine commits the orbit. Returning an error
	// aborts the sweep with that error.
	OnOrbitDone func(assignment []int, weight int, run Report, cum SweepReport) error
}

// SweepResume carries the completed prefix of an interrupted sweep: the
// last completed assignment in lexicographic order and the cumulative
// totals over all completed assignments (cmd/modelcheck persists both via
// internal/ooc checkpoints).
type SweepResume struct {
	Cursor []int
	Totals SweepReport
}

// DefaultMaxDepth and DefaultMaxStates are generous bounds for n ≤ 5.
const (
	DefaultMaxDepth      = 256
	DefaultMaxStates     = 2_000_000
	defaultMaxViolations = 8
)

func (o Options) withDefaults() Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = DefaultMaxDepth
	}
	if o.MaxStates <= 0 {
		o.MaxStates = DefaultMaxStates
	}
	if o.MaxViolations <= 0 {
		o.MaxViolations = defaultMaxViolations
	}
	// Budget bounds tighten the explicit options: smaller positive wins.
	o.MaxDepth = runctl.Min(o.MaxDepth, o.Budget.MaxSteps)
	o.MaxStates = runctl.Min(o.MaxStates, o.Budget.MaxStates)
	return o
}

// withTimeout folds Budget.Timeout into Options.Context so every layer
// (the DFS, a sweep's orbit workers, the longest-path analysis) watches a
// single shared deadline. The returned cancel must be called to release
// the timer.
func (o Options) withTimeout() (Options, context.CancelFunc) {
	if o.Budget.Timeout <= 0 {
		return o, func() {}
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, o.Budget.Timeout)
	o.Context = ctx
	o.Budget.Timeout = 0
	return o, cancel
}

// Report summarizes an exploration.
type Report struct {
	// States is the number of distinct configurations visited, each keyed
	// by its 128-bit FingerprintHash128.
	States int
	// Terminal counts configurations in which every process terminated.
	Terminal int
	// Truncated reports whether a depth or state bound cut exploration
	// short (results are then lower bounds, not exhaustive).
	Truncated bool
	// CycleFound reports whether a schedule loop was found along which
	// working processes are activated without terminating — a certificate
	// that the algorithm is not wait-free on this instance.
	CycleFound bool
	// CyclePrefix and CycleLoop, when CycleFound, form a concrete
	// replayable certificate: playing CyclePrefix from the initial
	// configuration reaches a configuration from which CycleLoop returns
	// to itself — repeating CycleLoop forever is an infinite execution
	// with working processes activated at every step.
	CyclePrefix [][]int
	CycleLoop   [][]int
	// Violations holds the first few invariant-violation messages.
	Violations []string
	// ViolationWitness is the schedule reaching the first recorded
	// violation's configuration from the initial one.
	ViolationWitness [][]int
	// DeepestPath is the longest schedule explored (in steps).
	DeepestPath int
	// HashCollisions counts lane-A collisions in the state tables: inserts
	// of a configuration whose 64-bit lane A equals that of exactly one
	// stored configuration (a third on the same lane A does not recount).
	// The tables key on both lanes (ooc.Table), so such a collision
	// conflates nothing; it counts what a lane-A-only table would have had
	// to resolve. Expected to be 0 on every realistic instance.
	HashCollisions int
	// Partial reports that the run stopped before exhausting the schedule
	// space — a budget tripped or the context was cancelled. All counts
	// then cover exactly the explored region (never garbage, never silent
	// truncation) and are lower bounds on the true values.
	Partial bool
	// StopReason labels why a Partial run stopped (runctl.StopCancelled,
	// StopTimeout, StopMaxStates, StopMaxDepth, ...); empty when the run
	// completed.
	StopReason runctl.StopReason
}

// Ok reports whether the exploration was exhaustive and found neither
// invariant violations nor non-termination cycles.
func (r Report) Ok() bool {
	return !r.Truncated && !r.Partial && !r.CycleFound && len(r.Violations) == 0
}

// noteStop records the first stop reason and marks the report partial.
func (r *Report) noteStop(reason runctl.StopReason) {
	r.Partial = true
	if r.StopReason == runctl.StopNone {
		r.StopReason = reason
	}
}

// String renders a one-line summary. Partial runs carry an explicit
// marker; complete runs render exactly as before budgets existed, keeping
// recorded outputs byte-identical.
func (r Report) String() string {
	s := fmt.Sprintf("states=%d terminal=%d cycle=%t violations=%d truncated=%t deepest=%d",
		r.States, r.Terminal, r.CycleFound, len(r.Violations), r.Truncated, r.DeepestPath)
	if r.Partial {
		s += fmt.Sprintf(" [PARTIAL: %s]", r.StopReason)
	}
	return s
}

// Invariant is a per-configuration safety check; return a non-nil error to
// record a violation. It must not mutate the engine. The serial checker
// steps one engine object through every explored state and takes each
// step back after the state's subtree, so e stands for a different
// configuration after the call: an invariant must not keep e, or anything
// read from it (a View's slices, a node), past its return.
type Invariant[V any] func(e *sim.Engine[V]) error

type explorer[V any] struct {
	opt       Options
	inv       Invariant[V]
	visited   ooc.Table[struct{}]
	onStack   ooc.Table[struct{}]
	path      [][]int   // activation sets from the root to the current state
	pathFPs   []ooc.Key // keys of the states along the path
	report    Report
	interrupt bool            // context/deadline tripped: unwind without exploring
	ck        *runctl.Checker // nil when un-budgeted (zero polling cost)
	met       *metrics.Run    // nil when observability is off
	eng       *sim.Engine[V]  // explore's copy of the root, stepped and undone in place
	exp       expansions[V]   // per-depth working sets, activation sets and undo records

	// spill, when non-nil, replaces the in-RAM visited table with the
	// out-of-core fingerprint set (Options.SpillDir); spillDir is the
	// per-explorer scratch directory removed on teardown. onStack stays
	// in RAM: it is bounded by the path depth, not the state space.
	spill    *ooc.Set
	spillDir string
}

func newExplorer[V any](opt Options) *explorer[V] {
	return &explorer[V]{
		opt: opt.withDefaults(),
		ck:  runctl.NewChecker(opt.Context, opt.Budget.Timeout),
		met: opt.Metrics,
	}
}

// key is the configuration's identity in every state table: its 128-bit
// fingerprint. The hash uses engine-owned scratch: never key a shared
// engine from concurrent workers.
func key[V any](e *sim.Engine[V]) ooc.Key {
	h1, h2 := e.FingerprintHash128()
	return ooc.Key{H1: h1, H2: h2}
}

// visitedSize is the figure the VisitedSize gauge publishes for the state
// just inserted: the spilled set's cardinality when out of core, the
// in-RAM table size otherwise. Called once per visited insertion.
func (x *explorer[V]) visitedSize() int64 {
	if x.spill != nil {
		return x.spill.Len()
	}
	return int64(x.visited.Len())
}

// copySteps deep-copies a schedule fragment.
func copySteps(steps [][]int) [][]int {
	out := make([][]int, len(steps))
	for i, s := range steps {
		out[i] = append([]int(nil), s...)
	}
	return out
}

// Explore exhaustively runs every schedule of the given initial engine
// within the option bounds, checking inv (which may be nil) at every
// reachable configuration, including the initial one.
//
// When opt.Context is cancelled or a Budget axis trips, Explore stops
// promptly and returns a partial Report (Partial true, StopReason set)
// whose counts cover exactly the states visited so far — always a
// prefix-consistent subset of the full exploration.
func Explore[V any](root *sim.Engine[V], opt Options, inv Invariant[V]) Report {
	opt = opt.withDefaults()
	opt, cancel := opt.withTimeout()
	defer cancel()
	x := newExplorer[V](opt)
	x.inv = inv
	return x.explore(root)
}

// explore runs one serial exploration from root and returns its report.
// It steps a private copy of root, never root itself, and starts from
// empty tables, so one explorer can run many roots in turn (a serial
// sweep does) without reallocating its tables, engine or undo records.
func (x *explorer[V]) explore(root *sim.Engine[V]) Report {
	x.visited.Reset()
	x.onStack.Reset()
	x.report, x.interrupt = Report{}, false
	if x.opt.SpillDir != "" {
		dir, err := os.MkdirTemp(x.opt.SpillDir, "spill-")
		if err == nil {
			var s *ooc.Set
			if s, err = ooc.NewSet(dir, x.opt.SpillMemLimit); err == nil {
				x.spill, x.spillDir = s, dir
			} else {
				os.RemoveAll(dir)
			}
		}
		if err != nil {
			// Out-of-core storage unavailable: refuse rather than silently
			// falling back to an in-RAM table the caller asked to bound.
			x.report.Truncated = true
			x.report.noteStop(runctl.StopIO)
			return x.report
		}
	}
	x.eng = root.CloneInto(x.eng)
	x.dfs(x.eng, 0)
	if x.spill != nil {
		x.spill.Close()
		os.RemoveAll(x.spillDir)
		x.spill, x.spillDir = nil, ""
	}
	x.report.HashCollisions = x.visited.Collisions() + x.onStack.Collisions()
	if x.met != nil {
		x.met.HashCollisions.Add(int64(x.report.HashCollisions))
	}
	return x.report
}

// dfs explores e's configuration and, in place, everything reachable
// from it: each child is e after StepUndo, and e is restored by Undo
// before the next sibling, so dfs returns with e unchanged.
func (x *explorer[V]) dfs(e *sim.Engine[V], depth int) {
	if x.interrupt {
		return
	}
	if reason, stop := x.ck.Check(); stop {
		// Context cancelled or deadline passed: unwind the whole stack
		// without claiming further states; everything counted so far stays.
		x.interrupt = true
		x.report.Truncated = true
		x.report.noteStop(reason)
		return
	}
	if depth > x.report.DeepestPath {
		x.report.DeepestPath = depth
	}
	k := key(e)
	if _, on := x.onStack.Get(k); on {
		if !x.report.CycleFound {
			x.report.CycleFound = true
			// The repeated state sits somewhere along the current path;
			// everything before it is the prefix, the rest is the loop.
			start := 0
			for i, pk := range x.pathFPs {
				if pk == k {
					start = i
					break
				}
			}
			x.report.CyclePrefix = copySteps(x.path[:start])
			x.report.CycleLoop = copySteps(x.path[start:])
		}
		return
	}
	if x.spill != nil {
		added, err := x.spill.Add(k.H1, k.H2)
		if err != nil {
			// The on-disk visited set is gone; membership answers from here
			// on would be undefined, so unwind everything counted so far.
			x.interrupt = true
			x.report.Truncated = true
			x.report.noteStop(runctl.StopIO)
			return
		}
		if !added {
			return
		}
	} else if !x.visited.Put(k, struct{}{}) {
		return
	}
	x.report.States++
	if x.met != nil {
		x.met.States.Inc()
		x.met.FrontierDepth.SetMax(int64(depth))
		x.met.VisitedSize.SetMax(x.visitedSize())
	}
	if x.inv != nil {
		if err := x.inv(e); err != nil {
			if len(x.report.Violations) == 0 {
				x.report.ViolationWitness = copySteps(x.path)
			}
			if len(x.report.Violations) < x.opt.MaxViolations {
				x.report.Violations = append(x.report.Violations, err.Error())
			}
		}
	}
	if e.AllDone() {
		x.report.Terminal++
		if x.met != nil {
			x.met.Terminal.Inc()
		}
		return
	}
	if depth >= x.opt.MaxDepth {
		// Prune this branch but keep exploring siblings: depth bounds are a
		// per-path horizon, not a global stop.
		x.report.Truncated = true
		x.report.noteStop(runctl.StopMaxDepth)
		return
	}
	if x.report.States >= x.opt.MaxStates {
		x.report.Truncated = true
		x.report.noteStop(runctl.StopMaxStates)
		return
	}

	b := x.exp.at(depth)
	b.working = e.AppendWorking(b.working[:0])
	if len(b.working) == 0 {
		// All remaining processes crashed: nothing can evolve.
		return
	}
	x.onStack.Put(k, struct{}{})
	x.pathFPs = append(x.pathFPs, k)
	for _, subset := range b.activationSets(x.opt.SingletonsOnly) {
		e.StepUndo(subset, &b.undo)
		x.path = append(x.path, subset)
		x.dfs(e, depth+1)
		e.Undo(&b.undo)
		x.path = x.path[:len(x.path)-1]
		if x.interrupt {
			break
		}
	}
	x.pathFPs = x.pathFPs[:len(x.pathFPs)-1]
	x.onStack.Delete(k)
}

// WorstActivations computes, for each process, the exact maximum number of
// rounds it can be made to perform over *all* schedules before it
// terminates — the per-process round complexity. The boolean result is
// false when the analysis was inconclusive (a cycle makes some supremum
// infinite, or bounds truncated the exploration); the report describes why.
func WorstActivations[V any](root *sim.Engine[V], opt Options) ([]int, bool, Report) {
	opt = opt.withDefaults()
	opt, cancel := opt.withTimeout()
	defer cancel()
	w := &worst[V]{
		opt:  opt,
		zero: make([]int, root.N()),
		ck:   runctl.NewChecker(opt.Context, opt.Budget.Timeout),
		met:  opt.Metrics,
	}
	// The analysis steps and undoes a private copy, never root itself.
	vec := w.dfs(root.Clone(), 0)
	w.report.HashCollisions = w.memo.Collisions() + w.onSt.Collisions()
	ok := !w.report.CycleFound && !w.report.Truncated && !w.report.Partial
	return vec, ok, w.report
}

type worst[V any] struct {
	opt       Options
	memo      ooc.Table[[]int]
	onSt      ooc.Table[struct{}]
	report    Report
	zero      []int         // shared all-zeros vector; callers must not mutate results
	exp       expansions[V] // per-depth working sets, activation sets and undo records
	interrupt bool
	ck        *runctl.Checker
	met       *metrics.Run
}

func (w *worst[V]) dfs(e *sim.Engine[V], depth int) []int {
	n := e.N()
	if w.interrupt {
		return w.zero
	}
	if reason, stop := w.ck.Check(); stop {
		// An interrupted longest-path analysis cannot certify any supremum:
		// mark the run partial and let every frame unwind with zeros.
		w.interrupt = true
		w.report.Truncated = true
		w.report.noteStop(reason)
		return w.zero
	}
	if depth > w.report.DeepestPath {
		w.report.DeepestPath = depth
	}
	k := key(e)
	if _, on := w.onSt.Get(k); on {
		w.report.CycleFound = true
		return w.zero
	}
	if v, ok := w.memo.Get(k); ok {
		return v
	}
	if e.AllDone() {
		w.report.Terminal++
		w.memo.Put(k, w.zero)
		if w.met != nil {
			w.met.States.Inc()
			w.met.Terminal.Inc()
		}
		return w.zero
	}
	if depth >= w.opt.MaxDepth {
		w.report.Truncated = true
		w.report.noteStop(runctl.StopMaxDepth)
		return w.zero
	}
	if w.memo.Len() >= w.opt.MaxStates {
		w.report.Truncated = true
		w.report.noteStop(runctl.StopMaxStates)
		return w.zero
	}
	b := w.exp.at(depth)
	b.working = e.AppendWorking(b.working[:0])
	if len(b.working) == 0 {
		w.memo.Put(k, w.zero)
		return w.zero
	}
	w.onSt.Put(k, struct{}{})
	best := make([]int, n)
	for _, subset := range b.activationSets(w.opt.SingletonsOnly) {
		// performed is engine scratch that the recursion's own steps
		// overwrite: keep a copy in this depth's storage.
		b.performed = append(b.performed[:0], e.StepUndo(subset, &b.undo)...)
		sub := w.dfs(e, depth+1)
		e.Undo(&b.undo)
		for p := 0; p < n; p++ {
			total := sub[p]
			for _, q := range b.performed {
				if q == p {
					total++
					break
				}
			}
			if total > best[p] {
				best[p] = total
			}
		}
		if w.interrupt {
			break
		}
	}
	w.onSt.Delete(k)
	w.memo.Put(k, best)
	w.report.States = w.memo.Len()
	if w.met != nil {
		w.met.States.Inc()
		w.met.FrontierDepth.SetMax(int64(depth))
		w.met.VisitedSize.SetMax(int64(w.memo.Len()))
	}
	return best
}

// workingSet lists the processes still eligible for activation.
func workingSet[V any](e *sim.Engine[V]) []int {
	var out []int
	for i := 0; i < e.N(); i++ {
		if e.Working(i) {
			out = append(out, i)
		}
	}
	return out
}

// subsets enumerates the allowed activation sets over the working
// processes: all non-empty subsets, or singletons only.
func subsets(working []int, singletonsOnly bool) [][]int {
	b := setBuf{working: working}
	return b.activationSets(singletonsOnly)
}

// expansion is one DFS depth's reusable storage, so the serial DFS
// allocates nothing per state: the working set of the state expanded
// there, the activation sets over it, and the undo record of the child
// being explored. The sets stay valid while the state's children are
// explored (the path refers to them); the next state expanded at the same
// depth overwrites them.
type expansion[V any] struct {
	setBuf
	performed []int       // WorstActivations' copy of the child's performed set
	undo      sim.Undo[V] // takes the child's step back
}

// setBuf holds a working set and the activation sets over it.
type setBuf struct {
	working []int
	sets    [][]int
	flat    []int // backing storage of sets
}

// activationSets enumerates the allowed activation sets over b.working
// into b's storage: all non-empty subsets in mask order, or singletons
// only. Each set is capped at its own length, so appending to one never
// clobbers the next.
func (b *setBuf) activationSets(singletonsOnly bool) [][]int {
	b.sets = b.sets[:0]
	if singletonsOnly {
		b.flat = append(b.flat[:0], b.working...)
		for i := range b.flat {
			b.sets = append(b.sets, b.flat[i:i+1:i+1])
		}
		return b.sets
	}
	w := len(b.working)
	if w == 0 {
		return b.sets
	}
	// Every process is in half of the 2^w subsets. Sizing flat up front
	// keeps appends from moving the sets already cut from it.
	if size := w << (w - 1); cap(b.flat) < size {
		b.flat = make([]int, 0, size)
	}
	flat := b.flat[:0]
	for mask := 1; mask < 1<<w; mask++ {
		start := len(flat)
		for i, p := range b.working {
			if mask&(1<<i) != 0 {
				flat = append(flat, p)
			}
		}
		b.sets = append(b.sets, flat[start:len(flat):len(flat)])
	}
	b.flat = flat
	return b.sets
}

// expansions holds one expansion per DFS depth, allocated on first use.
type expansions[V any] []*expansion[V]

func (s *expansions[V]) at(depth int) *expansion[V] {
	for len(*s) <= depth {
		*s = append(*s, new(expansion[V]))
	}
	return (*s)[depth]
}
