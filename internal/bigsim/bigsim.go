package bigsim

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"asynccycle/internal/metrics"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

// Engine drives one Kernel over the cycle with internal/sim's exact step
// semantics: dedup + working-filter + ascending order, interleaved or
// simultaneous phases, per-activation crash limits, and the empty-streak
// abandonment rule. Per-node bookkeeping lives in flat slices and bitsets;
// a warmed-up engine steps without allocating.
type Engine struct {
	k    Kernel
	n    int
	mode sim.Mode
	t    int64

	work    []uint64 // frontier: bit i set ⇔ node i is working
	nWork   int
	done    []uint64
	crashed []uint64
	inSet   []uint64 // Step's dedup marks, cleared after use
	acts    []int32
	outputs []int32
	limits  []int32 // crash after this many activations; <0 = never; nil = none armed
	total   int64   // total activations performed

	incremental bool
	checkErr    error

	perfBuf  []int32
	schedBuf []int32
	wrapBuf  []int  // a wrapped internal/schedule scheduler's choice
	drv      driver // runctl.Drive's view of the current run

	// res is the reusable Result storage, allocated by the first Result()
	// call at the engine's size and refilled by each later one. Callers
	// that retain a Result across Reset must copy it.
	res sim.Result

	met *metrics.Run
}

// New builds an engine around a kernel. The kernel is owned by the engine
// from here on.
func New(k Kernel) *Engine {
	e := &Engine{k: k}
	e.init(k.N())
	return e
}

func (e *Engine) init(n int) {
	words := (n + 63) / 64
	e.n = n
	e.work = make([]uint64, words)
	e.done = make([]uint64, words)
	e.crashed = make([]uint64, words)
	e.inSet = make([]uint64, words)
	e.acts = make([]int32, n)
	e.outputs = make([]int32, n)
	e.limits = nil
	e.perfBuf = make([]int32, 0, 256)
	e.schedBuf = make([]int32, 4096)
	e.res = sim.Result{} // sized to n by the next Result()
	e.resetCommon()
}

func (e *Engine) resetCommon() {
	for i := range e.work {
		e.work[i] = ^uint64(0)
	}
	if tail := e.n % 64; tail != 0 {
		e.work[len(e.work)-1] = (uint64(1) << tail) - 1
	}
	clear(e.done)
	clear(e.crashed)
	clear(e.inSet)
	e.nWork = e.n
	clear(e.acts)
	for i := range e.outputs {
		e.outputs[i] = -1
	}
	e.limits = nil
	e.t = 0
	e.total = 0
	e.checkErr = nil
}

// Reset re-initializes the engine (and its kernel) for a new run on the
// given identifiers, reusing every buffer when the size is unchanged —
// repeated runs at the same n allocate nothing beyond the kernel's own
// Reset.
func (e *Engine) Reset(xs []int) error {
	if err := e.k.Reset(xs); err != nil {
		return err
	}
	if len(xs) != e.n {
		e.init(len(xs))
		return nil
	}
	e.resetCommon()
	return nil
}

// SetMode selects the activation semantics; call before the first Step.
func (e *Engine) SetMode(m sim.Mode) { e.mode = m }

// Mode returns the activation semantics.
func (e *Engine) Mode() sim.Mode { return e.mode }

// SetIncremental turns incremental safety checking on: every termination
// event validates the output against the palette and against the outputs
// of already-terminated neighbors. The proper-coloring predicate over the
// terminated subgraph is monotone — constraints appear only when a node
// terminates and outputs never change afterwards — so checking each edge
// exactly once, when its second endpoint terminates, is equivalent to the
// O(n) full scan after every step (soundness argument in DESIGN.md §11).
func (e *Engine) SetIncremental(on bool) { e.incremental = on }

// CheckErr returns the first safety violation the incremental checker
// found, or nil.
func (e *Engine) CheckErr() error { return e.checkErr }

// SetMetrics installs an optional metrics sink (nil = off).
func (e *Engine) SetMetrics(r *metrics.Run) { e.met = r }

// Kernel returns the engine's kernel.
func (e *Engine) Kernel() Kernel { return e.k }

// BytesPerNode is the per-node memory that New and Reset allocate: the
// kernel's registers and state plus the engine's own bookkeeping (acts,
// outputs, and the work/done/crashed/dedup bitsets). Storage allocated on
// demand is not counted: the Result snapshot (18 bytes/node, on the first
// Result call) and the crash limits (4 bytes/node, on the first
// CrashAfter).
func (e *Engine) BytesPerNode() int {
	return e.k.BytesPerNode() + 4 + 4 + 1 // acts + outputs + bitsets (4×⅛ rounded up)
}

// --- schedule.State -------------------------------------------------------

// N implements schedule.State.
func (e *Engine) N() int { return e.n }

// Time implements schedule.State: the 1-based index of the next step.
func (e *Engine) Time() int { return int(e.t) + 1 }

// Working implements schedule.State.
func (e *Engine) Working(i int) bool { return bitGet(e.work, i) }

// Activations implements schedule.State.
func (e *Engine) Activations(i int) int { return int(e.acts[i]) }

// AppendWorking implements schedule.State, skipping whole empty bitset
// words of the frontier.
func (e *Engine) AppendWorking(buf []int) []int {
	for w, word := range e.work {
		base := w * 64
		for word != 0 {
			buf = append(buf, base+trailingZeros(word))
			word &= word - 1
		}
	}
	return buf
}

// appendWorkingIn appends the working nodes of [lo, hi) in ascending
// order until buf reaches its capacity, skipping empty frontier words.
func (e *Engine) appendWorkingIn(buf []int32, lo, hi int) []int32 {
	for w := lo >> 6; w<<6 < hi && len(buf) < cap(buf); w++ {
		word := e.work[w]
		if w == lo>>6 {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if end := hi - w<<6; end < 64 {
			word &= uint64(1)<<uint(end) - 1
		}
		for ; word != 0 && len(buf) < cap(buf); word &= word - 1 {
			buf = append(buf, int32(w<<6+trailingZeros(word)))
		}
	}
	return buf
}

// workingAt returns the k-th working node in ascending order, for
// 0 ≤ k < nWork, skipping whole frontier words by popcount.
func (e *Engine) workingAt(k int) int32 {
	for w, word := range e.work {
		if c := popcount(word); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			word &= word - 1
		}
		return int32(w<<6 + trailingZeros(word))
	}
	panic("bigsim: workingAt past the last working node")
}

// Done reports whether process i terminated.
func (e *Engine) Done(i int) bool { return bitGet(e.done, i) }

// Crashed reports whether process i crashed.
func (e *Engine) Crashed(i int) bool { return bitGet(e.crashed, i) }

// Output returns process i's output, or -1 if it has not terminated.
func (e *Engine) Output(i int) int { return int(e.outputs[i]) }

// Steps returns the number of time steps executed so far.
func (e *Engine) Steps() int64 { return e.t }

// TotalActivations returns the total number of rounds performed so far.
func (e *Engine) TotalActivations() int64 { return e.total }

// AllSettled reports whether every process has terminated or crashed.
func (e *Engine) AllSettled() bool { return e.nWork == 0 }

var _ schedule.State = (*Engine)(nil)

// --- crash plan -----------------------------------------------------------

// CrashAfter arranges for process i to crash once it has performed k
// rounds (k == 0 means it never wakes), mirroring sim.Engine.CrashAfter.
func (e *Engine) CrashAfter(i, k int) {
	if e.limits == nil {
		e.limits = make([]int32, e.n)
		for j := range e.limits {
			e.limits[j] = -1
		}
	}
	e.limits[i] = int32(k)
	if int32(k) <= e.acts[i] {
		e.crash(int32(i))
	}
}

// Crash immediately crashes process i.
func (e *Engine) Crash(i int) { e.crash(int32(i)) }

func (e *Engine) crash(i int32) {
	if bitGet(e.crashed, int(i)) {
		return
	}
	bitSet(e.crashed, int(i))
	if bitGet(e.work, int(i)) {
		bitClear(e.work, int(i))
		e.nWork--
	}
}

// --- stepping -------------------------------------------------------------

// Step executes one time step activating the given set of processes:
// out-of-range and duplicate indices and non-working processes are
// dropped, the survivors execute in ascending order under the engine's
// mode. It returns how many processes performed a round.
func (e *Engine) Step(active []int32) int {
	performed := e.perfBuf[:0]
	for _, i := range active {
		if i < 0 || int(i) >= e.n || bitGet(e.inSet, int(i)) || !bitGet(e.work, int(i)) {
			continue
		}
		bitSet(e.inSet, int(i))
		performed = append(performed, i)
	}
	for _, i := range performed {
		bitClear(e.inSet, int(i))
	}
	slices.Sort(performed)
	e.perfBuf = performed
	return e.execute(performed)
}

// execute is Step's second half: one time step in which every node of set
// performs a round under the engine's mode. set must be ascending,
// distinct and all working — Step's filtered set, or a native decoder's
// choice, which is all three by construction.
func (e *Engine) execute(set []int32) int {
	e.t++
	if e.mode == sim.ModeSimultaneous {
		for _, i := range set {
			e.k.Publish(i)
		}
		for _, i := range set {
			done, out := e.k.Observe(i)
			e.account(i, done, out)
		}
	} else {
		for _, i := range set {
			done, out := e.k.Round(i)
			e.account(i, done, out)
		}
	}
	if e.met != nil {
		e.met.Steps.Inc()
		e.met.Activations.Add(int64(len(set)))
	}
	return len(set)
}

// account applies the round outcome of process i: activation count,
// termination (with incremental checking), or crash-limit trip — the exact
// bookkeeping of sim.Engine.observe.
func (e *Engine) account(i int32, done bool, out int32) {
	e.acts[i]++
	e.total++
	if done {
		bitSet(e.done, int(i))
		e.outputs[i] = out
		bitClear(e.work, int(i))
		e.nWork--
		if e.incremental && e.checkErr == nil {
			e.checkTermination(i, out)
		}
	} else if e.limits != nil && e.limits[i] >= 0 && e.acts[i] >= e.limits[i] {
		bitSet(e.crashed, int(i))
		bitClear(e.work, int(i))
		e.nWork--
	}
}

// checkTermination validates a single termination event and records the
// first violation in checkErr.
func (e *Engine) checkTermination(i, out int32) {
	e.checkErr = e.terminationViolation(i, out)
}

// terminationViolation validates one termination event: palette
// membership, plus color-distinctness against each already-terminated
// cycle neighbor. Each cycle edge is examined exactly once over a run — at
// the moment its later endpoint terminates. It returns nil when the event
// is safe. The method reads only node i's neighborhood, which makes it
// safe to call from a shard worker whose arc contains that neighborhood.
func (e *Engine) terminationViolation(i, out int32) error {
	if !e.k.ValidOutput(out) {
		return fmt.Errorf("bigsim: node %d output %d outside the %s palette", i, out, e.k.Name())
	}
	n := int32(e.n)
	l, r := i-1, i+1
	if l < 0 {
		l = n - 1
	}
	if r == n {
		r = 0
	}
	if bitGet(e.done, int(l)) && e.outputs[l] == out {
		return fmt.Errorf("bigsim: improper coloring: adjacent nodes %d and %d both output %d", l, i, out)
	}
	if bitGet(e.done, int(r)) && e.outputs[r] == out {
		return fmt.Errorf("bigsim: improper coloring: adjacent nodes %d and %d both output %d", i, r, out)
	}
	return nil
}

// VerifyFull is the O(n) reference check the incremental checker
// replaces: palette membership and proper coloring over every terminated
// node and edge. Tests cross-validate the two.
func (e *Engine) VerifyFull() error {
	for i := 0; i < e.n; i++ {
		if !bitGet(e.done, i) {
			continue
		}
		out := e.outputs[i]
		if !e.k.ValidOutput(out) {
			return fmt.Errorf("bigsim: node %d output %d outside the %s palette", i, out, e.k.Name())
		}
		j := i + 1
		if j == e.n {
			j = 0
		}
		if bitGet(e.done, j) && e.outputs[j] == out {
			return fmt.Errorf("bigsim: improper coloring: adjacent nodes %d and %d both output %d", i, j, out)
		}
	}
	return nil
}

// crashRemaining abandons every still-working process, realizing the
// empty-streak rule.
func (e *Engine) crashRemaining() {
	for w, word := range e.work {
		for word != 0 {
			b := word & (-word)
			i := w*64 + trailingZeros(word)
			bitSet(e.crashed, i)
			word &^= b
		}
		e.work[w] = 0
	}
	e.nWork = 0
}

// --- run loops ------------------------------------------------------------

// Run drives the engine with the scheduler until every process terminates
// or crashes, or until maxSteps is exceeded (returning sim.ErrStepLimit),
// or until the incremental checker records a violation (returned as the
// error). Semantics mirror sim.Engine.Run, including the empty-streak
// abandonment rule.
func (e *Engine) Run(s Sched, maxSteps int64) error {
	reason, err := e.drive(nil, s, runctl.Budget{MaxSteps: int(maxSteps)})
	if reason == runctl.StopMaxSteps {
		return fmt.Errorf("%w: %d steps, scheduler %s", sim.ErrStepLimit, e.t, s.Name())
	}
	return err
}

// RunBudget is Run with run control: the execution stops early with a
// non-empty StopReason when the context is done, the budget's Timeout
// elapses (polled amortized — see runctl.Drive), or the step/activation
// budgets are reached; a batched scheduler's last batch is trimmed so the
// step and activation axes stop on their exact bound. A safety violation
// found by the incremental checker is returned as the error alongside
// StopNone.
func (e *Engine) RunBudget(ctx context.Context, s Sched, b runctl.Budget) (runctl.StopReason, error) {
	return e.drive(ctx, s, b)
}

func (e *Engine) drive(ctx context.Context, s Sched, b runctl.Budget) (runctl.StopReason, error) {
	e.drv = driver{e: e, s: s}
	switch s := s.(type) {
	case *rr1:
		e.drv.rr = s
	case *randomSubset, *randomOne:
		e.drv.native = true
	}
	reason, err := runctl.Drive(ctx, b, &e.drv)
	e.drv = driver{} // do not keep the scheduler alive past its run
	return reason, err
}

// driver binds the engine to the scheduler of one run for runctl.Drive.
// The engine embeds it, so starting a run allocates nothing.
type driver struct {
	e      *Engine
	s      Sched
	rr     *rr1 // non-nil when s decodes in batches
	native bool // s's sets are ascending, distinct and all working
}

func (d *driver) AllSettled() bool { return d.e.nWork == 0 }
func (d *driver) Steps() int64     { return d.e.t }
func (d *driver) Abandon()         { d.e.crashRemaining() }

func (d *driver) Advance(limit int64) (int, error) {
	e := d.e
	if d.rr != nil {
		return e.stepBatch(d.rr, limit)
	}
	e.schedBuf = d.s.Next(e, e.schedBuf[:0])
	if d.native {
		return e.execute(e.schedBuf), e.checkErr
	}
	return e.Step(e.schedBuf), e.checkErr
}

// stepBatch decodes up to limit singleton activations at once and replays
// them as individual steps (see rr1). An empty batch is one empty step.
func (e *Engine) stepBatch(rr *rr1, limit int64) (int, error) {
	buf := e.schedBuf[:0]
	if limit < int64(cap(buf)) {
		buf = buf[:0:limit]
	}
	batch := rr.NextBatch(e, buf)
	if len(batch) == 0 {
		e.t++
		return 0, nil
	}
	performed := 0
	for _, i := range batch {
		e.t++
		if !bitGet(e.work, int(i)) {
			continue
		}
		var done bool
		var out int32
		if e.mode == sim.ModeSimultaneous {
			e.k.Publish(i)
			done, out = e.k.Observe(i)
		} else {
			done, out = e.k.Round(i)
		}
		e.account(i, done, out)
		performed++
		if e.checkErr != nil {
			return performed, e.checkErr
		}
	}
	if e.met != nil {
		e.met.Steps.Add(int64(len(batch)))
		e.met.Activations.Add(int64(len(batch)))
	}
	return performed, nil
}

// --- results --------------------------------------------------------------

// Result snapshots the execution as a sim.Result. The returned slices are
// engine-owned storage, allocated by the first call at the engine's size
// and reused by every later call and across Reset at that size: copy them
// to retain beyond the engine's next Result or Reset.
func (e *Engine) Result() sim.Result {
	if len(e.res.Outputs) != e.n {
		e.res = sim.Result{
			Outputs:     make([]int, e.n),
			Done:        make([]bool, e.n),
			Crashed:     make([]bool, e.n),
			Activations: make([]int, e.n),
		}
	}
	for i := 0; i < e.n; i++ {
		e.res.Outputs[i] = int(e.outputs[i])
		e.res.Done[i] = bitGet(e.done, i)
		e.res.Crashed[i] = bitGet(e.crashed, i)
		e.res.Activations[i] = int(e.acts[i])
	}
	e.res.Steps = int(e.t)
	return e.res
}

// Summary condenses the execution without materializing per-node slices —
// the big-run reporting path at n = 10⁶.
type Summary struct {
	N            int
	Steps        int64
	Rounds       int64 // total activations performed
	MaxRounds    int   // per-process round complexity (§2.2)
	Terminated   int
	Crashed      int
	BytesPerNode int
}

// Summarize scans the per-node bookkeeping once and returns the Summary.
func (e *Engine) Summarize() Summary {
	s := Summary{N: e.n, Steps: e.t, Rounds: e.total, BytesPerNode: e.BytesPerNode()}
	for i := 0; i < e.n; i++ {
		if int(e.acts[i]) > s.MaxRounds {
			s.MaxRounds = int(e.acts[i])
		}
		if bitGet(e.done, i) {
			s.Terminated++
		}
		if bitGet(e.crashed, i) {
			s.Crashed++
		}
	}
	return s
}

// --- bitset helpers -------------------------------------------------------

func bitGet(w []uint64, i int) bool { return w[i>>6]&(1<<(uint(i)&63)) != 0 }
func bitSet(w []uint64, i int)      { w[i>>6] |= 1 << (uint(i) & 63) }
func bitClear(w []uint64, i int)    { w[i>>6] &^= 1 << (uint(i) & 63) }

func trailingZeros(v uint64) int { return bits.TrailingZeros64(v) }

func popcount(v uint64) int { return bits.OnesCount64(v) }
