// Package sim implements the paper's operational model (§2.1–2.2) as a
// deterministic discrete-time simulation: single-writer/multi-reader
// registers initialized to ⊥, and atomic rounds in which an activated
// process writes its register, reads the registers of its graph neighbors
// (a *local immediate snapshot*), and updates its state, possibly
// terminating with an output.
//
// When several processes are activated at the same time step, two
// semantics are supported (see Mode): the default ModeInterleaved executes
// them one after another within the step, realizing the standard
// asynchronous shared-memory adversary (every execution is equivalent to a
// sequence of singleton activations); ModeSimultaneous performs all writes
// first and all reads second, the paper's literal simultaneous-round
// semantics. The two differ observably: repository finding F1 (see
// EXPERIMENTS.md) shows Algorithm 2 admits livelock under ModeSimultaneous
// lockstep schedules while being wait-free under ModeInterleaved.
//
// Crashes are modeled exactly as in the paper: a crashed process is simply
// never activated again, and its register retains its last written value
// (or ⊥ if it never woke).
package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"asynccycle/internal/graph"
	"asynccycle/internal/metrics"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
)

// Cell is one register value as seen by a reader: Present is false for the
// initial value ⊥ (the owner has never been activated).
type Cell[V any] struct {
	Present bool
	Val     V
}

// Decision is the outcome of one round of a process: either continue, or
// terminate returning Output.
type Decision struct {
	Return bool
	Output int
}

// Node is a process: a deterministic state machine driven by rounds.
//
// A round calls Publish to obtain the value written to the node's register,
// then Observe with the registers of its neighbors (in the graph's fixed,
// arbitrary neighbor order). Observe updates internal state and decides
// whether to terminate. After a Decision with Return == true the node is
// never activated again.
type Node[V any] interface {
	// Publish returns the register value this node writes at the start of
	// its round.
	Publish() V
	// Observe consumes the local immediate snapshot of neighbor registers
	// and returns the node's decision for this round. The view slice is
	// reused by the engine and is only valid during the call.
	Observe(view []Cell[V]) Decision
	// Clone returns a deep copy, used by the bounded model checker to
	// branch executions.
	Clone() Node[V]
}

// Copier is optionally implemented by node types so that CloneInto and
// StepUndo can overwrite node storage they already own instead of
// allocating a Clone per node. It is not generic over the register type:
// asserting a node to an interface that does not depend on V stays a
// cached check on the hot path.
type Copier interface {
	// CopyInto overwrites dst, a node of the same engine, with a deep copy
	// of the receiver and reports true, or reports false without touching
	// dst when dst has a different concrete type.
	CopyInto(dst any) bool
}

// Result summarizes a finished (or aborted) execution.
type Result struct {
	// Outputs[i] is the color output by process i, or -1 if it never
	// terminated (crashed or starved).
	Outputs []int
	// Done[i] reports whether process i terminated.
	Done []bool
	// Crashed[i] reports whether process i was crashed by the adversary.
	Crashed []bool
	// Activations[i] counts the rounds process i performed.
	Activations []int
	// Steps is the number of time steps the execution took.
	Steps int
	// Values[i] is the current content of process i's register for engines
	// with int-typed registers that opted in via SetRecordValues (-1 for a
	// register still at ⊥); nil otherwise. Stabilizing protocols publish
	// their color here, so legitimacy predicates can read the configuration
	// from a Result even though nothing terminates.
	Values []int
}

// MaxActivations returns the largest per-process activation count — the
// round complexity of the execution as defined in §2.2.
func (r Result) MaxActivations() int {
	max := 0
	for _, a := range r.Activations {
		if a > max {
			max = a
		}
	}
	return max
}

// TerminatedCount returns how many processes terminated with an output.
func (r Result) TerminatedCount() int {
	n := 0
	for _, d := range r.Done {
		if d {
			n++
		}
	}
	return n
}

// Mode selects how a multi-process activation set executes within one time
// step.
type Mode int

const (
	// ModeInterleaved (the default) executes the activated processes one
	// after another in ascending index order: each process's write is
	// visible to later processes in the same step. Every execution under
	// this mode is equivalent to a schedule of singleton activations — the
	// standard asynchronous read/write adversary.
	ModeInterleaved Mode = iota
	// ModeSimultaneous performs all writes of the activated set before any
	// read, the paper's §2.1 simultaneous-round semantics ("the system
	// behaves as if each of these processes first wrote a value in its own
	// register, then all processes read all registers").
	ModeSimultaneous
)

// String returns "interleaved" or "simultaneous".
func (m Mode) String() string {
	if m == ModeSimultaneous {
		return "simultaneous"
	}
	return "interleaved"
}

// Hook observes the engine after each executed step; t is the step index
// and activated lists the processes that actually performed a round.
type Hook[V any] func(e *Engine[V], t int, activated []int)

// ErrStepLimit is returned by Run when the step budget is exhausted before
// the execution terminates — in tests this flags a liveness bug, since all
// the paper's algorithms are wait-free.
var ErrStepLimit = errors.New("sim: step limit exceeded")

// Engine executes one distributed algorithm instance over a graph.
type Engine[V any] struct {
	g       graph.Graph
	nodes   []Node[V]
	regs    []Cell[V]
	done    []bool
	crashed []bool
	outputs []int
	acts    []int
	limits  []int    // crash after this many activations; <0 = never
	dig     []digest // per-node content digests, valid where !stale
	stale   []bool   // stale[i]: process i changed since dig[i] was computed
	t       int
	mode    Mode
	hooks   []Hook[V]

	// Scratch storage, reused across rounds so a warmed-up engine steps
	// without allocating. Never shared between engines: Clone/CloneInto
	// give every engine its own.
	viewBuf      []Cell[V] // neighbor views handed to Observe
	schedBuf     []int     // the scheduler's choice, reused by every run step
	performedBuf []int     // Step's result slice
	inSetBuf     []bool    // Step's dedup marks, cleared after use
	fph          FPHasher  // FingerprintHash's streaming state
	valsBuf      []int     // View's Values

	// recordValues opts Result snapshots into carrying the register
	// contents (Result.Values) for int-registered engines; off by default
	// so terminating protocols keep their allocation profile.
	recordValues bool

	met *metrics.Run // optional observability sink; nil = off
}

// NewEngine creates an engine for the given topology and per-node state
// machines. len(nodes) must equal g.N().
func NewEngine[V any](g graph.Graph, nodes []Node[V]) (*Engine[V], error) {
	if len(nodes) != g.N() {
		return nil, fmt.Errorf("sim: %d nodes for graph %s with %d vertices", len(nodes), g.Name(), g.N())
	}
	n := g.N()
	e := &Engine[V]{
		g:       g,
		nodes:   nodes,
		regs:    make([]Cell[V], n),
		done:    make([]bool, n),
		crashed: make([]bool, n),
		outputs: make([]int, n),
		acts:    make([]int, n),
		limits:  make([]int, n),
		dig:     make([]digest, n),
		stale:   make([]bool, n),
	}
	for i := range e.outputs {
		e.outputs[i] = -1
		e.limits[i] = -1
		e.stale[i] = true
	}
	return e, nil
}

// AddHook registers a post-step observer (e.g. a tracer or invariant
// checker).
func (e *Engine[V]) AddHook(h Hook[V]) { e.hooks = append(e.hooks, h) }

// SetMode selects the activation semantics; call before the first Step.
func (e *Engine[V]) SetMode(m Mode) { e.mode = m }

// SetMetrics installs an optional metrics sink: every Step increments
// r.Steps and charges the performed rounds to r.Activations. A nil r (the
// default) turns publishing off; like hooks, the sink is not propagated to
// Clone/CloneInto copies, so model-checker branches stay silent.
func (e *Engine[V]) SetMetrics(r *metrics.Run) { e.met = r }

// CrashAfter arranges for process i to crash once it has performed k
// rounds (k == 0 means it never wakes). It overrides any previous limit.
func (e *Engine[V]) CrashAfter(i, k int) {
	e.limits[i] = k
	e.stale[i] = true
	if k <= e.acts[i] {
		e.crashed[i] = true
	}
}

// Crash immediately crashes process i.
func (e *Engine[V]) Crash(i int) {
	e.crashed[i] = true
	e.stale[i] = true
}

// SetRecordValues opts Result snapshots into carrying the register
// contents as Result.Values. Meaningful only for engines whose register
// type V is int (other engines record nil); see Result.Values.
func (e *Engine[V]) SetRecordValues(on bool) { e.recordValues = on }

// SeedRegisters installs an arbitrary initial register configuration:
// every register becomes present with the given value, as if its owner
// had published it before the execution started. Self-stabilizing
// protocols use it to start from arbitrary (possibly corrupted) states —
// the node state machines must be constructed consistently with the
// seeded values, since a node's next Publish overwrites its register.
// len(vals) must equal the process count. Call before the first Step.
func (e *Engine[V]) SeedRegisters(vals []V) error {
	if len(vals) != len(e.regs) {
		return fmt.Errorf("sim: %d seed values for %d registers", len(vals), len(e.regs))
	}
	for i, v := range vals {
		e.regs[i] = Cell[V]{Present: true, Val: v}
		e.stale[i] = true
	}
	return nil
}

// Graph returns the topology.
func (e *Engine[V]) Graph() graph.Graph { return e.g }

// N implements schedule.State.
func (e *Engine[V]) N() int { return len(e.nodes) }

// Time implements schedule.State: the index of the next step.
func (e *Engine[V]) Time() int { return e.t + 1 }

// Working implements schedule.State.
func (e *Engine[V]) Working(i int) bool { return !e.done[i] && !e.crashed[i] }

// Activations implements schedule.State.
func (e *Engine[V]) Activations(i int) int { return e.acts[i] }

// AppendWorking implements schedule.State.
func (e *Engine[V]) AppendWorking(buf []int) []int {
	for i := range e.done {
		if e.Working(i) {
			buf = append(buf, i)
		}
	}
	return buf
}

// Done reports whether process i terminated.
func (e *Engine[V]) Done(i int) bool { return e.done[i] }

// Crashed reports whether process i crashed.
func (e *Engine[V]) Crashed(i int) bool { return e.crashed[i] }

// Output returns process i's output, or -1 if it has not terminated.
func (e *Engine[V]) Output(i int) int { return e.outputs[i] }

// Register returns the current content of process i's register.
func (e *Engine[V]) Register(i int) Cell[V] { return e.regs[i] }

// NodeState returns process i's state machine (read-only use only).
func (e *Engine[V]) NodeState(i int) Node[V] { return e.nodes[i] }

// AllDone reports whether every process has terminated.
func (e *Engine[V]) AllDone() bool {
	for i := range e.done {
		if !e.done[i] {
			return false
		}
	}
	return true
}

// AllSettled reports whether every process has terminated or crashed, i.e.
// the execution cannot evolve further.
func (e *Engine[V]) AllSettled() bool {
	for i := range e.done {
		if e.Working(i) {
			return false
		}
	}
	return true
}

var _ schedule.State = (*Engine[int])(nil)

// Step executes one time step activating the given set of processes.
// Non-working processes in the set are skipped, duplicates collapse, and
// all writes happen before any read, per the model. It returns the
// processes that actually performed a round.
//
// The returned slice is scratch storage owned by the engine, valid until
// its next Step; callers that retain it across steps must copy it.
func (e *Engine[V]) Step(active []int) []int { return e.step(active, nil) }

// Undo is the record StepUndo keeps of one step so that Engine.Undo can
// take it back. Its zero value is ready to use, and one record serves any
// number of StepUndo/Undo pairs in turn; the model checker keeps one per
// DFS depth. The record also owns the spare node objects StepUndo
// installs in place of the performed processes' nodes.
type Undo[V any] struct {
	t      int
	saved  []savedProc[V]
	spares []Node[V] // spares[k] stands in for the k-th performed node
}

// savedProc is one performed process's state as it was before the step.
type savedProc[V any] struct {
	i       int
	node    Node[V]
	reg     Cell[V]
	done    bool
	crashed bool
	stale   bool
	output  int
	acts    int
	dig     digest
}

// StepUndo is Step, recording in u what the step changes so that Undo(u)
// restores the configuration exactly. Every performed process runs on a
// spare copy of its node — copied by Copier.CopyInto into u's spare where
// possible, cloned otherwise — while its original node object waits in u
// to be reinstalled; the other processes are not touched. Steps are taken
// back last in, first out: between StepUndo(…, u) and Undo(u) the engine
// may only take further StepUndo/Undo pairs of other records. Hooks and
// the metrics sink fire as for Step.
func (e *Engine[V]) StepUndo(active []int, u *Undo[V]) []int { return e.step(active, u) }

// Undo takes back the step recorded in u: the performed processes get
// their original nodes, registers, flags, outputs, activation counts and
// cached digests back, and the clock its old value. The spare nodes stay
// in u for its next StepUndo, which overwrites them before use.
func (e *Engine[V]) Undo(u *Undo[V]) {
	for k := range u.saved {
		s := &u.saved[k]
		i := s.i
		e.nodes[i], s.node = s.node, nil
		e.regs[i] = s.reg
		e.done[i] = s.done
		e.crashed[i] = s.crashed
		e.stale[i] = s.stale
		e.outputs[i] = s.output
		e.acts[i] = s.acts
		e.dig[i] = s.dig
	}
	e.t = u.t
}

// save records the performed processes' state in u and installs u's
// spare copies of their nodes.
func (u *Undo[V]) save(e *Engine[V], performed []int) {
	u.t = e.t
	u.saved = slices.Grow(u.saved[:0], len(performed))[:len(performed)]
	for k, i := range performed {
		nd := e.nodes[i]
		if k == len(u.spares) {
			u.spares = append(u.spares, nil)
		}
		if c, ok := nd.(Copier); !ok || u.spares[k] == nil || !c.CopyInto(u.spares[k]) {
			u.spares[k] = nd.Clone()
		}
		s := &u.saved[k] // filled field by field: a composite literal would be copied
		s.i, s.node, s.reg = i, nd, e.regs[i]
		s.done, s.crashed, s.stale = e.done[i], e.crashed[i], e.stale[i]
		s.output, s.acts, s.dig = e.outputs[i], e.acts[i], e.dig[i]
		e.nodes[i] = u.spares[k]
	}
}

// step is Step, plus the undo record when u is non-nil.
func (e *Engine[V]) step(active []int, u *Undo[V]) []int {
	// Deduplicate and filter to working processes, in reused scratch.
	if e.inSetBuf == nil {
		e.inSetBuf = make([]bool, len(e.nodes))
	}
	performed := e.performedBuf[:0]
	for _, i := range active {
		if i < 0 || i >= len(e.nodes) || e.inSetBuf[i] || !e.Working(i) {
			continue
		}
		e.inSetBuf[i] = true
		performed = append(performed, i)
	}
	for _, i := range performed {
		e.inSetBuf[i] = false
	}
	sort.Ints(performed)
	e.performedBuf = performed
	if u != nil {
		u.save(e, performed)
	}
	e.t++

	if e.mode == ModeSimultaneous {
		// Phase 1: all activated processes write; phase 2: all read.
		for _, i := range performed {
			e.regs[i] = Cell[V]{Present: true, Val: e.nodes[i].Publish()}
		}
		for _, i := range performed {
			e.observe(i)
		}
	} else {
		// Interleaved: each process's atomic write+read round completes
		// before the next process in the set runs.
		for _, i := range performed {
			e.regs[i] = Cell[V]{Present: true, Val: e.nodes[i].Publish()}
			e.observe(i)
		}
	}

	for _, h := range e.hooks {
		h(e, e.t, performed)
	}
	if e.met != nil {
		e.met.Steps.Inc()
		e.met.Activations.Add(int64(len(performed)))
	}
	return performed
}

// observe performs the read-and-update half of process i's round: gather
// the local immediate snapshot, let the node decide, and account for
// termination and crash limits. The view buffer is only valid during the
// Observe call.
func (e *Engine[V]) observe(i int) {
	nbrs := e.g.Neighbors(i)
	if cap(e.viewBuf) < len(nbrs) {
		e.viewBuf = make([]Cell[V], len(nbrs))
	}
	view := e.viewBuf[:len(nbrs)]
	for j, q := range nbrs {
		view[j] = e.regs[q]
	}
	dec := e.nodes[i].Observe(view)
	e.acts[i]++
	e.stale[i] = true
	if dec.Return {
		e.done[i] = true
		e.outputs[i] = dec.Output
	} else if e.limits[i] >= 0 && e.acts[i] >= e.limits[i] {
		e.crashed[i] = true
	}
}

// Run drives the engine with the scheduler until every process terminates
// or crashes, or until maxSteps is exceeded (returning ErrStepLimit along
// with the partial result). The scheduler returning empty sets for
// runctl.EmptyStreak consecutive steps crashes all remaining processes,
// modeling an adversary that abandons them.
func (e *Engine[V]) Run(s schedule.Scheduler, maxSteps int) (Result, error) {
	res, reason := e.RunBudget(nil, s, runctl.Budget{MaxSteps: maxSteps})
	if reason == runctl.StopMaxSteps {
		return res, fmt.Errorf("%w: %d steps, scheduler %s", ErrStepLimit, e.t, s.Name())
	}
	return res, nil
}

// RunBudget is Run with run control: the execution stops early — returning
// the partial Result so far plus a non-empty StopReason — when ctx is
// cancelled, the budget's Timeout elapses, e.t reaches b.MaxSteps, or the
// total rounds performed reach b.MaxActivations (each limit unbounded when
// zero; see runctl.Drive). A completed execution returns runctl.StopNone.
// Cancellation is polled between steps (a step is atomic), so the
// returned Result is always a consistent configuration. With a nil ctx and
// a zero budget, RunBudget behaves exactly like Run with no step limit.
func (e *Engine[V]) RunBudget(ctx context.Context, s schedule.Scheduler, b runctl.Budget) (Result, runctl.StopReason) {
	reason, _ := runctl.Drive(ctx, b, &driver[V]{e: e, s: s})
	return e.Result(), reason
}

// driver binds an engine to the scheduler of one run for runctl.Drive.
type driver[V any] struct {
	e *Engine[V]
	s schedule.Scheduler
}

func (d *driver[V]) AllSettled() bool { return d.e.AllSettled() }
func (d *driver[V]) Steps() int64     { return int64(d.e.t) }

// Advance executes one step, whatever the limit: sim steps are never
// batched.
func (d *driver[V]) Advance(int64) (int, error) {
	d.e.schedBuf = d.s.Next(d.e, d.e.schedBuf[:0])
	return len(d.e.Step(d.e.schedBuf)), nil
}

func (d *driver[V]) Abandon() {
	for i := range d.e.crashed {
		if d.e.Working(i) {
			d.e.Crash(i)
		}
	}
}

// View returns the current execution state as a Result without copying:
// its slices alias the engine's own storage (Values its scratch) and are
// valid only until the engine's next Step or other mutation. Callers must
// not modify them; use Result for a snapshot that outlives the engine's
// next move.
func (e *Engine[V]) View() Result {
	r := Result{
		Outputs:     e.outputs,
		Done:        e.done,
		Crashed:     e.crashed,
		Activations: e.acts,
		Steps:       e.t,
	}
	if e.recordValues {
		r.Values = e.appendValues(e.valsBuf[:0])
		if r.Values != nil {
			e.valsBuf = r.Values
		}
	}
	return r
}

// Result snapshots the current execution state as a Result, even if the
// execution has not settled.
func (e *Engine[V]) Result() Result {
	r := Result{
		Outputs:     append([]int(nil), e.outputs...),
		Done:        append([]bool(nil), e.done...),
		Crashed:     append([]bool(nil), e.crashed...),
		Activations: append([]int(nil), e.acts...),
		Steps:       e.t,
	}
	if e.recordValues {
		r.Values = e.appendValues(make([]int, 0, len(e.regs)))
	}
	return r
}

// appendValues appends the register contents (-1 for ⊥) to buf and
// returns the appended part, or nil when the register type is not int.
func (e *Engine[V]) appendValues(buf []int) []int {
	start := len(buf)
	for _, c := range e.regs {
		v, ok := any(c.Val).(int)
		switch {
		case !ok:
			return nil
		case !c.Present:
			v = -1
		}
		buf = append(buf, v)
	}
	return buf[start:len(buf):len(buf)]
}

// Clone deep-copies the engine (including node states via Node.Clone), for
// use by the bounded model checker.
func (e *Engine[V]) Clone() *Engine[V] { return e.CloneInto(nil) }

// CloneInto deep-copies e into dst, reusing dst's storage where its
// capacities allow, so a caller that recycles engines (the schedule
// fuzzer's clone-step leg, say) copies without allocating. Nodes
// implementing Copier are copied into dst's own node structs in place, so
// dst must own its nodes: never pass an engine whose node state machines
// are still referenced elsewhere (an engine built by NewEngine from nodes
// the caller kept, say). Engines produced by Clone or CloneInto own
// theirs. dst == nil (or a fresh engine) behaves like Clone. dst's
// scratch buffers are kept as its own; hooks are deliberately not copied,
// so checker branches stay silent. Returns dst.
func (e *Engine[V]) CloneInto(dst *Engine[V]) *Engine[V] {
	if dst == nil {
		dst = &Engine[V]{}
	}
	n := len(e.nodes)
	owned := min(len(dst.nodes), n)
	dst.nodes = slices.Grow(dst.nodes[:owned], n-owned)[:n]
	for i, nd := range e.nodes {
		if i < owned {
			if c, ok := nd.(Copier); ok && c.CopyInto(dst.nodes[i]) {
				continue
			}
		}
		dst.nodes[i] = nd.Clone()
	}
	dst.g = e.g
	dst.regs = append(dst.regs[:0], e.regs...)
	dst.done = append(dst.done[:0], e.done...)
	dst.crashed = append(dst.crashed[:0], e.crashed...)
	dst.outputs = append(dst.outputs[:0], e.outputs...)
	dst.acts = append(dst.acts[:0], e.acts...)
	dst.limits = append(dst.limits[:0], e.limits...)
	dst.dig = append(dst.dig[:0], e.dig...)
	dst.stale = append(dst.stale[:0], e.stale...)
	dst.t = e.t
	dst.mode = e.mode
	dst.recordValues = e.recordValues
	dst.hooks = nil
	dst.met = nil
	if dst.inSetBuf != nil && len(dst.inSetBuf) != n {
		dst.inSetBuf = nil // sized per instance; re-lazily allocated
	} else {
		// Step leaves the dedup marks cleared, but a caller scribbling on a
		// recycled engine (or a future Step variant bailing mid-loop) must
		// not leak marks into the next instance: clear defensively.
		for i := range dst.inSetBuf {
			dst.inSetBuf[i] = false
		}
	}
	return dst
}

// Fingerprint returns a canonical string encoding of the configuration:
// register contents, node states, and termination/crash flags. Two engines
// with equal fingerprints behave identically under identical future
// schedules. Activation counts and time are excluded when no crash limit is
// armed, since the transition function then does not depend on them; a
// process with a CrashAfter limit additionally encodes its activation count
// and limit, because its distance-to-crash *is* part of the transition
// function (two configurations differing only in a limited process's count
// evolve differently). Limit-free fingerprints are byte-identical to the
// historical encoding.
func (e *Engine[V]) Fingerprint() string {
	var b strings.Builder
	for i := range e.nodes {
		fmt.Fprintf(&b, "%d[", i)
		if e.regs[i].Present {
			fmt.Fprintf(&b, "r=%v", e.regs[i].Val)
		} else {
			b.WriteString("r=⊥")
		}
		fmt.Fprintf(&b, " s=%v d=%t c=%t o=%d", e.nodes[i], e.done[i], e.crashed[i], e.outputs[i])
		if e.limits[i] >= 0 {
			fmt.Fprintf(&b, " a=%d l=%d", e.acts[i], e.limits[i])
		}
		b.WriteString("]")
	}
	return b.String()
}
