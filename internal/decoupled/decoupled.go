// Package decoupled implements the DECOUPLED model of Castañeda et al.
// [13] and Delporte-Gallet et al. [18], the closest related work the paper
// discusses (§1.4): n asynchronous crash-prone processes occupy the nodes
// of a *synchronous and reliable* network. The communication layer ticks
// in lock-step rounds and relays each woken node's current value to its
// neighbors every round, autonomously — even when the owning process is
// slow, stopped, or already terminated — and nothing is ever lost: a
// process consuming its buffer late finds everything that passed by.
// Because the layer is synchronous, the round number is common knowledge,
// and that is precisely the power the paper's fully asynchronous state
// model lacks.
//
// DECOUPLED is strictly stronger than the state model: wake-up order
// becomes observable ("any neighbor that woke no later than me is visible
// in my buffer two rounds after I woke"), which enables 3-coloring the
// cycle — impossible wait-free in the state model, where 5 colors are
// necessary (Property 2.3). Experiment E14 reproduces this separation
// using the ThreeColor process in this package.
package decoupled

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"asynccycle/internal/graph"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

// Message is one buffered delivery: the value a neighbor's register held
// at a given communication round.
type Message[V any] struct {
	// Round is the communication-layer tick at which the value was
	// relayed.
	Round int
	// From is the sender's index in the receiver's neighbor list (not a
	// global node index: processes have no global knowledge).
	From int
	// Value is the relayed payload.
	Value V
}

// Proc is an asynchronous process in the DECOUPLED model. At each of its
// adversarially scheduled steps it learns the current network round (the
// layer is synchronous, so the clock is common knowledge) and receives
// every message buffered since its previous step; it returns the value
// the layer will relay for it from now on, plus its decision.
type Proc[V any] interface {
	Step(now int, buffered []Message[V]) (emit V, done bool, output int)
	// Clone returns a deep copy, used by the bounded model checker and the
	// schedule fuzzer to branch executions.
	Clone() Proc[V]
}

// ErrStepLimit is returned when the execution exceeds its tick budget.
var ErrStepLimit = errors.New("decoupled: step limit exceeded")

// Engine couples the synchronous reliable communication layer with
// asynchronous process scheduling. It reuses the state model's Scheduler
// interface: the scheduler picks which processes take a step at each
// network tick.
type Engine[V any] struct {
	g       graph.Graph
	procs   []Proc[V]
	emit    []V
	started []bool
	buffers [][]Message[V]
	done    []bool
	crashed []bool
	outputs []int
	acts    []int
	limits  []int
	tick    int
}

// NewEngine builds a DECOUPLED engine. The layer starts relaying a node's
// value after the node's first step.
func NewEngine[V any](g graph.Graph, procs []Proc[V]) (*Engine[V], error) {
	if len(procs) != g.N() {
		return nil, fmt.Errorf("decoupled: %d procs for graph %s with %d nodes", len(procs), g.Name(), g.N())
	}
	n := g.N()
	e := &Engine[V]{
		g:       g,
		procs:   procs,
		emit:    make([]V, n),
		started: make([]bool, n),
		buffers: make([][]Message[V], n),
		done:    make([]bool, n),
		crashed: make([]bool, n),
		outputs: make([]int, n),
		acts:    make([]int, n),
		limits:  make([]int, n),
	}
	for i := range e.outputs {
		e.outputs[i] = -1
		e.limits[i] = -1
	}
	return e, nil
}

// CrashAfter crashes process i after k steps (0 = never wakes). A crashed
// process takes no further steps, but the layer keeps relaying its last
// emitted value: reliability belongs to the network, not the process.
func (e *Engine[V]) CrashAfter(i, k int) {
	e.limits[i] = k
	if k <= e.acts[i] {
		e.crashed[i] = true
	}
}

// N implements schedule.State.
func (e *Engine[V]) N() int { return len(e.procs) }

// Time implements schedule.State.
func (e *Engine[V]) Time() int { return e.tick + 1 }

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

var _ schedule.State = (*Engine[int])(nil)

// Tick advances the network one synchronous round — delivering every
// started node's current value into its neighbors' buffers — and then
// runs one asynchronous step of each scheduled working process. It
// returns the processes that actually stepped.
func (e *Engine[V]) Tick(active []int) []int {
	e.tick++
	for u := 0; u < e.g.N(); u++ {
		if !e.started[u] {
			continue
		}
		for _, v := range e.g.Neighbors(u) {
			slot := neighborSlot(e.g, v, u)
			e.buffers[v] = append(e.buffers[v], Message[V]{Round: e.tick, From: slot, Value: e.emit[u]})
		}
	}
	performed := make([]int, 0, len(active))
	seen := make(map[int]bool, len(active))
	for _, i := range active {
		if i < 0 || i >= len(e.procs) || seen[i] || !e.Working(i) {
			continue
		}
		seen[i] = true
		performed = append(performed, i)
		buf := e.buffers[i]
		e.buffers[i] = nil
		emit, done, output := e.procs[i].Step(e.tick, buf)
		e.acts[i]++
		e.emit[i] = emit
		e.started[i] = true
		if done {
			e.done[i] = true
			e.outputs[i] = output
		} else if e.limits[i] >= 0 && e.acts[i] >= e.limits[i] {
			e.crashed[i] = true
		}
	}
	return performed
}

// neighborSlot returns the index of u in v's neighbor list.
func neighborSlot(g graph.Graph, v, u int) int {
	for k, w := range g.Neighbors(v) {
		if w == u {
			return k
		}
	}
	return -1
}

// Run drives the engine until every process settles or maxTicks elapse
// (returning ErrStepLimit along with the partial result). As in the state
// model, runctl.EmptyStreak consecutive ticks without any process step
// crash the remaining processes.
func (e *Engine[V]) Run(s schedule.Scheduler, maxTicks int) (sim.Result, error) {
	res, reason := e.RunBudget(nil, s, runctl.Budget{MaxSteps: maxTicks})
	if reason == runctl.StopMaxSteps {
		return res, fmt.Errorf("%w: %d ticks, scheduler %s", ErrStepLimit, e.tick, s.Name())
	}
	return res, nil
}

// RunBudget is Run with run control (runctl.Drive): it stops early with a
// non-empty StopReason when ctx is done, the budget's Timeout elapses, the
// tick count reaches b.MaxSteps — the network clock is part of the model,
// so the step axis bounds communication rounds — or the process steps
// taken reach b.MaxActivations.
func (e *Engine[V]) RunBudget(ctx context.Context, s schedule.Scheduler, b runctl.Budget) (sim.Result, runctl.StopReason) {
	reason, _ := runctl.Drive(ctx, b, &driver[V]{e: e, s: s})
	return e.Result(), reason
}

// driver binds an engine to the scheduler of one run for runctl.Drive.
type driver[V any] struct {
	e   *Engine[V]
	s   schedule.Scheduler
	buf []int
}

func (d *driver[V]) AllSettled() bool { return d.e.allSettled() }
func (d *driver[V]) Steps() int64     { return int64(d.e.tick) }

func (d *driver[V]) Advance(int64) (int, error) {
	d.buf = d.s.Next(d.e, d.buf[:0])
	return len(d.e.Tick(d.buf)), nil
}

func (d *driver[V]) Abandon() {
	for i := range d.e.crashed {
		if d.e.Working(i) {
			d.e.crashed[i] = true
		}
	}
}

func (e *Engine[V]) allSettled() bool {
	for i := range e.done {
		if e.Working(i) {
			return false
		}
	}
	return true
}

// AllSettled reports whether every process terminated or crashed — the
// execution cannot evolve further.
func (e *Engine[V]) AllSettled() bool { return e.allSettled() }

// AllDone reports whether every process terminated with an output.
func (e *Engine[V]) AllDone() bool {
	for _, d := range e.done {
		if !d {
			return false
		}
	}
	return true
}

// Result snapshots the execution state as a state-model Result, even if
// the execution has not settled. Steps counts communication-layer ticks.
func (e *Engine[V]) Result() sim.Result {
	return sim.Result{
		Outputs:     append([]int(nil), e.outputs...),
		Done:        append([]bool(nil), e.done...),
		Crashed:     append([]bool(nil), e.crashed...),
		Activations: append([]int(nil), e.acts...),
		Steps:       e.tick,
	}
}

// Clone deep-copies the engine (including process states via Proc.Clone
// and the in-flight communication buffers), for execution branching by the
// bounded model checker and the schedule fuzzer.
func (e *Engine[V]) Clone() *Engine[V] { return e.CloneInto(nil) }

// CloneInto deep-copies e into dst, reusing dst's slices where their
// capacities allow (processes are always cloned), and returns dst; dst ==
// nil behaves like Clone.
func (e *Engine[V]) CloneInto(dst *Engine[V]) *Engine[V] {
	if dst == nil {
		dst = &Engine[V]{}
	}
	n := len(e.procs)
	dst.g = e.g
	dst.procs = slices.Grow(dst.procs[:0], n)[:n]
	for i, p := range e.procs {
		dst.procs[i] = p.Clone()
	}
	dst.emit = append(dst.emit[:0], e.emit...)
	dst.started = append(dst.started[:0], e.started...)
	dst.buffers = slices.Grow(dst.buffers[:0], n)[:n]
	for i, buf := range e.buffers {
		dst.buffers[i] = append(dst.buffers[i][:0], buf...)
	}
	dst.done = append(dst.done[:0], e.done...)
	dst.crashed = append(dst.crashed[:0], e.crashed...)
	dst.outputs = append(dst.outputs[:0], e.outputs...)
	dst.acts = append(dst.acts[:0], e.acts...)
	dst.limits = append(dst.limits[:0], e.limits...)
	dst.tick = e.tick
	return dst
}

// Undo is the record StepUndo keeps of one tick: a whole copy of the
// engine as it was before. The DECOUPLED state spaces the checker
// explores are small and depth-bounded, so a copy per tick costs little.
// Its zero value is ready to use, and one record serves any number of
// StepUndo/Undo pairs in turn.
type Undo[V any] struct{ before *Engine[V] }

// StepUndo is Tick, recording in u what Undo(u) needs to restore the
// configuration exactly. Ticks are taken back last in, first out.
func (e *Engine[V]) StepUndo(active []int, u *Undo[V]) []int {
	u.before = e.CloneInto(u.before)
	return e.Tick(active)
}

// Undo takes back the tick recorded in u. It trades storage with the
// record instead of copying; u's next StepUndo overwrites what it holds.
func (e *Engine[V]) Undo(u *Undo[V]) { *e, *u.before = *u.before, *e }

// FingerprintHash128 is the model checker's state key: the two-lane
// sim.FPHasher digest of the fields Fingerprint prints, absorbed as
// words. Processes and values that implement sim.Hashable hash without
// fmt; others are absorbed as their %v text (sim.HashAny, HashValue).
func (e *Engine[V]) FingerprintHash128() (uint64, uint64) {
	var h sim.FPHasher
	h.Reset()
	h.HashInt(e.tick)
	for i, p := range e.procs {
		h.HashBool(e.started[i])
		if e.started[i] {
			sim.HashValue(&h, &e.emit[i])
		}
		sim.HashAny(&h, p)
		h.HashBool(e.done[i])
		h.HashBool(e.crashed[i])
		h.HashInt(e.outputs[i])
		h.HashBool(e.limits[i] >= 0)
		if e.limits[i] >= 0 {
			h.HashInt(e.acts[i])
			h.HashInt(e.limits[i])
		}
		h.HashInt(len(e.buffers[i]))
		for j := range e.buffers[i] {
			m := &e.buffers[i][j]
			h.HashInt(m.From)
			h.HashInt(m.Round)
			sim.HashValue(&h, &m.Value)
		}
	}
	return h.Sum128()
}

// Fingerprint returns a canonical string encoding of the configuration:
// the network clock, every process's state machine and emitted value, the
// undelivered buffer contents, and termination/crash bookkeeping. Unlike
// the state model the tick is always included — the communication layer's
// round number is common knowledge and part of the transition function.
// Two engines with equal fingerprints behave identically under identical
// future schedules. The checker keys states by FingerprintHash128, which
// hashes the same fields; the string is the tests' exact oracle.
func (e *Engine[V]) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d", e.tick)
	for i := range e.procs {
		fmt.Fprintf(&b, ";%d[", i)
		if e.started[i] {
			fmt.Fprintf(&b, "e=%v", e.emit[i])
		} else {
			b.WriteString("e=⊥")
		}
		fmt.Fprintf(&b, " s=%v d=%t c=%t o=%d", e.procs[i], e.done[i], e.crashed[i], e.outputs[i])
		if e.limits[i] >= 0 {
			fmt.Fprintf(&b, " a=%d l=%d", e.acts[i], e.limits[i])
		}
		b.WriteString(" b=(")
		for j, m := range e.buffers[i] {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d@%d:%v", m.From, m.Round, m.Value)
		}
		b.WriteString(")]")
	}
	return b.String()
}
