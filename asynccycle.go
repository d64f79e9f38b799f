// Package asynccycle is a Go implementation of the wait-free coloring
// algorithms of Fraigniaud, Lambein-Monette and Rabie, "Fault Tolerant
// Coloring of the Asynchronous Cycle" (PODC 2022, arXiv:2207.11198), along
// with the full asynchronous crash-prone state model they run in.
//
// # The model
//
// n processes occupy the nodes of a graph (primarily the cycle C_n). Each
// owns a single-writer/multi-reader register, initially ⊥. A process round
// atomically writes the own register, reads the neighbors' registers (a
// local immediate snapshot), and updates local state, possibly terminating
// with an output color. An adversarial scheduler decides which processes
// move at each instant; processes can crash (stop being scheduled) at any
// time. Wait-free means every process terminates within a bounded number
// of its own rounds, no matter what the others do.
//
// # The algorithms
//
//   - SixColorCycle — the paper's Algorithm 1: 6 colors (pairs (a, b) with
//     a+b ≤ 2), terminating in at most ⌊3n/2⌋+4 rounds per process.
//   - ColorGraph — the paper's Algorithm 4: the same machine on arbitrary
//     graphs of maximum degree Δ, with (Δ+1)(Δ+2)/2 colors.
//   - FiveColorCycle — Algorithm 2: the optimal 5-color palette, O(n)
//     rounds per process.
//   - FastColorCycle — Algorithm 3: 5 colors in O(log* n) rounds per
//     process, the paper's headline result.
//
// Runs are deterministic given a scheduler and identifiers; use the
// Concurrent variants to execute with real goroutines instead.
//
// Outputs of terminated processes always properly color the subgraph they
// induce, even when other processes crash mid-protocol — this holds at
// every instant, under every schedule (exhaustively model-checked on small
// cycles; see the internal/model package and EXPERIMENTS.md).
package asynccycle

import (
	"context"
	"errors"
	"fmt"

	"asynccycle/internal/conc"
	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

// Result describes a finished execution: per-process outputs (-1 for
// processes that crashed or starved before terminating), termination and
// crash flags, per-process round counts, and the total step count.
type Result = sim.Result

// Scheduler decides which processes are activated at each time step. Use
// the constructors in this package (Synchronous, RoundRobin, RandomSubset,
// RandomOne, Alternating, Burst, Sleep) or implement the interface for a
// custom adversary: Next reads the execution through State and appends its
// choice to the caller's buffer (see the Scheduler example).
type Scheduler = schedule.Scheduler

// State is a Scheduler's read-only view of an execution: the process
// count, the step about to be scheduled, which processes are still working
// (neither terminated nor crashed), and how many rounds each has taken.
type State = schedule.State

// Mode selects the semantics of multi-process activation sets: interleaved
// (default; the standard asynchronous adversary) or simultaneous (the
// paper's literal write-all-then-read-all rounds). See EXPERIMENTS.md
// finding F1 for why the distinction matters.
type Mode = sim.Mode

// Re-exported Mode values.
const (
	ModeInterleaved  = sim.ModeInterleaved
	ModeSimultaneous = sim.ModeSimultaneous
)

// Config tunes a deterministic run. The zero value is ready to use: a
// synchronous scheduler, interleaved semantics, no crashes, and a generous
// step limit.
type Config struct {
	// Scheduler drives the execution; nil means Synchronous().
	Scheduler Scheduler
	// Mode selects the activation semantics (default ModeInterleaved).
	Mode Mode
	// CrashAfter maps a process index to a round count after which it
	// crashes (0 = never wakes).
	CrashAfter map[int]int
	// MaxSteps bounds the execution length; exceeding it returns an error
	// wrapping ErrStepLimit. 0 means a limit proportional to n².
	MaxSteps int
	// Topology, when non-empty, retargets the protocol onto another graph
	// family ("path", "complete", "torus", "random:Δ[:seed]", optionally
	// "+shuffled:SEED") before running; the typed helpers route through
	// RunProtocol, so it applies to them too. Families the protocol does
	// not declare support for fail with ErrBadInput; off the native family
	// the cycle-specific round bound and identifier precondition are
	// dropped (DESIGN.md §14).
	Topology string
	// Context, when non-nil, cancels the run: the engine stops between
	// steps once it is done and returns the partial Result so far together
	// with an error wrapping ErrBudget. A nil Context (the default) leaves
	// the un-budgeted path untouched.
	Context context.Context
	// Budget bounds the run along explicit axes (wall-clock, steps,
	// activations). A tripped budget likewise returns the partial Result
	// with an error wrapping ErrBudget. The zero value imposes no bounds.
	Budget Budget
}

// Budget bounds a run along independent axes: wall-clock Timeout, MaxSteps,
// and MaxActivations (MaxStates applies to model checking, not executions).
// The zero value imposes no bounds.
type Budget = runctl.Budget

// StopReason labels why a budgeted run stopped early; it is the string
// inside the ErrBudget-wrapping error a tripped budget produces.
type StopReason = runctl.StopReason

// ErrStepLimit is returned (wrapped) when an execution exceeds its step
// budget without settling.
var ErrStepLimit = sim.ErrStepLimit

// ErrBadInput reports invalid identifiers or topology.
var ErrBadInput = errors.New("asynccycle: invalid input")

// ErrBudget is the sentinel wrapped by the error returned when a run is
// stopped by Config.Context or Config.Budget. The accompanying Result is
// the valid partial execution up to the stopping point.
var ErrBudget = runctl.ErrBudget

func (c *Config) scheduler() Scheduler {
	if c == nil || c.Scheduler == nil {
		return schedule.Synchronous{}
	}
	return c.Scheduler
}

func (c *Config) maxSteps(n int) int {
	if c == nil || c.MaxSteps <= 0 {
		ms := 200*n*n + 10_000
		return ms
	}
	return c.MaxSteps
}

// runOn executes nodes over g under cfg.
func runOn[V any](g graph.Graph, nodes []sim.Node[V], cfg *Config) (Result, error) {
	e, err := sim.NewEngine(g, nodes)
	if err != nil {
		return Result{}, err
	}
	if cfg != nil {
		e.SetMode(cfg.Mode)
		for i, k := range cfg.CrashAfter {
			if i < 0 || i >= g.N() {
				return Result{}, fmt.Errorf("%w: crash index %d out of range", ErrBadInput, i)
			}
			e.CrashAfter(i, k)
		}
	}
	if cfg != nil && (cfg.Context != nil || !cfg.Budget.IsZero()) {
		b := cfg.Budget
		b.MaxSteps = runctl.Min(cfg.maxSteps(g.N()), b.MaxSteps)
		res, reason := e.RunBudget(cfg.Context, cfg.scheduler(), b)
		if reason != runctl.StopNone {
			return res, fmt.Errorf("%w: %s", ErrBudget, reason)
		}
		return res, nil
	}
	return e.Run(cfg.scheduler(), cfg.maxSteps(g.N()))
}

// FiveColorCycle runs Algorithm 2 (wait-free 5-coloring, O(n) rounds) on
// the cycle whose node i has identifier xs[i] and neighbors (i±1) mod n.
// Outputs are colors in {0, …, 4}.
func FiveColorCycle(xs []int, cfg *Config) (Result, error) {
	return RunProtocol("five", xs, cfg)
}

// FastColorCycle runs Algorithm 3 (wait-free 5-coloring, O(log* n) rounds)
// on the cycle. Outputs are colors in {0, …, 4}.
func FastColorCycle(xs []int, cfg *Config) (Result, error) {
	return RunProtocol("fast", xs, cfg)
}

// SixColorCycle runs Algorithm 1 (wait-free 6-coloring with color pairs)
// on the cycle. Outputs are encoded pairs; decode with DecodePairColor.
func SixColorCycle(xs []int, cfg *Config) (Result, error) {
	return RunProtocol("six", xs, cfg)
}

// ColorGraph runs Algorithm 4 (wait-free O(Δ²)-coloring) on an arbitrary
// graph given as an adjacency list. Identifiers must be non-negative and
// distinct across every edge. Outputs are encoded pairs (a, b) with
// a+b ≤ Δ; decode with DecodePairColor.
func ColorGraph(adj [][]int, xs []int, cfg *Config) (Result, error) {
	if len(xs) != len(adj) {
		return Result{}, fmt.Errorf("%w: %d identifiers for %d nodes", ErrBadInput, len(xs), len(adj))
	}
	g, err := graph.New("user", adj)
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	for _, e := range g.Edges() {
		if xs[e[0]] == xs[e[1]] {
			return Result{}, fmt.Errorf("%w: identifiers equal across edge %d-%d", ErrBadInput, e[0], e[1])
		}
	}
	for _, x := range xs {
		if x < 0 {
			return Result{}, fmt.Errorf("%w: negative identifier %d", ErrBadInput, x)
		}
	}
	return runOn(g, core.NewPairNodes(xs), cfg)
}

// DecodePairColor unpacks an output of SixColorCycle or ColorGraph into
// its color pair (a, b).
func DecodePairColor(c int) (a, b int) { return core.DecodePair(c) }

// PairPaletteSize returns the palette size of ColorGraph on graphs of
// maximum degree Δ: (Δ+1)(Δ+2)/2 (6 for the cycle).
func PairPaletteSize(maxDeg int) int { return core.PairPaletteSize(maxDeg) }

// ConcurrentConfig tunes a goroutine-based run. The zero value is ready to
// use.
type ConcurrentConfig struct {
	// CrashAfter maps a process index to a round count after which its
	// goroutine stops (0 = never wakes).
	CrashAfter map[int]int
	// Jitter, when positive, adds a random sleep up to this duration (in
	// nanoseconds, as time.Duration) between rounds.
	Jitter int64
	// Seed seeds the jitter sources.
	Seed int64
	// Yield makes each process yield the scheduler between rounds.
	Yield bool
	// Context, when non-nil, cancels the run: node goroutines stop between
	// rounds once it is done and the call returns the partial Result with
	// an error wrapping ErrBudget.
	Context context.Context
}

func (c *ConcurrentConfig) options() conc.Options {
	if c == nil {
		return conc.Options{Yield: true}
	}
	return conc.Options{
		CrashAfter: c.CrashAfter,
		Jitter:     durationFromNanos(c.Jitter),
		Seed:       c.Seed,
		Yield:      c.Yield,
		Context:    c.Context,
	}
}

// FiveColorCycleConcurrent runs Algorithm 2 with one goroutine per process.
func FiveColorCycleConcurrent(xs []int, cfg *ConcurrentConfig) (Result, error) {
	return RunProtocolConcurrent("five", xs, cfg)
}

// FastColorCycleConcurrent runs Algorithm 3 with one goroutine per process.
func FastColorCycleConcurrent(xs []int, cfg *ConcurrentConfig) (Result, error) {
	return RunProtocolConcurrent("fast", xs, cfg)
}

// SixColorCycleConcurrent runs Algorithm 1 with one goroutine per process.
func SixColorCycleConcurrent(xs []int, cfg *ConcurrentConfig) (Result, error) {
	return RunProtocolConcurrent("six", xs, cfg)
}
