// Adversarial schedule generation. The generator is itself a
// schedule.Scheduler: a campaign cell wraps it in a schedule.Recording and
// drives the engine with it, so every schedule the fuzzer explores is
// automatically captured in replayable form.
//
// Schedules are built from phases, each phase holding one adversarial
// pattern for a stretch of steps: biased random subsets, singleton storms,
// two-phase parity alternation (the pattern behind finding F1), bursts
// that race one process ahead, starvation windows that freeze a set of
// processes, and synchronous lockstep. Phase lengths are heavy-tailed —
// most phases are short, but with probability longPhaseProb a phase runs
// for a multiple of the activation bound, long enough for slow-burn
// liveness failures (livelocks, bound breaches) to actually manifest.
package fuzzsched

import (
	"fmt"
	"math/rand"

	"asynccycle/internal/schedule"
)

// Phase kinds.
const (
	phaseSubset      = iota // each working process w.p. p
	phaseSingleton          // one uniformly random working process per step
	phaseAlternating        // parity classes in lockstep, shifted by parity
	phaseBurst              // one process repeatedly
	phaseStarve             // freeze a subset, random subsets over the rest
	phaseSync               // every working process
	numPhaseKinds
)

// longPhaseProb is the probability that a phase is "long": its length is
// drawn proportional to the activation bound rather than a small constant.
// Liveness violations like the F1 livelock need a single pattern held for
// ~2× the bound, so this tail is what makes them reachable.
const longPhaseProb = 0.25

// gen generates an adversarial schedule phase by phase. It never returns an
// empty activation set while some process is working, so generated
// schedules waste no steps on no-ops.
type gen struct {
	rng   *rand.Rand
	bound int // activation bound of the instance, scales long phases

	kind   int
	left   int     // steps left in the current phase
	p      float64 // subset probability (phaseSubset, phaseStarve)
	parity int     // which parity class moves on odd steps (phaseAlternating)
	node   int     // the racing process (phaseBurst)
	frozen []bool  // starved set (phaseStarve)

	scratch []int // reused working-set buffer
}

// newGen returns a generator drawing all decisions from rng. bound is the
// per-process activation bound of the instance under test.
func newGen(rng *rand.Rand, bound int) *gen {
	if bound < 1 {
		bound = 1
	}
	return &gen{rng: rng, bound: bound}
}

// Name implements schedule.Scheduler.
func (g *gen) Name() string { return fmt.Sprintf("fuzz-gen(bound=%d)", g.bound) }

// Next implements schedule.Scheduler.
func (g *gen) Next(st schedule.State, buf []int) []int {
	g.scratch = st.AppendWorking(g.scratch[:0])
	working := g.scratch
	if len(working) == 0 {
		return buf
	}
	if g.left <= 0 {
		g.newPhase(st)
	}
	g.left--

	start := len(buf)
	switch g.kind {
	case phaseSubset:
		for _, i := range working {
			if g.rng.Float64() < g.p {
				buf = append(buf, i)
			}
		}
	case phaseSingleton:
		buf = append(buf, working[g.rng.Intn(len(working))])
	case phaseAlternating:
		// Mirror schedule.Alternating with a configurable leading class:
		// on odd steps the parity-g.parity class moves.
		want := (st.Time() + g.parity) % 2
		for _, i := range working {
			if i%2 == want {
				buf = append(buf, i)
			}
		}
	case phaseBurst:
		if !st.Working(g.node) {
			g.node = working[g.rng.Intn(len(working))]
		}
		buf = append(buf, g.node)
	case phaseStarve:
		for _, i := range working {
			if i < len(g.frozen) && g.frozen[i] {
				continue
			}
			if g.rng.Float64() < g.p {
				buf = append(buf, i)
			}
		}
	default: // phaseSync
		buf = append(buf, working...)
	}
	if len(buf) == start {
		// Whatever the pattern excluded, keep the execution moving: an
		// empty set is a wasted step the engine eventually punishes by
		// crashing everyone.
		buf = append(buf, working[g.rng.Intn(len(working))])
	}
	return buf
}

// newPhase rolls the next phase: kind, length, and per-kind parameters.
func (g *gen) newPhase(st schedule.State) {
	g.kind = g.rng.Intn(numPhaseKinds)
	if g.rng.Float64() < longPhaseProb {
		g.left = g.bound + g.rng.Intn(2*g.bound+1)
	} else {
		g.left = 1 + g.rng.Intn(12)
	}
	switch g.kind {
	case phaseSubset:
		g.p = 0.1 + 0.8*g.rng.Float64()
	case phaseAlternating:
		g.parity = g.rng.Intn(2)
	case phaseBurst:
		g.node = g.rng.Intn(st.N())
	case phaseStarve:
		if len(g.frozen) != st.N() {
			g.frozen = make([]bool, st.N())
		}
		for i := range g.frozen {
			g.frozen[i] = g.rng.Float64() < 0.3
		}
		g.p = 0.2 + 0.7*g.rng.Float64()
	}
}
