// Package schedule defines the asynchronous adversary: which set σ(t) of
// processes is activated at each time step (paper §2.2). A Scheduler decides
// σ(t) from the observable execution state; the engine filters its choice to
// processes that are still working (not terminated, not crashed), exactly as
// the restricted schedule σ̄ does in the paper.
//
// Crashes are not a scheduler concern: in the model a crash is just the
// schedule never activating a process again, and the engine realizes it by
// marking nodes crashed so they drop out of the working set.
package schedule

import (
	"fmt"
	"math/rand"
)

// State is the scheduler's read-only view of an execution.
type State interface {
	// N is the number of processes.
	N() int
	// Time is the index of the step about to be scheduled (1-based).
	Time() int
	// Working reports whether process i is still a candidate for
	// activation: awake-able, not terminated, not crashed.
	Working(i int) bool
	// Activations returns how many rounds process i has performed so far.
	Activations(i int) int
	// AppendWorking appends the working processes to buf in ascending
	// index order and returns the extended slice.
	AppendWorking(buf []int) []int
}

// Scheduler chooses the activation set for each time step. Next may choose
// indices of non-working processes; the engine filters them out. Choosing
// an empty set is a no-op step; the engine gives up (declaring the remaining
// processes crashed) after a run of consecutive empty choices.
type Scheduler interface {
	// Name identifies the scheduler in experiment tables.
	Name() string
	// Next appends σ(t) for the step described by st to buf and returns
	// the extended slice. buf belongs to the caller, which reuses it from
	// step to step, so a warm run chooses without allocating.
	Next(st State, buf []int) []int
}

// Synchronous activates every working process at every step — the lock-step
// LOCAL-model schedule, under which Linial's Ω(log* n) lower bound already
// applies.
type Synchronous struct{}

// Name implements Scheduler.
func (Synchronous) Name() string { return "synchronous" }

// Next implements Scheduler.
func (Synchronous) Next(st State, buf []int) []int { return st.AppendWorking(buf) }

// RoundRobin activates Width working processes per step, cycling through
// process indices in order. Width 1 is the classic fully sequential
// adversary.
type RoundRobin struct {
	Width int
	next  int
}

// NewRoundRobin returns a RoundRobin scheduler of the given width (≥ 1).
func NewRoundRobin(width int) *RoundRobin {
	if width < 1 {
		width = 1
	}
	return &RoundRobin{Width: width}
}

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return fmt.Sprintf("round-robin(%d)", r.Width) }

// Next implements Scheduler.
func (r *RoundRobin) Next(st State, buf []int) []int {
	n := st.N()
	start := len(buf)
	for scanned := 0; scanned < n && len(buf)-start < r.Width; scanned++ {
		i := (r.next + scanned) % n
		if st.Working(i) {
			buf = append(buf, i)
		}
	}
	if len(buf) > start {
		r.next = (buf[len(buf)-1] + 1) % n
	}
	return buf
}

// RandomSubset independently activates each working process with probability
// P at each step, always including at least one working process (chosen
// uniformly) so the execution makes progress.
type RandomSubset struct {
	P   float64
	rng *rand.Rand
}

// NewRandomSubset returns a RandomSubset scheduler with inclusion
// probability p (clamped to (0, 1]) and the given seed.
func NewRandomSubset(p float64, seed int64) *RandomSubset {
	if p <= 0 {
		p = 0.5
	}
	if p > 1 {
		p = 1
	}
	return &RandomSubset{P: p, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Scheduler.
func (s *RandomSubset) Name() string { return fmt.Sprintf("random-subset(p=%.2f)", s.P) }

// Next implements Scheduler: one Float64 draw per working process in
// ascending order, plus one Intn when every draw came up empty.
func (s *RandomSubset) Next(st State, buf []int) []int {
	start := len(buf)
	buf = st.AppendWorking(buf)
	working := buf[start:]
	// Compact the chosen processes in place; the write index never passes
	// the read index.
	out := buf[:start]
	for _, i := range working {
		if s.rng.Float64() < s.P {
			out = append(out, i)
		}
	}
	if len(out) == start && len(working) > 0 {
		out = append(out, working[s.Fallback(len(working))])
	}
	return out
}

// IncludeBits draws Next's decisions for up to 64 working processes at
// once, for a state that holds its working set as bitset words: one
// Float64 per set bit of working, in ascending bit order, and the result
// holds the bits whose draw came up below P. Calling it on a step's words
// in ascending order, then Fallback if the step chose no one, consumes
// exactly Next's draws.
func (s *RandomSubset) IncludeBits(working uint64) uint64 {
	var chosen uint64
	for rest := working; rest != 0; rest &= rest - 1 {
		var bit uint64 // a conditional move, not a branch: the draw is a coin flip
		if s.rng.Float64() < s.P {
			bit = rest & -rest
		}
		chosen |= bit
	}
	return chosen
}

// Fallback draws the index, among the nWork ≥ 1 working processes in
// ascending order, of the one process a step activates when every draw
// came up empty.
func (s *RandomSubset) Fallback(nWork int) int { return s.rng.Intn(nWork) }

// RandomOne activates a single uniformly random working process per step —
// a natural sequential adversary with high interleaving variety.
type RandomOne struct {
	rng *rand.Rand
}

// NewRandomOne returns a RandomOne scheduler with the given seed.
func NewRandomOne(seed int64) *RandomOne {
	return &RandomOne{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Scheduler.
func (s *RandomOne) Name() string { return "random-one" }

// Next implements Scheduler.
func (s *RandomOne) Next(st State, buf []int) []int {
	start := len(buf)
	buf = st.AppendWorking(buf)
	if len(buf) == start {
		return buf
	}
	pick := buf[start+s.rng.Intn(len(buf)-start)]
	return append(buf[:start], pick)
}

// Alternating activates the even-index processes on odd steps and the
// odd-index processes on even steps, a maximally interleaved two-phase
// adversary.
type Alternating struct{}

// Name implements Scheduler.
func (Alternating) Name() string { return "alternating" }

// Next implements Scheduler.
func (Alternating) Next(st State, buf []int) []int {
	// Time is 1-based: on odd steps (Time()%2 == 1) the even-index class
	// moves, on even steps the odd-index class.
	parity := st.Time() % 2
	start := len(buf)
	buf = st.AppendWorking(buf)
	out := buf[:start]
	for _, i := range buf[start:] {
		if i%2 != parity {
			out = append(out, i)
		}
	}
	if len(out) == start {
		// The opposite class may be all that remains.
		return buf
	}
	return out
}

// Sleep delays a set of processes: members of Asleep are withheld until
// WakeAt (a time step), while the Inner scheduler drives everyone else.
// This is the building block for starvation adversaries — e.g. freezing a
// neighbor so that a process stays blocked on Algorithm 3's green-light
// gate, or modeling late risers whose registers stay ⊥.
type Sleep struct {
	Asleep map[int]bool
	WakeAt int
	Inner  Scheduler
}

// NewSleep returns a Sleep scheduler. A WakeAt beyond the step limit makes
// the sleep permanent, i.e. an initial crash.
func NewSleep(asleep []int, wakeAt int, inner Scheduler) *Sleep {
	m := make(map[int]bool, len(asleep))
	for _, i := range asleep {
		m[i] = true
	}
	return &Sleep{Asleep: m, WakeAt: wakeAt, Inner: inner}
}

// Name implements Scheduler.
func (s *Sleep) Name() string {
	return fmt.Sprintf("sleep(%d until t=%d, then %s)", len(s.Asleep), s.WakeAt, s.Inner.Name())
}

// Next implements Scheduler.
func (s *Sleep) Next(st State, buf []int) []int {
	start := len(buf)
	buf = s.Inner.Next(st, buf)
	if st.Time() >= s.WakeAt {
		return buf
	}
	out := buf[:start]
	for _, i := range buf[start:] {
		if !s.Asleep[i] {
			out = append(out, i)
		}
	}
	return out
}

// Burst activates a single process K times in a row before moving on
// (round-robin order): the "one process races ahead" adversary from the
// paper's discussion of asynchronous rounds.
type Burst struct {
	K       int
	current int
	fired   int
}

// NewBurst returns a Burst scheduler giving each process k ≥ 1 consecutive
// solo steps.
func NewBurst(k int) *Burst {
	if k < 1 {
		k = 1
	}
	return &Burst{K: k}
}

// Name implements Scheduler.
func (b *Burst) Name() string { return fmt.Sprintf("burst(%d)", b.K) }

// Next implements Scheduler.
func (b *Burst) Next(st State, buf []int) []int {
	n := st.N()
	for scanned := 0; scanned <= n; scanned++ {
		i := (b.current + scanned) % n
		if !st.Working(i) {
			continue
		}
		if i != b.current {
			b.current = i
			b.fired = 0
		}
		b.fired++
		if b.fired >= b.K {
			b.current = (i + 1) % n
			b.fired = 0
		}
		return append(buf, i)
	}
	return buf
}

// Parse resolves a scheduler family by the short name the CLIs and the
// job server share: sync|rr|random|one|alt|burst. The derived instances
// use the historical CLI parameters (round-robin width 1, subset fraction
// 0.4, burst width 4).
func Parse(name string, seed int64) (Scheduler, error) {
	switch name {
	case "sync":
		return Synchronous{}, nil
	case "rr":
		return NewRoundRobin(1), nil
	case "random":
		return NewRandomSubset(0.4, seed), nil
	case "one":
		return NewRandomOne(seed), nil
	case "alt":
		return Alternating{}, nil
	case "burst":
		return NewBurst(4), nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}
