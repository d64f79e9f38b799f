package bigsim

import (
	"math/rand"

	"asynccycle/internal/schedule"
)

// Sched produces activation sets for the big engine without allocating on
// the warm path: Next appends into buf (the engine's reusable decode
// buffer) and returns the extended slice. The scheduler families are
// internal/schedule's own, adapted by Wrap; three keep a native decoder,
// because the frontier makes them cheaper — round-robin(1) decodes whole
// sweeps at once, random-subset draws its decisions straight off the
// frontier words, and random-one selects its node by popcount. All three
// consume the same decision streams as their internal/schedule
// counterparts, so a bigsim run and a sim run under same-family,
// same-seed schedulers are byte-identical (pinned by the differential
// tests). Their sets are ascending, distinct and all-working by
// construction, so the engine executes them without Step's filter.
type Sched interface {
	Name() string
	Next(e *Engine, buf []int32) []int32
}

// Wrap adapts an internal/schedule scheduler to the big engine (the engine
// implements schedule.State). The choice lands in a buffer the engine
// keeps across runs, so a warm run allocates only what the wrapped
// scheduler allocates.
func Wrap(s schedule.Scheduler) Sched { return &wrapped{s} }

type wrapped struct{ s schedule.Scheduler }

func (w *wrapped) Name() string { return w.s.Name() }

func (w *wrapped) Next(e *Engine, buf []int32) []int32 {
	e.wrapBuf = w.s.Next(e, e.wrapBuf[:0])
	for _, i := range e.wrapBuf {
		buf = append(buf, int32(i))
	}
	return buf
}

// NewSync returns the synchronous scheduler.
func NewSync() Sched { return Wrap(schedule.Synchronous{}) }

// NewRR returns a round-robin scheduler of the given width (≥ 1). Width 1
// is native and decodes in batches: one batch is one cyclic sweep of the
// working set, each node at most once.
func NewRR(width int) Sched {
	if width <= 1 {
		return &rr1{}
	}
	return Wrap(schedule.NewRoundRobin(width))
}

// NewAlt returns the alternating scheduler.
func NewAlt() Sched { return Wrap(schedule.Alternating{}) }

// NewBurst returns a burst scheduler giving each process k ≥ 1
// consecutive solo steps.
func NewBurst(k int) Sched { return Wrap(schedule.NewBurst(k)) }

// NewRandomSubset returns a random-subset scheduler with inclusion
// probability p (clamped to (0, 1]) and the given seed.
func NewRandomSubset(p float64, seed int64) Sched {
	return &randomSubset{schedule.NewRandomSubset(p, seed)}
}

// rr1 is schedule.RoundRobin of width 1 with batched decoding: NextBatch
// appends up to cap(buf) singleton activations — each node at most once
// per batch — and the engine replays them as individual steps without
// per-step dispatch. Legal exactly because a node's working status changes
// only by its own activation: with each node named at most once,
// decode-time status equals execution-time status.
type rr1 struct{ next int32 }

func (r *rr1) Name() string { return "round-robin(1)" }

// Next chooses the next working node in cyclic order: a batch of one.
func (r *rr1) Next(e *Engine, buf []int32) []int32 {
	start := len(buf)
	return r.NextBatch(e, append(buf, 0)[:start:start+1])
}

// NextBatch decodes one cyclic sweep of the working set, up to cap(buf)
// singleton choices at once, skipping empty frontier words.
func (r *rr1) NextBatch(e *Engine, buf []int32) []int32 {
	start := len(buf)
	next := int(r.next)
	if next >= e.n {
		next = 0
	}
	buf = e.appendWorkingIn(buf, next, e.n)
	buf = e.appendWorkingIn(buf, 0, next)
	if len(buf) > start {
		r.next = buf[len(buf)-1] + 1
		if int(r.next) >= e.n {
			r.next = 0
		}
	}
	return buf
}

// randomSubset is schedule.RandomSubset decoded from the frontier words:
// it consumes the reference's decision stream one word of working nodes
// at a time (IncludeBits), plus one Fallback when every draw misses,
// without listing the working set first.
type randomSubset struct{ s *schedule.RandomSubset }

func (r *randomSubset) Name() string { return r.s.Name() }

func (r *randomSubset) Next(e *Engine, buf []int32) []int32 {
	start := len(buf)
	for w, word := range e.work {
		if word == 0 {
			continue
		}
		for chosen := r.s.IncludeBits(word); chosen != 0; chosen &= chosen - 1 {
			buf = append(buf, int32(w<<6+trailingZeros(chosen)))
		}
	}
	if len(buf) == start && e.nWork > 0 {
		buf = append(buf, e.workingAt(r.s.Fallback(e.nWork)))
	}
	return buf
}

// randomOne activates a single uniformly random working process per step,
// with schedule.RandomOne's exact stream consumption (one Intn per step
// with a working process), selecting the node by popcount.
type randomOne struct {
	rng *rand.Rand
}

// NewRandomOne returns a random-one scheduler with the given seed.
func NewRandomOne(seed int64) Sched {
	return &randomOne{rng: rand.New(rand.NewSource(seed))}
}

func (s *randomOne) Name() string { return "random-one" }

func (s *randomOne) Next(e *Engine, buf []int32) []int32 {
	if e.nWork == 0 {
		return buf
	}
	return append(buf, e.workingAt(s.rng.Intn(e.nWork)))
}

// ParseSched resolves a scheduler family by the short name the CLIs and
// the job server share — the same names, seeds, and parameters as
// schedule.Parse.
func ParseSched(name string, seed int64) (Sched, error) {
	switch name {
	case "rr":
		return NewRR(1), nil
	case "one":
		return NewRandomOne(seed), nil
	}
	s, err := schedule.Parse(name, seed)
	if err != nil {
		return nil, err
	}
	if rs, ok := s.(*schedule.RandomSubset); ok {
		return &randomSubset{rs}, nil
	}
	return Wrap(s), nil
}
