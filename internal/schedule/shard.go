package schedule

import "fmt"

// ShardBounds cuts the index space [0, n) into at most workers contiguous
// arcs and returns the cut points: arc w is [bounds[w], bounds[w+1]). The
// cuts are the contract shared between the ShardedRoundRobin scheduler
// (the serial reference semantics) and the big engine's parallel sharded
// executor, so both sides must compute them identically.
//
// Interior cuts are aligned to multiples of 64 so that the per-arc bitset
// words touched by concurrent shard workers never overlap (each worker
// writes bits only for its arc's interior [lo+1, hi−2]; with hi ≡ 0 mod 64
// the words holding bits ≤ hi−2 and the words holding bits ≥ hi+1 are
// disjoint). Arcs are at least minArc nodes long; when n is too small for
// the requested worker count the count shrinks, down to a single arc
// [0, n).
func ShardBounds(n, workers int) []int {
	const minArc = 128
	if workers < 1 {
		workers = 1
	}
	if max := n / minArc; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	bounds := make([]int, 0, workers+1)
	bounds = append(bounds, 0)
	for w := 1; w < workers; w++ {
		cut := (w * n / workers) &^ 63 // round down to a 64-bit word boundary
		if cut <= bounds[len(bounds)-1] {
			continue // degenerate arc after rounding; merge into neighbor
		}
		bounds = append(bounds, cut)
	}
	bounds = append(bounds, n)
	return bounds
}

// ShardedRoundRobin is the serial reference semantics of the big engine's
// sharded executor: the cycle is cut into arcs by ShardBounds, and each
// super-round activates, one process at a time, first every working
// interior node arc by arc in ascending order, then every working boundary
// node in ascending order. Interior nodes of one arc are non-adjacent to
// any node another arc's interior phase touches, so the per-arc interior
// subsequences commute — the parallel executor replays exactly this
// schedule (see DESIGN.md §11 for the legality argument).
type ShardedRoundRobin struct {
	// Workers is the requested arc count (clamped by ShardBounds).
	Workers int

	bounds []int
	phase  int // 0 = interior scan, 1 = boundary scan
	arc    int // current arc during the interior phase
	pos    int // next candidate index within the current phase
}

// NewShardedRoundRobin returns a sharded round-robin scheduler with the
// given worker count (≥ 1).
func NewShardedRoundRobin(workers int) *ShardedRoundRobin {
	if workers < 1 {
		workers = 1
	}
	return &ShardedRoundRobin{Workers: workers}
}

// Name implements Scheduler.
func (s *ShardedRoundRobin) Name() string {
	return fmt.Sprintf("sharded-rr(%d)", s.Workers)
}

// Next implements Scheduler: singleton activations in canonical sharded
// order. One call scans at most one full super-round; if no working node
// exists it chooses nobody.
func (s *ShardedRoundRobin) Next(st State, buf []int) []int {
	n := st.N()
	if s.bounds == nil {
		s.bounds = ShardBounds(n, s.Workers)
		s.arc, s.pos, s.phase = 0, s.interiorLo(0), 0
	}
	arcs := len(s.bounds) - 1
	// Scan forward through the canonical order until a working node is
	// found, wrapping at most once (one full super-round).
	for scanned := 0; scanned <= n+2*arcs; scanned++ {
		if s.phase == 0 {
			hi := s.bounds[s.arc+1]
			if s.pos <= hi-2 {
				i := s.pos
				s.pos++
				if st.Working(i) {
					return append(buf, i)
				}
				continue
			}
			// Interior of this arc exhausted: next arc, or boundary phase.
			s.arc++
			if s.arc < arcs {
				s.pos = s.interiorLo(s.arc)
				continue
			}
			s.phase, s.pos = 1, 0
			continue
		}
		// Boundary phase: boundaries ascending are lo_w, hi_w−1 for each
		// arc in order.
		if s.pos < 2*arcs {
			w, side := s.pos/2, s.pos%2
			s.pos++
			i := s.bounds[w]
			if side == 1 {
				i = s.bounds[w+1] - 1
			}
			if i >= 0 && i < n && st.Working(i) {
				return append(buf, i)
			}
			continue
		}
		// Super-round complete: start the next one.
		s.phase, s.arc = 0, 0
		s.pos = s.interiorLo(0)
	}
	return buf
}

// interiorLo returns the first interior index of arc w: the node after the
// arc's low boundary.
func (s *ShardedRoundRobin) interiorLo(w int) int { return s.bounds[w] + 1 }
