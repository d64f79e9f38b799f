// Package core implements the paper's wait-free coloring algorithms for the
// asynchronous crash-prone state model:
//
//   - Pair: Algorithm 1 (6-coloring of the cycle with color pairs (a, b),
//     a+b ≤ 2) which, run unchanged on a graph of maximum degree Δ, is
//     Algorithm 4 (O(Δ²)-coloring, Appendix A);
//   - Five: Algorithm 2 (wait-free 5-coloring of the cycle in O(n) rounds);
//   - Fast: Algorithm 3 (wait-free 5-coloring of the cycle in O(log* n)
//     rounds, augmenting Five with Cole–Vishkin identifier reduction gated
//     by the r-counter "green light" synchronization).
//
// All three are deterministic state machines exposing the sim.Node
// interface; they carry no reference to the topology and communicate only
// through the local immediate snapshots the engine hands them.
//
// ⊥ semantics: a neighbor that has never been activated contributes nothing
// to any conflict set (Lemma 3.2's ĉ_q = ⊥ case). In Fast, an absent
// neighbor — and a neighbor with r = ∞ — never blocks the green-light gate,
// and the sandwich test min{X_q, X_q'} < X_p < max{X_q, X_q'} ranges over
// present neighbors only, so a process whose present neighbors do not
// strictly sandwich it takes the local-extremum branch (r ← ∞).
package core

import (
	"asynccycle/internal/cv"
	"asynccycle/internal/sim"
)

// mex returns the minimum excluded natural: min(ℕ ∖ used). The conflict
// sets involved never exceed 2Δ values, so the quadratic scan is optimal in
// practice (no allocations).
func mex(used []int) int {
	for v := 0; ; v++ {
		found := false
		for _, u := range used {
			if u == v {
				found = true
				break
			}
		}
		if !found {
			return v
		}
	}
}

// contains reports whether xs contains v.
func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Algorithm 1 / Algorithm 4: pair coloring.
// ---------------------------------------------------------------------------

// pairStride separates the two components of an encoded pair color; 16 bits
// comfortably exceeds any per-component value (components are bounded by the
// degree, mex of ≤ Δ values ≤ Δ).
const pairStride = 1 << 16

// EncodePair packs the color pair (a, b) into one output int.
func EncodePair(a, b int) int { return a*pairStride + b }

// DecodePair unpacks an output of Pair back into (a, b).
func DecodePair(c int) (a, b int) { return c / pairStride, c % pairStride }

// PairPaletteSize returns the size of the palette {(a, b) : a+b ≤ Δ} used
// by Algorithm 4 on graphs of maximum degree Δ: (Δ+1)(Δ+2)/2. For the cycle
// (Δ = 2) this is the 6-color palette of Theorem 3.1.
func PairPaletteSize(maxDeg int) int { return (maxDeg + 1) * (maxDeg + 2) / 2 }

// InPairPalette reports whether an encoded pair output lies in the
// Algorithm 4 palette for maximum degree Δ.
func InPairPalette(c, maxDeg int) bool {
	a, b := DecodePair(c)
	return a >= 0 && b >= 0 && a+b <= maxDeg
}

// PairVal is the register content of the Pair algorithm: the (static)
// identifier and the current color pair.
type PairVal struct {
	X, A, B int
}

// HashFingerprint implements sim.Hashable.
func (v *PairVal) HashFingerprint(h *sim.FPHasher) {
	h.HashInt(v.X)
	h.HashInt(v.A)
	h.HashInt(v.B)
}

// Pair is the Algorithm 1 / Algorithm 4 state machine: color pair
// c = (a, b), initially (0, 0). Each non-returning round sets
//
//	a ← min ℕ ∖ { a_u : u ∼ p, X_u > X_p }
//	b ← min ℕ ∖ { b_u : u ∼ p, X_u < X_p }
//
// and the process returns c as soon as c differs from every neighbor's
// published pair.
type Pair struct {
	x, a, b int
}

// NewPair returns a Pair process with the given identifier. Identifiers
// must be non-negative and properly color the graph (distinct across every
// edge); globally unique identifiers, the paper's default input, satisfy
// this a fortiori (Remark 3.10).
func NewPair(id int) *Pair { return &Pair{x: id} }

// X returns the (immutable) identifier.
func (p *Pair) X() int { return p.x }

// Color returns the current color pair.
func (p *Pair) Color() (a, b int) { return p.a, p.b }

// Publish implements sim.Node.
func (p *Pair) Publish() PairVal { return PairVal{X: p.x, A: p.a, B: p.b} }

// Observe implements sim.Node.
func (p *Pair) Observe(view []sim.Cell[PairVal]) sim.Decision {
	conflict := false
	for _, c := range view {
		if c.Present && c.Val.A == p.a && c.Val.B == p.b {
			conflict = true
			break
		}
	}
	if !conflict {
		return sim.Decision{Return: true, Output: EncodePair(p.a, p.b)}
	}
	// Conflict sets live in stack buffers up to degree 8 (every cycle, and
	// the bounded-degree graphs of E9); larger degrees spill to the heap.
	var aBuf, bBuf [8]int
	aUsed, bUsed := aBuf[:0], bBuf[:0]
	for _, c := range view {
		if !c.Present {
			continue
		}
		switch {
		case c.Val.X > p.x:
			aUsed = append(aUsed, c.Val.A)
		case c.Val.X < p.x:
			bUsed = append(bUsed, c.Val.B)
		}
	}
	p.a = mex(aUsed)
	p.b = mex(bUsed)
	return sim.Decision{}
}

// Clone implements sim.Node.
func (p *Pair) Clone() sim.Node[PairVal] {
	cp := *p
	return &cp
}

// CopyInto implements sim.Copier.
func (p *Pair) CopyInto(dst any) bool {
	d, ok := dst.(*Pair)
	if ok {
		*d = *p
	}
	return ok
}

// HashFingerprint implements sim.Hashable.
func (p *Pair) HashFingerprint(h *sim.FPHasher) {
	h.HashInt(p.x)
	h.HashInt(p.a)
	h.HashInt(p.b)
}

var (
	_ sim.Node[PairVal] = (*Pair)(nil)
	_ sim.Copier        = (*Pair)(nil)
)

// NewPairNodes builds one Pair process per identifier, as engine-ready
// nodes.
func NewPairNodes(xs []int) []sim.Node[PairVal] {
	nodes := make([]sim.Node[PairVal], len(xs))
	for i, x := range xs {
		nodes[i] = NewPair(x)
	}
	return nodes
}

// ---------------------------------------------------------------------------
// Algorithm 2: wait-free 5-coloring in O(n) rounds.
// ---------------------------------------------------------------------------

// FiveVal is the register content of the Five algorithm.
type FiveVal struct {
	X, A, B int
}

// HashFingerprint implements sim.Hashable.
func (v *FiveVal) HashFingerprint(h *sim.FPHasher) {
	h.HashInt(v.X)
	h.HashInt(v.A)
	h.HashInt(v.B)
}

// Five is the Algorithm 2 state machine. Each round computes
//
//	C⁺ = { a_u, b_u : u ∼ p, X_u > X_p }    (colors of higher neighbors)
//	C  = { a_u, b_u : u ∼ p }               (all neighbor colors)
//
// returns a if a ∉ C, else b if b ∉ C, and otherwise sets a ← mex C⁺ and
// b ← mex C. Since |C| ≤ 4 on the cycle, mex C ≤ 4 and the output palette
// is {0, …, 4} (Theorem 3.11).
type Five struct {
	x, a, b int
}

// NewFive returns a Five process with the given identifier (precondition as
// in NewPair).
func NewFive(id int) *Five { return &Five{x: id} }

// X returns the (immutable) identifier.
func (f *Five) X() int { return f.x }

// Color returns the current candidate colors (a, b).
func (f *Five) Color() (a, b int) { return f.a, f.b }

// Publish implements sim.Node.
func (f *Five) Publish() FiveVal { return FiveVal{X: f.x, A: f.a, B: f.b} }

// Observe implements sim.Node.
func (f *Five) Observe(view []sim.Cell[FiveVal]) sim.Decision {
	// On the cycle (degree ≤ 2) the conflict sets hold ≤ 4 colors; stack
	// buffers keep the hot path allocation-free.
	var allBuf, higherBuf [4]int
	all, higher := allBuf[:0], higherBuf[:0]
	for _, c := range view {
		if !c.Present {
			continue
		}
		all = append(all, c.Val.A, c.Val.B)
		if c.Val.X > f.x {
			higher = append(higher, c.Val.A, c.Val.B)
		}
	}
	if !contains(all, f.a) {
		return sim.Decision{Return: true, Output: f.a}
	}
	if !contains(all, f.b) {
		return sim.Decision{Return: true, Output: f.b}
	}
	f.a = mex(higher)
	f.b = mex(all)
	return sim.Decision{}
}

// Clone implements sim.Node.
func (f *Five) Clone() sim.Node[FiveVal] {
	cp := *f
	return &cp
}

// CopyInto implements sim.Copier.
func (f *Five) CopyInto(dst any) bool {
	d, ok := dst.(*Five)
	if ok {
		*d = *f
	}
	return ok
}

// HashFingerprint implements sim.Hashable.
func (f *Five) HashFingerprint(h *sim.FPHasher) {
	h.HashInt(f.x)
	h.HashInt(f.a)
	h.HashInt(f.b)
}

var (
	_ sim.Node[FiveVal] = (*Five)(nil)
	_ sim.Copier        = (*Five)(nil)
)

// NewFiveNodes builds one Five process per identifier, as engine-ready
// nodes.
func NewFiveNodes(xs []int) []sim.Node[FiveVal] {
	nodes := make([]sim.Node[FiveVal], len(xs))
	for i, x := range xs {
		nodes[i] = NewFive(x)
	}
	return nodes
}

// ---------------------------------------------------------------------------
// Algorithm 3: wait-free 5-coloring in O(log* n) rounds.
// ---------------------------------------------------------------------------

// FastVal is the register content of the Fast algorithm: the evolving
// identifier X, the green-light counter r (with its ∞ flag), and the two
// candidate colors.
type FastVal struct {
	X    int
	RInf bool
	R    int
	A, B int
}

// HashFingerprint implements sim.Hashable.
func (v *FastVal) HashFingerprint(h *sim.FPHasher) {
	h.HashInt(v.X)
	h.HashBool(v.RInf)
	h.HashInt(v.R)
	h.HashInt(v.A)
	h.HashInt(v.B)
}

// Fast is the Algorithm 3 state machine: Algorithm 2's coloring component
// running verbatim, plus the Cole–Vishkin identifier-reduction component
// (lines 11–19) that shortens monotone identifier chains to constant length
// in O(log* n) rounds. A process only reduces its identifier when its
// counter r does not exceed either neighbor's (the "green light"), which
// maintains Lemma 4.5's invariant that the evolving identifiers keep
// properly coloring the cycle.
type Fast struct {
	x    int
	rInf bool
	r    int
	a, b int
}

// NewFast returns a Fast process with the given identifier (precondition as
// in NewPair; Fast additionally requires degree ≤ 2, i.e. cycle or path
// topologies).
func NewFast(id int) *Fast { return &Fast{x: id} }

// X returns the current (possibly reduced) identifier.
func (f *Fast) X() int { return f.x }

// R returns the green-light counter and whether it is ∞.
func (f *Fast) R() (r int, inf bool) { return f.r, f.rInf }

// Color returns the current candidate colors (a, b).
func (f *Fast) Color() (a, b int) { return f.a, f.b }

// Publish implements sim.Node.
func (f *Fast) Publish() FastVal {
	return FastVal{X: f.x, RInf: f.rInf, R: f.r, A: f.a, B: f.b}
}

// Observe implements sim.Node.
func (f *Fast) Observe(view []sim.Cell[FastVal]) sim.Decision {
	// Coloring component (Algorithm 2, lines 6–10 of Algorithm 3). Fast
	// requires degree ≤ 2, so fixed-size stack buffers cover every input
	// and the per-round path does not allocate.
	var allBuf, higherBuf [4]int
	var presentBuf [2]sim.Cell[FastVal]
	all, higher := allBuf[:0], higherBuf[:0]
	present := presentBuf[:0]
	for _, c := range view {
		if !c.Present {
			continue
		}
		present = append(present, c)
		all = append(all, c.Val.A, c.Val.B)
		if c.Val.X > f.x {
			higher = append(higher, c.Val.A, c.Val.B)
		}
	}
	if !contains(all, f.a) {
		return sim.Decision{Return: true, Output: f.a}
	}
	if !contains(all, f.b) {
		return sim.Decision{Return: true, Output: f.b}
	}
	f.a = mex(higher)
	f.b = mex(all)

	// Identifier-reduction component (lines 11–19). The paper's lines
	// assume both neighbor registers hold values; with a ⊥ neighbor the
	// extremum and sandwich tests are ill-defined, and committing to either
	// branch on partial information is wrong in both directions — an
	// eager r ← ∞ permanently disables reduction (every process whose
	// successor wakes later degenerates to Algorithm 2, losing the
	// O(log* n) bound), and an eager evasive pick can collide with a
	// late-waking neighbor's reduction, violating Lemma 4.5. So the whole
	// component waits for full neighborhood information; the coloring
	// component above is unaffected and keeps the process wait-free.
	if f.rInf || len(present) != len(view) || !f.greenLight(present) {
		return sim.Decision{}
	}
	lo, hi := present[0].Val.X, present[0].Val.X
	for _, c := range present[1:] {
		if c.Val.X < lo {
			lo = c.Val.X
		}
		if c.Val.X > hi {
			hi = c.Val.X
		}
	}
	if lo < f.x && f.x < hi {
		// Interior of a monotone chain: try a Cole–Vishkin step against the
		// smaller neighbor.
		f.r++
		if y := cv.F(f.x, lo); y < lo {
			f.x = y
		}
	} else {
		// Local extremum: stop reducing forever. A local minimum
		// additionally dodges the values its neighbors could reduce onto
		// (line 19).
		f.rInf = true
		if f.x < lo {
			var evadeBuf [2]int
			evade := evadeBuf[:0]
			for _, c := range present {
				evade = append(evade, cv.F(c.Val.X, f.x))
			}
			if m := mex(evade); m < f.x {
				f.x = m
			}
		}
	}
	return sim.Decision{}
}

// greenLight reports r_p ≤ min{r_q, r_q'}, where an absent neighbor or one
// with r = ∞ never blocks.
func (f *Fast) greenLight(present []sim.Cell[FastVal]) bool {
	for _, c := range present {
		if !c.Val.RInf && c.Val.R < f.r {
			return false
		}
	}
	return true
}

// Clone implements sim.Node.
func (f *Fast) Clone() sim.Node[FastVal] {
	cp := *f
	return &cp
}

// CopyInto implements sim.Copier.
func (f *Fast) CopyInto(dst any) bool {
	d, ok := dst.(*Fast)
	if ok {
		*d = *f
	}
	return ok
}

// HashFingerprint implements sim.Hashable.
func (f *Fast) HashFingerprint(h *sim.FPHasher) {
	h.HashInt(f.x)
	h.HashBool(f.rInf)
	h.HashInt(f.r)
	h.HashInt(f.a)
	h.HashInt(f.b)
}

var (
	_ sim.Node[FastVal] = (*Fast)(nil)
	_ sim.Copier        = (*Fast)(nil)
)

// NewFastNodes builds one Fast process per identifier, as engine-ready
// nodes.
func NewFastNodes(xs []int) []sim.Node[FastVal] {
	nodes := make([]sim.Node[FastVal], len(xs))
	for i, x := range xs {
		nodes[i] = NewFast(x)
	}
	return nodes
}
