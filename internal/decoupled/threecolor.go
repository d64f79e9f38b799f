package decoupled

import "asynccycle/internal/sim"

// ThreeColorVal is the value a ThreeColor process emits: its wake round,
// identifier, and current color (Undecided until it commits).
type ThreeColorVal struct {
	Wake  int
	ID    int
	Color int // Undecided, or a color in {0, 1, 2}
}

// HashFingerprint implements sim.Hashable.
func (v *ThreeColorVal) HashFingerprint(h *sim.FPHasher) {
	h.HashInt(v.Wake)
	h.HashInt(v.ID)
	h.HashInt(v.Color)
}

// Undecided marks a not-yet-committed color.
const Undecided = -1

// ThreeColor wait-free 3-colors the cycle in the DECOUPLED model by
// exploiting the synchronous layer's clock — the power the state model
// lacks. Priority order is (wake round, then larger identifier): because
// delivery is reliable and takes exactly one round, by network round
// w_p + 2 process p has seen the first emission of every neighbor that
// woke no later than p, so p knows its priority neighbors exactly; any
// neighbor silent by then wakes strictly later and will defer to p's
// committed color. p commits to the smallest color unused by its priority
// neighbors' commitments (at most two neighbors, so {0, 1, 2} always
// suffices, versus the five colors provably necessary in the paper's
// model).
//
// Progress: ThreeColor is wait-free against *initial* crashes (processes
// that never wake are simply never anyone's priority neighbor) and
// against crashes of already-committed processes (the layer keeps
// relaying their color). A process that wakes and then crashes before
// committing blocks its lower-priority neighbors — tolerating that last
// pattern with 3 colors is exactly the contribution of Castañeda et al.
// [13], whose full machinery is out of scope here (see DESIGN.md); the
// separation from the state model (3 colors vs 5) already shows at the
// patterns this process handles.
type ThreeColor struct {
	id   int
	wake int // 0 until the first step
	// Per neighbor slot: what is known from the buffer.
	seen  []neighborInfo
	color int
}

type neighborInfo struct {
	known bool
	wake  int
	id    int
	color int
}

// NewThreeColor returns a ThreeColor process with the given identifier
// and degree (2 on the cycle).
func NewThreeColor(id, degree int) *ThreeColor {
	return &ThreeColor{
		id:    id,
		seen:  make([]neighborInfo, degree),
		color: Undecided,
	}
}

// Step implements Proc.
func (t *ThreeColor) Step(now int, buffered []Message[ThreeColorVal]) (ThreeColorVal, bool, int) {
	if t.wake == 0 {
		t.wake = now
	}
	for _, m := range buffered {
		if m.From < 0 || m.From >= len(t.seen) {
			continue
		}
		info := &t.seen[m.From]
		if !info.known {
			info.known = true
			info.wake = m.Value.Wake
			info.id = m.Value.ID
		}
		info.color = m.Value.Color
	}

	if t.color == Undecided && now >= t.wake+2 {
		// All neighbors that woke at rounds ≤ t.wake are visible now;
		// anything still silent wakes later and defers to us.
		ready := true
		var used []int
		for _, info := range t.seen {
			if !info.known {
				continue // wakes later (or never): defers to us
			}
			if !t.hasPriority(info) {
				continue // we have priority: it defers to us
			}
			if info.color == Undecided {
				ready = false // priority neighbor not committed yet
				break
			}
			used = append(used, info.color)
		}
		if ready {
			t.color = mex3(used)
		}
	}

	v := ThreeColorVal{Wake: t.wake, ID: t.id, Color: t.color}
	if t.color != Undecided {
		return v, true, t.color
	}
	return v, false, 0
}

// Clone implements Proc.
func (t *ThreeColor) Clone() Proc[ThreeColorVal] {
	c := *t
	c.seen = append([]neighborInfo(nil), t.seen...)
	return &c
}

// HashFingerprint implements sim.Hashable: every field, as Fingerprint
// prints them.
func (t *ThreeColor) HashFingerprint(h *sim.FPHasher) {
	h.HashInt(t.id)
	h.HashInt(t.wake)
	h.HashInt(len(t.seen))
	for _, s := range t.seen {
		h.HashBool(s.known)
		h.HashInt(s.wake)
		h.HashInt(s.id)
		h.HashInt(s.color)
	}
	h.HashInt(t.color)
}

// hasPriority reports whether the neighbor outranks this process: it woke
// strictly earlier, or in the same round with a larger identifier.
func (t *ThreeColor) hasPriority(info neighborInfo) bool {
	if info.wake != t.wake {
		return info.wake < t.wake
	}
	return info.id > t.id
}

// mex3 is the minimum color in {0, 1, 2, …} excluded from used; with at
// most two entries it never exceeds 2.
func mex3(used []int) int {
	for c := 0; ; c++ {
		taken := false
		for _, u := range used {
			if u == c {
				taken = true
				break
			}
		}
		if !taken {
			return c
		}
	}
}

// NewThreeColorNodes builds one ThreeColor process per identifier for the
// cycle (degree 2).
func NewThreeColorNodes(xs []int) []Proc[ThreeColorVal] {
	procs := make([]Proc[ThreeColorVal], len(xs))
	for i, x := range xs {
		procs[i] = NewThreeColor(x, 2)
	}
	return procs
}
