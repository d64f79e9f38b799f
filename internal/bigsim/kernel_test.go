package bigsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"asynccycle/internal/core"
	"asynccycle/internal/cv"
)

// The kernels' conflict sets were once built in stack slices and scanned
// with mex8/contains8. That slice-based form is kept here, transcribed
// from the kernels it preceded, as the reference TestKernelObserveTable
// holds the bitmask kernels to.

// mex8 returns min(ℕ ∖ used) over a tiny color set, mirroring core.mex.
func mex8(used []uint8) uint8 {
	for v := uint8(0); ; v++ {
		if !contains8(used, v) {
			return v
		}
	}
}

// contains8 reports whether xs contains v.
func contains8(xs []uint8, v uint8) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// cycleNeighbors returns i's left and right neighbors on C_n.
func cycleNeighbors(n int, i int32) (l, r int32) {
	l, r = i-1, i+1
	if l < 0 {
		l = int32(n) - 1
	}
	if r == int32(n) {
		r = 0
	}
	return l, r
}

func refSixObserve(k *sixKernel, i int32) (bool, int32) {
	l, r := cycleNeighbors(k.n, i)
	a, b := k.a[i], k.b[i]
	conflict := (k.present[l] && k.regA[l] == a && k.regB[l] == b) ||
		(k.present[r] && k.regA[r] == a && k.regB[r] == b)
	if !conflict {
		return true, int32(core.EncodePair(int(a), int(b)))
	}
	var aBuf, bBuf [2]uint8
	aUsed, bUsed := aBuf[:0], bBuf[:0]
	x := k.x[i]
	for _, q := range [2]int32{l, r} {
		if !k.present[q] {
			continue
		}
		switch {
		case k.x[q] > x:
			aUsed = append(aUsed, k.regA[q])
		case k.x[q] < x:
			bUsed = append(bUsed, k.regB[q])
		}
	}
	k.a[i] = mex8(aUsed)
	k.b[i] = mex8(bUsed)
	return false, 0
}

func refFiveObserve(k *fiveKernel, i int32) (bool, int32) {
	l, r := cycleNeighbors(k.n, i)
	var allBuf, higherBuf [4]uint8
	all, higher := allBuf[:0], higherBuf[:0]
	x := k.x[i]
	for _, q := range [2]int32{l, r} {
		if !k.present[q] {
			continue
		}
		all = append(all, k.regA[q], k.regB[q])
		if k.x[q] > x {
			higher = append(higher, k.regA[q], k.regB[q])
		}
	}
	if !contains8(all, k.a[i]) {
		return true, int32(k.a[i])
	}
	if !contains8(all, k.b[i]) {
		return true, int32(k.b[i])
	}
	k.a[i] = mex8(higher)
	k.b[i] = mex8(all)
	return false, 0
}

func refFastObserve(k *fastKernel, i int32) (bool, int32) {
	l, r := cycleNeighbors(k.n, i)
	var allBuf, higherBuf [4]uint8
	all, higher := allBuf[:0], higherBuf[:0]
	x := k.x[i]
	nPresent := 0
	for _, q := range [2]int32{l, r} {
		if !k.present[q] {
			continue
		}
		nPresent++
		all = append(all, k.regA[q], k.regB[q])
		if k.regX[q] > x {
			higher = append(higher, k.regA[q], k.regB[q])
		}
	}
	if !contains8(all, k.a[i]) {
		return true, int32(k.a[i])
	}
	if !contains8(all, k.b[i]) {
		return true, int32(k.b[i])
	}
	k.a[i] = mex8(higher)
	k.b[i] = mex8(all)

	if k.rInf[i] || nPresent != 2 {
		return false, 0
	}
	if (!k.regRInf[l] && k.regR[l] < k.r[i]) || (!k.regRInf[r] && k.regR[r] < k.r[i]) {
		return false, 0
	}
	lo, hi := k.regX[l], k.regX[l]
	if k.regX[r] < lo {
		lo = k.regX[r]
	}
	if k.regX[r] > hi {
		hi = k.regX[r]
	}
	if lo < x && x < hi {
		k.r[i]++
		if y := int64(cv.F(int(x), int(lo))); y < lo {
			k.x[i] = y
		}
	} else {
		k.rInf[i] = true
		if x < lo {
			e0 := cv.F(int(k.regX[l]), int(x))
			e1 := cv.F(int(k.regX[r]), int(x))
			m := 0
			for m == e0 || m == e1 {
				m++
			}
			if int64(m) < x {
				k.x[i] = int64(m)
			}
		}
	}
	return false, 0
}

// tableReg is one neighbor register of the table: ⊥ (all zero, as Reset
// leaves an unpublished register), or a published identifier below, equal
// to or above the observer's, a color pair, and fast's green-light
// counter.
type tableReg struct {
	present bool
	rel     int // −1 lower, 0 equal, +1 higher identifier than the observer's
	a, b    uint8
	r       int32
	rInf    bool
}

// rState is one green-light counter value: r, or ∞.
type rState struct {
	r   int32
	inf bool
}

// tableRegs lists ⊥ and every present register with colors below colors
// and each r-state. Equal identifiers never meet across a cycle edge
// (checkCycleIDs), but the table includes them to pin the strictness of
// the identifier comparisons, which both forms must share.
func tableRegs(colors uint8, rs []rState) []tableReg {
	out := []tableReg{{}}
	for _, rel := range []int{-1, 0, 1} {
		for a := uint8(0); a < colors; a++ {
			for b := uint8(0); b < colors; b++ {
				for _, s := range rs {
					out = append(out, tableReg{present: true, rel: rel, a: a, b: b, r: s.r, rInf: s.inf})
				}
			}
		}
	}
	return out
}

// idScale fixes the observer's identifier and, per side, the identifiers
// of a lower and a higher neighbor. With the two scales, fast's interior
// Cole–Vishkin step both lands below the smaller neighbor (reducing) and
// does not, and a local minimum both adopts its mex and keeps its value.
type idScale struct {
	self          int64
	lower, higher [2]int64 // [left, right]
}

var idScales = []idScale{
	{self: 1, lower: [2]int64{0, 0}, higher: [2]int64{2, 3}},
	{self: 1000, lower: [2]int64{300, 517}, higher: [2]int64{4097, 7000}},
}

// id is the identifier a register of the given side publishes: fast's
// regX, or six's and five's neighbor x.
func (s idScale) id(side int, reg tableReg) int64 {
	if !reg.present {
		return 0
	}
	switch reg.rel {
	case -1:
		return s.lower[side]
	case 1:
		return s.higher[side]
	}
	return s.self
}

// TestKernelObserveTable holds each bitmask kernel's Observe to the
// slice-based reference over every in-range input of one node on C_3:
// every node color state (pair components ≤ 2 for six, colors ≤ 4 for
// five and fast) against every pair of neighbor registers — ⊥, or present
// with a lower, equal or higher identifier and each in-range color pair —
// under two identifier scales; for fast also every r/rInf combination on
// both sides and for the node. Done flag, output and the whole post-state
// must agree. Six and five keep no register copy of the identifier, so
// their tables set the neighbors' x, which both forms read.
func TestKernelObserveTable(t *testing.T) {
	xs := []int{10, 20, 30}
	const i = 1 // observer; left neighbor 0, right neighbor 2

	t.Run("six", func(t *testing.T) {
		got, want := mustKernel(t, NewSixKernel, xs).(*sixKernel), mustKernel(t, NewSixKernel, xs).(*sixKernel)
		regs := tableRegs(3, []rState{{}})
		cases := 0
		for _, sc := range idScales {
			for _, lr := range regs {
				for _, rr := range regs {
					for _, k := range []*sixKernel{got, want} {
						k.x[i] = sc.self
						k.present[0], k.x[0], k.regA[0], k.regB[0] = lr.present, sc.id(0, lr), lr.a, lr.b
						k.present[2], k.x[2], k.regA[2], k.regB[2] = rr.present, sc.id(1, rr), rr.a, rr.b
					}
					for a := uint8(0); a < 3; a++ {
						for b := uint8(0); b < 3; b++ {
							got.a[i], got.b[i] = a, b
							want.a[i], want.b[i] = a, b
							gd, gout := got.Observe(i)
							wd, wout := refSixObserve(want, i)
							if gd != wd || gout != wout || !sixEqual(got, want) {
								t.Fatalf("scale %d, left %+v, right %+v, node (%d,%d): got (%v,%d) %+v, want (%v,%d) %+v",
									sc.self, lr, rr, a, b, gd, gout, *got, wd, wout, *want)
							}
							cases++
						}
					}
				}
			}
		}
		t.Logf("%d cases", cases)
	})

	t.Run("five", func(t *testing.T) {
		got, want := mustKernel(t, NewFiveKernel, xs).(*fiveKernel), mustKernel(t, NewFiveKernel, xs).(*fiveKernel)
		regs := tableRegs(5, []rState{{}})
		cases := 0
		for _, sc := range idScales {
			for _, lr := range regs {
				for _, rr := range regs {
					for _, k := range []*fiveKernel{got, want} {
						k.x[i] = sc.self
						k.present[0], k.x[0], k.regA[0], k.regB[0] = lr.present, sc.id(0, lr), lr.a, lr.b
						k.present[2], k.x[2], k.regA[2], k.regB[2] = rr.present, sc.id(1, rr), rr.a, rr.b
					}
					for a := uint8(0); a < 5; a++ {
						for b := uint8(0); b < 5; b++ {
							got.a[i], got.b[i] = a, b
							want.a[i], want.b[i] = a, b
							gd, gout := got.Observe(i)
							wd, wout := refFiveObserve(want, i)
							if gd != wd || gout != wout || !fiveEqual(got, want) {
								t.Fatalf("scale %d, left %+v, right %+v, node (%d,%d): got (%v,%d) %+v, want (%v,%d) %+v",
									sc.self, lr, rr, a, b, gd, gout, *got, wd, wout, *want)
							}
							cases++
						}
					}
				}
			}
		}
		t.Logf("%d cases", cases)
	})

	t.Run("fast", func(t *testing.T) {
		got, want := mustKernel(t, NewFastKernel, xs).(*fastKernel), mustKernel(t, NewFastKernel, xs).(*fastKernel)
		// Counters 0 and 1 on both sides give every relation of the green
		// light's r_q < r_p; ∞ never blocks and stops a node reducing.
		rs := []rState{{r: 0}, {r: 1}, {inf: true}}
		regs := tableRegs(5, rs)
		cases := 0
		for _, sc := range idScales {
			for _, lr := range regs {
				for _, rr := range regs {
					for _, k := range []*fastKernel{got, want} {
						k.present[0], k.regX[0], k.regA[0], k.regB[0] = lr.present, sc.id(0, lr), lr.a, lr.b
						k.regR[0], k.regRInf[0] = lr.r, lr.rInf
						k.present[2], k.regX[2], k.regA[2], k.regB[2] = rr.present, sc.id(1, rr), rr.a, rr.b
						k.regR[2], k.regRInf[2] = rr.r, rr.rInf
					}
					for _, nr := range rs {
						for a := uint8(0); a < 5; a++ {
							for b := uint8(0); b < 5; b++ {
								for _, k := range []*fastKernel{got, want} {
									k.x[i], k.r[i], k.rInf[i], k.a[i], k.b[i] = sc.self, nr.r, nr.inf, a, b
								}
								gd, gout := got.Observe(i)
								wd, wout := refFastObserve(want, i)
								if gd != wd || gout != wout || !fastEqual(got, want) {
									t.Fatalf("scale %d, left %+v, right %+v, node (%d,%d) %+v: got (%v,%d) %+v, want (%v,%d) %+v",
										sc.self, lr, rr, a, b, nr, gd, gout, *got, wd, wout, *want)
								}
								cases++
							}
						}
					}
				}
			}
		}
		t.Logf("%d cases", cases)
	})
}

func mustKernel(t *testing.T, mk func([]int) (Kernel, error), xs []int) Kernel {
	t.Helper()
	k, err := mk(xs)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func sixEqual(p, q *sixKernel) bool {
	return slices.Equal(p.x, q.x) && slices.Equal(p.a, q.a) && slices.Equal(p.b, q.b) &&
		slices.Equal(p.regA, q.regA) && slices.Equal(p.regB, q.regB) && slices.Equal(p.present, q.present)
}

func fiveEqual(p, q *fiveKernel) bool {
	return slices.Equal(p.x, q.x) && slices.Equal(p.a, q.a) && slices.Equal(p.b, q.b) &&
		slices.Equal(p.regA, q.regA) && slices.Equal(p.regB, q.regB) && slices.Equal(p.present, q.present)
}

func fastEqual(p, q *fastKernel) bool {
	return slices.Equal(p.x, q.x) && slices.Equal(p.r, q.r) && slices.Equal(p.rInf, q.rInf) &&
		slices.Equal(p.a, q.a) && slices.Equal(p.b, q.b) &&
		slices.Equal(p.regX, q.regX) && slices.Equal(p.regR, q.regR) && slices.Equal(p.regRInf, q.regRInf) &&
		slices.Equal(p.regA, q.regA) && slices.Equal(p.regB, q.regB) && slices.Equal(p.present, q.present)
}

// refCheckCycleIDs is checkCycleIDs in its one-pass form, with the wrap
// edge found by a modulo on every node: the reference TestCheckCycleIDs
// holds the current form to, error for error.
func refCheckCycleIDs(xs []int) error {
	n := len(xs)
	if n < 3 {
		return fmt.Errorf("bigsim: cycle needs n ≥ 3, got %d", n)
	}
	for i, x := range xs {
		if x < 0 {
			return fmt.Errorf("bigsim: negative identifier %d at node %d", x, i)
		}
		if x == xs[(i+1)%n] {
			return fmt.Errorf("bigsim: identifiers must differ across every cycle edge (nodes %d and %d share %d)", i, (i+1)%n, x)
		}
	}
	return nil
}

// TestCheckCycleIDs: the same inputs give the same errors as the
// reference, on named cases — among them a conflict on the wrap edge and
// a negative identifier at the last index — and on random short cycles
// over a tiny value range, where conflicts and negatives are common.
func TestCheckCycleIDs(t *testing.T) {
	errString := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for _, c := range []struct {
		xs   []int
		want string // "" for nil
	}{
		{nil, "bigsim: cycle needs n ≥ 3, got 0"},
		{[]int{1, 2}, "bigsim: cycle needs n ≥ 3, got 2"},
		{[]int{1, 2, 3}, ""},
		{[]int{1, 1, 2}, "bigsim: identifiers must differ across every cycle edge (nodes 0 and 1 share 1)"},
		{[]int{2, 3, 4, 2}, "bigsim: identifiers must differ across every cycle edge (nodes 3 and 0 share 2)"},
		{[]int{1, 2, -3}, "bigsim: negative identifier -3 at node 2"},
		{[]int{-1, 2, -1}, "bigsim: negative identifier -1 at node 0"},
		{[]int{4, 4, -1}, "bigsim: identifiers must differ across every cycle edge (nodes 0 and 1 share 4)"},
		{[]int{3, 5, 7, 9, 3}, "bigsim: identifiers must differ across every cycle edge (nodes 4 and 0 share 3)"},
	} {
		got, ref := errString(checkCycleIDs(c.xs)), errString(refCheckCycleIDs(c.xs))
		want := c.want
		if want == "" {
			want = "<nil>"
		}
		if got != want || ref != want {
			t.Errorf("%v: got %q, reference %q, want %q", c.xs, got, ref, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		xs := make([]int, rng.Intn(7))
		for i := range xs {
			xs[i] = rng.Intn(4) - 1
		}
		if got, want := errString(checkCycleIDs(xs)), errString(refCheckCycleIDs(xs)); got != want {
			t.Fatalf("%v: got %q, want %q", xs, got, want)
		}
	}
}
