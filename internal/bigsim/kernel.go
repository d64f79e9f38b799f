// Package bigsim is the high-throughput execution engine for large cycles:
// a struct-of-arrays re-implementation of the internal/sim semantics for
// the paper's three core protocols, built for n up to 10⁶ and beyond.
//
// Where internal/sim stores one heap-allocated Node[V] interface value per
// process and hands generic Cell[V] views to Observe, bigsim lays every
// per-node register and state field out in flat slices (kernels), keeps
// the working set in a bitset frontier so a step touches only the nodes
// the schedule names, decodes singleton schedules in batches, and checks
// the proper-coloring invariant incrementally — only the ≤ deg(i) edges
// incident to a node are examined, exactly once, at the moment it
// terminates. The semantics are pinned byte-identical to internal/sim by
// differential tests across every scheduler family and both step modes
// (see equivalence_test.go and DESIGN.md §11).
package bigsim

import (
	"fmt"
	"math/bits"

	"asynccycle/internal/core"
	"asynccycle/internal/cv"
)

// Kernel is one protocol's struct-of-arrays state: registers and per-node
// machine state in flat slices over the cycle C_n. A kernel implements the
// exact per-round transition of its internal/sim counterpart; the Engine
// owns everything protocol-independent (working frontier, activation
// counts, crash limits, outputs, checking).
//
// All methods are called with 0 ≤ i < N(), only for working nodes, and
// only from one goroutine at a time per node (the sharded executor
// partitions nodes so that concurrent calls never touch overlapping
// state; see DESIGN.md §11).
type Kernel interface {
	// Name is the protocol's registry name.
	Name() string
	// N is the instance size.
	N() int
	// Reset re-initializes the kernel for the given identifiers, reusing
	// storage when the size matches.
	Reset(xs []int) error
	// Publish writes node i's register from its state (the first half of a
	// round).
	Publish(i int32)
	// Observe reads the registers of i's cycle neighbors, updates i's
	// state, and reports whether i terminates and with which output (the
	// second half of a round).
	Observe(i int32) (done bool, output int32)
	// Round is Publish followed by Observe — the fused interleaved-mode
	// round, saving one dispatch on the hot path.
	Round(i int32) (done bool, output int32)
	// ValidOutput reports whether c lies in the protocol's palette, for
	// the engine's incremental checker.
	ValidOutput(c int32) bool
	// BytesPerNode is the kernel's per-node memory footprint in bytes
	// (registers + state), for capacity planning and the bench report.
	BytesPerNode() int
}

// checkCycleIDs validates the shared input precondition of the cycle
// kernels: n ≥ 3 and identifiers that are non-negative and distinct across
// every cycle edge (Remark 3.10).
func checkCycleIDs(xs []int) error {
	n := len(xs)
	if n < 3 {
		return fmt.Errorf("bigsim: cycle needs n ≥ 3, got %d", n)
	}
	// Node by node in index order, so the first offending node names the
	// error; the wrap edge (n−1, 0) is node n−1's, checked after the loop.
	for i, x := range xs[:n-1] {
		if x < 0 {
			return negativeID(i, x)
		}
		if x == xs[i+1] {
			return edgeConflict(i, i+1, x)
		}
	}
	last := xs[n-1]
	if last < 0 {
		return negativeID(n-1, last)
	}
	if last == xs[0] {
		return edgeConflict(n-1, 0, last)
	}
	return nil
}

func negativeID(i, x int) error {
	return fmt.Errorf("bigsim: negative identifier %d at node %d", x, i)
}

func edgeConflict(i, j, x int) error {
	return fmt.Errorf("bigsim: identifiers must differ across every cycle edge (nodes %d and %d share %d)", i, j, x)
}

// copyIDs stores the checked identifiers as a kernel's initial x.
func copyIDs(x []int64, xs []int) {
	x = x[:len(xs)]
	for i, v := range xs {
		x[i] = int64(v)
	}
}

// mexMask returns min(ℕ ∖ S) for the color set S whose bit c is set when
// c ∈ S, mirroring core.mex.
func mexMask(used uint64) uint8 { return uint8(bits.TrailingZeros64(^used)) }

// ---------------------------------------------------------------------------
// Five: Algorithm 2 (wait-free 5-coloring in O(n) rounds).
// ---------------------------------------------------------------------------

// fiveKernel is core.Five in struct-of-arrays form: state (x, a, b) and
// register (regA, regB, present) slices. Colors never exceed 4
// (Theorem 3.11), so they pack into single bytes; identifiers span the
// poly(n) input range and need 64 bits. The register has no identifier
// copy: x is never written after Reset, so a present neighbor's published
// identifier is its x.
type fiveKernel struct {
	n       int
	x       []int64
	a, b    []uint8
	regA    []uint8
	regB    []uint8
	present []bool
}

// NewFiveKernel builds the Algorithm 2 kernel for the given identifiers.
func NewFiveKernel(xs []int) (Kernel, error) {
	k := &fiveKernel{}
	if err := k.Reset(xs); err != nil {
		return nil, err
	}
	return k, nil
}

func (k *fiveKernel) Name() string { return "five" }
func (k *fiveKernel) N() int       { return k.n }

func (k *fiveKernel) Reset(xs []int) error {
	if err := checkCycleIDs(xs); err != nil {
		return err
	}
	n := len(xs)
	if n != k.n {
		k.n = n
		k.x = make([]int64, n)
		k.a = make([]uint8, n)
		k.b = make([]uint8, n)
		k.regA = make([]uint8, n)
		k.regB = make([]uint8, n)
		k.present = make([]bool, n)
	} else {
		clear(k.a)
		clear(k.b)
		clear(k.regA)
		clear(k.regB)
		clear(k.present)
	}
	copyIDs(k.x, xs)
	return nil
}

func (k *fiveKernel) Publish(i int32) {
	k.regA[i] = k.a[i]
	k.regB[i] = k.b[i]
	k.present[i] = true
}

func (k *fiveKernel) Observe(i int32) (bool, int32) {
	n := int32(k.n)
	l, r := i-1, i+1
	if l < 0 {
		l = n - 1
	}
	if r == n {
		r = 0
	}
	// Conflict sets mirror core.Five.Observe: all/higher over the present
	// neighbors' published color pairs, as bitmasks (bit c ⇔ color c).
	// Colors never exceed 4 (Theorem 3.11), so every shift stays in range.
	// A present neighbor's published identifier is its x (see fiveKernel).
	var all, higher uint64
	x := k.x[i]
	if k.present[l] {
		m := uint64(1)<<k.regA[l] | uint64(1)<<k.regB[l]
		all |= m
		if k.x[l] > x {
			higher |= m
		}
	}
	if k.present[r] {
		m := uint64(1)<<k.regA[r] | uint64(1)<<k.regB[r]
		all |= m
		if k.x[r] > x {
			higher |= m
		}
	}
	if a := k.a[i]; all&(1<<a) == 0 {
		return true, int32(a)
	}
	if b := k.b[i]; all&(1<<b) == 0 {
		return true, int32(b)
	}
	k.a[i] = mexMask(higher)
	k.b[i] = mexMask(all)
	return false, 0
}

func (k *fiveKernel) Round(i int32) (bool, int32) {
	k.Publish(i)
	return k.Observe(i)
}

func (k *fiveKernel) ValidOutput(c int32) bool { return c >= 0 && c < 5 }

func (k *fiveKernel) BytesPerNode() int {
	return 8 + 1 + 1 + 1 + 1 + 1 // x a b regA regB present
}

// ---------------------------------------------------------------------------
// Six: Algorithm 1 (6-coloring with pairs (a, b), a+b ≤ 2).
// ---------------------------------------------------------------------------

// sixKernel is core.Pair in struct-of-arrays form. Pair components on the
// cycle are mex values over at most two neighbors, hence ≤ 2 and
// byte-sized; the encoded output core.EncodePair(a, b) fits an int32. As in
// fiveKernel, x is never written after Reset, so the register keeps no
// copy of it.
type sixKernel struct {
	n       int
	x       []int64
	a, b    []uint8
	regA    []uint8
	regB    []uint8
	present []bool
}

// NewSixKernel builds the Algorithm 1 kernel for the given identifiers.
func NewSixKernel(xs []int) (Kernel, error) {
	k := &sixKernel{}
	if err := k.Reset(xs); err != nil {
		return nil, err
	}
	return k, nil
}

func (k *sixKernel) Name() string { return "six" }
func (k *sixKernel) N() int       { return k.n }

func (k *sixKernel) Reset(xs []int) error {
	if err := checkCycleIDs(xs); err != nil {
		return err
	}
	n := len(xs)
	if n != k.n {
		k.n = n
		k.x = make([]int64, n)
		k.a = make([]uint8, n)
		k.b = make([]uint8, n)
		k.regA = make([]uint8, n)
		k.regB = make([]uint8, n)
		k.present = make([]bool, n)
	} else {
		clear(k.a)
		clear(k.b)
		clear(k.regA)
		clear(k.regB)
		clear(k.present)
	}
	copyIDs(k.x, xs)
	return nil
}

func (k *sixKernel) Publish(i int32) {
	k.regA[i] = k.a[i]
	k.regB[i] = k.b[i]
	k.present[i] = true
}

func (k *sixKernel) Observe(i int32) (bool, int32) {
	n := int32(k.n)
	l, r := i-1, i+1
	if l < 0 {
		l = n - 1
	}
	if r == n {
		r = 0
	}
	a, b := k.a[i], k.b[i]
	conflict := (k.present[l] && k.regA[l] == a && k.regB[l] == b) ||
		(k.present[r] && k.regA[r] == a && k.regB[r] == b)
	if !conflict {
		return true, int32(core.EncodePair(int(a), int(b)))
	}
	// The used-component sets as bitmasks (bit c ⇔ component c). Pair
	// components are ≤ 2 on the cycle — each is a mex over at most two
	// neighbors — so every shift stays in range. A present neighbor's
	// published identifier is its x (see sixKernel).
	var aUsed, bUsed uint64
	x := k.x[i]
	if k.present[l] {
		switch {
		case k.x[l] > x:
			aUsed |= 1 << k.regA[l]
		case k.x[l] < x:
			bUsed |= 1 << k.regB[l]
		}
	}
	if k.present[r] {
		switch {
		case k.x[r] > x:
			aUsed |= 1 << k.regA[r]
		case k.x[r] < x:
			bUsed |= 1 << k.regB[r]
		}
	}
	k.a[i] = mexMask(aUsed)
	k.b[i] = mexMask(bUsed)
	return false, 0
}

func (k *sixKernel) Round(i int32) (bool, int32) {
	k.Publish(i)
	return k.Observe(i)
}

func (k *sixKernel) ValidOutput(c int32) bool { return core.InPairPalette(int(c), 2) }

func (k *sixKernel) BytesPerNode() int {
	return 8 + 1 + 1 + 1 + 1 + 1 // x a b regA regB present
}

// ---------------------------------------------------------------------------
// Fast: Algorithm 3 (wait-free 5-coloring in O(log* n) rounds).
// ---------------------------------------------------------------------------

// fastKernel is core.Fast in struct-of-arrays form: the Five coloring
// component plus the Cole–Vishkin reduction state (evolving identifier x,
// green-light counter r with its ∞ flag).
type fastKernel struct {
	n       int
	x       []int64
	r       []int32
	rInf    []bool
	a, b    []uint8
	regX    []int64
	regR    []int32
	regRInf []bool
	regA    []uint8
	regB    []uint8
	present []bool
}

// NewFastKernel builds the Algorithm 3 kernel for the given identifiers.
func NewFastKernel(xs []int) (Kernel, error) {
	k := &fastKernel{}
	if err := k.Reset(xs); err != nil {
		return nil, err
	}
	return k, nil
}

func (k *fastKernel) Name() string { return "fast" }
func (k *fastKernel) N() int       { return k.n }

func (k *fastKernel) Reset(xs []int) error {
	if err := checkCycleIDs(xs); err != nil {
		return err
	}
	n := len(xs)
	if n != k.n {
		k.n = n
		k.x = make([]int64, n)
		k.r = make([]int32, n)
		k.rInf = make([]bool, n)
		k.a = make([]uint8, n)
		k.b = make([]uint8, n)
		k.regX = make([]int64, n)
		k.regR = make([]int32, n)
		k.regRInf = make([]bool, n)
		k.regA = make([]uint8, n)
		k.regB = make([]uint8, n)
		k.present = make([]bool, n)
	} else {
		clear(k.r)
		clear(k.rInf)
		clear(k.a)
		clear(k.b)
		clear(k.regX)
		clear(k.regR)
		clear(k.regRInf)
		clear(k.regA)
		clear(k.regB)
		clear(k.present)
	}
	copyIDs(k.x, xs)
	return nil
}

func (k *fastKernel) Publish(i int32) {
	k.regX[i] = k.x[i]
	k.regR[i] = k.r[i]
	k.regRInf[i] = k.rInf[i]
	k.regA[i] = k.a[i]
	k.regB[i] = k.b[i]
	k.present[i] = true
}

func (k *fastKernel) Observe(i int32) (bool, int32) {
	n := int32(k.n)
	l, r := i-1, i+1
	if l < 0 {
		l = n - 1
	}
	if r == n {
		r = 0
	}
	// Coloring component (Algorithm 2 verbatim), mirroring core.Fast, with
	// the conflict sets as bitmasks (bit c ⇔ color c). Colors never exceed
	// 4 (Theorem 3.11), so every shift stays in range.
	var all, higher uint64
	x := k.x[i]
	lp, rp := k.present[l], k.present[r]
	if lp {
		m := uint64(1)<<k.regA[l] | uint64(1)<<k.regB[l]
		all |= m
		if k.regX[l] > x {
			higher |= m
		}
	}
	if rp {
		m := uint64(1)<<k.regA[r] | uint64(1)<<k.regB[r]
		all |= m
		if k.regX[r] > x {
			higher |= m
		}
	}
	if a := k.a[i]; all&(1<<a) == 0 {
		return true, int32(a)
	}
	if b := k.b[i]; all&(1<<b) == 0 {
		return true, int32(b)
	}
	k.a[i] = mexMask(higher)
	k.b[i] = mexMask(all)

	// Identifier-reduction component: waits for full neighborhood
	// information, exactly as core.Fast does for ⊥ neighbors.
	if k.rInf[i] || !lp || !rp {
		return false, 0
	}
	// Green light: r_p ≤ min{r_q, r_q'}, ∞ never blocks.
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
		// Interior of a monotone chain: Cole–Vishkin step against the
		// smaller neighbor.
		k.r[i]++
		if y := int64(cv.F(int(x), int(lo))); y < lo {
			k.x[i] = y
		}
	} else {
		// Local extremum: stop reducing forever; a local minimum dodges
		// the values its neighbors could reduce onto.
		k.rInf[i] = true
		if x < lo {
			// mex over the two values the neighbors could reduce onto.
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

func (k *fastKernel) Round(i int32) (bool, int32) {
	k.Publish(i)
	return k.Observe(i)
}

func (k *fastKernel) ValidOutput(c int32) bool { return c >= 0 && c < 5 }

func (k *fastKernel) BytesPerNode() int {
	return 8 + 4 + 1 + 1 + 1 + 8 + 4 + 1 + 1 + 1 + 1 // x r rInf a b regX regR regRInf regA regB present
}
