// Package ids generates the identifier assignments the algorithms take as
// input: unique integers from a poly(n) range (paper §2.1). Besides uniform
// random assignments it provides the structured worst cases the analysis
// singles out — fully increasing identifiers around the cycle create the
// Θ(n) monotone chains that make Algorithm 2 slow (Remark 3.10), which is
// precisely what Algorithm 3's identifier reduction dismantles.
package ids

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
)

// Assignment names a reproducible identifier-generation strategy.
type Assignment int

const (
	// Random draws a uniform random set of n distinct identifiers from
	// [0, n²) — the "typical" poly(n) input.
	Random Assignment = iota + 1
	// Increasing assigns 1, 2, …, n in cycle order: one monotone chain of
	// length n−1, the worst case for Algorithms 1 and 2.
	Increasing
	// Decreasing assigns n, n−1, …, 1 in cycle order (the mirror worst
	// case).
	Decreasing
	// Zigzag alternates low and high identifiers, so every node is a local
	// extremum: the best case, with monotone chains of length 1.
	Zigzag
	// SpacedIncreasing is Increasing with identifiers spread to the top of
	// the n² range (n², 2n², … scaled within range): long monotone chains of
	// identifiers with many bits, maximizing Cole–Vishkin reduction work.
	SpacedIncreasing
)

var assignmentNames = map[Assignment]string{
	Random:           "random",
	Increasing:       "increasing",
	Decreasing:       "decreasing",
	Zigzag:           "zigzag",
	SpacedIncreasing: "spaced-increasing",
}

// String returns the assignment's name, e.g. "random".
func (a Assignment) String() string {
	if s, ok := assignmentNames[a]; ok {
		return s
	}
	return fmt.Sprintf("assignment(%d)", int(a))
}

// All lists every named assignment, for sweeps.
func All() []Assignment {
	return []Assignment{Random, Increasing, Decreasing, Zigzag, SpacedIncreasing}
}

// ErrUnknownAssignment is returned by Generate for an unrecognized strategy.
var ErrUnknownAssignment = errors.New("ids: unknown assignment")

// Generate produces n distinct non-negative identifiers per the strategy.
// Random (and only Random) consumes the seed.
func Generate(a Assignment, n int, seed int64) ([]int, error) {
	if n < 0 {
		return nil, fmt.Errorf("ids: negative n %d", n)
	}
	switch a {
	case Random:
		return RandomIDs(n, seed), nil
	case Increasing:
		out := make([]int, n)
		for i := range out {
			out[i] = i + 1
		}
		return out, nil
	case Decreasing:
		out := make([]int, n)
		for i := range out {
			out[i] = n - i
		}
		return out, nil
	case Zigzag:
		out := make([]int, n)
		for i := range out {
			if i%2 == 0 {
				out[i] = i + 1 // low band: 1, 3, 5, …
			} else {
				out[i] = n + i + 1 // high band: n+2, n+4, …
			}
		}
		return out, nil
	case SpacedIncreasing:
		out := make([]int, n)
		step := n // spread over [n, n²+n): still poly(n), with ~2·log n bits
		for i := range out {
			out[i] = (i + 1) * step
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownAssignment, int(a))
	}
}

// MustGenerate is Generate but panics on error; for statically valid inputs.
func MustGenerate(a Assignment, n int, seed int64) []int {
	out, err := Generate(a, n, seed)
	if err != nil {
		panic(err)
	}
	return out
}

// RandomIDs returns n distinct identifiers drawn uniformly from [0, n²)
// (or [0, 4) for n < 2, keeping the range nonempty), in random cycle order:
// the first n distinct draws, a repeated draw skipped.
func RandomIDs(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	rangeMax := n * n
	if rangeMax < 4 {
		rangeMax = 4
	}
	chosen := newIDSet(n)
	out := make([]int, 0, n)
	for len(out) < n {
		if x := rng.Intn(rangeMax); chosen.add(x) {
			out = append(out, x)
		}
	}
	return out
}

// Unique reports whether all identifiers are distinct and non-negative —
// the paper's global input precondition.
func Unique(xs []int) bool {
	seen := newIDSet(len(xs))
	for _, x := range xs {
		if x < 0 || !seen.add(x) {
			return false
		}
	}
	return true
}

// idSet is a set of non-negative ints in one flat open-addressing table
// with linear probing, kept at most half full. A slot holds x+1, so a zero
// slot is empty and a new table needs no fill.
type idSet struct {
	slots []uint64
	shift uint // 64 − log₂ len(slots): a hash's top bits index the table
}

// newIDSet returns an empty set with room for n members.
func newIDSet(n int) idSet {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return idSet{slots: make([]uint64, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// add inserts x ≥ 0 and reports whether it was absent.
func (s idSet) add(x int) bool {
	key := uint64(x) + 1
	mask := uint64(len(s.slots) - 1)
	// Fibonacci hashing: the multiply spreads consecutive and strided
	// identifiers over the table's top-bit index.
	for i := (key * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key
			return true
		case key:
			return false
		}
	}
}

// ProperOnCycle reports whether the assignment properly colors the n-cycle
// in its given order, i.e. consecutive values (cyclically) differ. Per
// Remark 3.10 this weaker precondition already suffices for Theorem 3.1.
func ProperOnCycle(xs []int) bool {
	n := len(xs)
	if n < 3 {
		return false
	}
	for i := range xs {
		if xs[i] < 0 || xs[i] == xs[(i+1)%n] {
			return false
		}
	}
	return true
}

// LongestMonotoneChain returns the length (edge count) of the longest
// sub-path of the cycle along which identifiers strictly increase. By
// Remark 3.10 this quantity governs the convergence time of Algorithms 1
// and 2.
func LongestMonotoneChain(xs []int) int {
	n := len(xs)
	if n < 2 {
		return 0
	}
	best := 0
	for dir := 0; dir < 2; dir++ { // both traversal directions
		run := 0
		// 2n steps to capture chains crossing the seam of the cycle.
		for i := 1; i < 2*n; i++ {
			var prev, cur int
			if dir == 0 {
				prev, cur = xs[(i-1)%n], xs[i%n]
			} else {
				prev, cur = xs[(2*n-i)%n], xs[(2*n-i-1)%n]
			}
			if cur > prev {
				run++
				if run > best {
					best = run
				}
				if run >= n { // fully monotone cycle is impossible; cap
					break
				}
			} else {
				run = 0
			}
		}
	}
	if best > n-1 {
		best = n - 1
	}
	return best
}

// Parse resolves an assignment strategy by its String name ("random",
// "increasing", …) — the dialect the CLIs and the job server share.
func Parse(s string) (Assignment, error) {
	for _, a := range All() {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("%w %q", ErrUnknownAssignment, s)
}
