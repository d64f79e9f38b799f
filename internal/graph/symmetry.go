// Automorphisms of the cycle. C_n's automorphism group is the dihedral
// group D_n: n rotations and n reflections, 2n maps in total. The model
// checker quotients its sweeps over identifier assignments by this group
// (one representative per orbit, weighted by exact orbit size), and
// canonicalizes configuration fingerprints by the rotation subgroup — see
// internal/model and DESIGN.md §6 for the soundness split between the two
// uses.
package graph

// Rotations returns the n rotations of C_n as permutations: element k maps
// vertex i to (i+k) mod n. Element 0 is the identity.
func Rotations(n int) [][]int {
	out := make([][]int, n)
	for k := 0; k < n; k++ {
		p := make([]int, n)
		for i := 0; i < n; i++ {
			p[i] = (i + k) % n
		}
		out[k] = p
	}
	return out
}

// Reflections returns the n reflections of C_n as permutations: element k
// maps vertex i to (k-i) mod n (the reflection whose axis passes through
// vertex k/2).
func Reflections(n int) [][]int {
	out := make([][]int, n)
	for k := 0; k < n; k++ {
		p := make([]int, n)
		for i := 0; i < n; i++ {
			p[i] = ((k-i)%n + n) % n
		}
		out[k] = p
	}
	return out
}

// CycleAutomorphisms returns all 2n elements of D_n acting on C_n's
// vertices: the n rotations followed by the n reflections.
func CycleAutomorphisms(n int) [][]int {
	return append(Rotations(n), Reflections(n)...)
}

// ApplyPerm returns the image of the assignment xs under the automorphism
// p: out[i] = xs[p[i]], i.e. vertex i of the image carries the value that
// vertex p(i) carried before. Composing with the engine, running the image
// assignment is isomorphic to running xs on the relabeled cycle.
func ApplyPerm(xs, p []int) []int {
	out := make([]int, len(xs))
	for i := range out {
		out[i] = xs[p[i]]
	}
	return out
}

// CanonicalAssignment returns the lexicographically smallest image of xs
// under the dihedral group D_n (n = len(xs) ≥ 3), together with the exact
// orbit size — the number of distinct images among the 2n maps. Assignment
// sweeps keep only assignments equal to their canonical form and weight
// each by the orbit size, so reduced counts multiply back to the unreduced
// totals exactly.
//
// The 2n maps are pairwise distinct for n ≥ 3, so by the orbit-stabilizer
// theorem the orbit size is 2n divided by the number of maps that fix xs.
// Each image is compared with the running minimum in place; the only
// allocation is the returned copy.
func CanonicalAssignment(xs []int) ([]int, int) {
	n := len(xs)
	best := append([]int(nil), xs...)
	fixed := 0
	for g := 0; g < 2*n; g++ {
		if compareImage(xs, g, xs) == 0 {
			fixed++
		}
		if compareImage(xs, g, best) < 0 {
			for i := range best {
				best[i] = imageAt(xs, g, i)
			}
		}
	}
	return best, 2 * n / fixed
}

// IsCanonicalAssignment reports whether xs equals its own canonical form —
// i.e. xs is the orbit representative an assignment sweep keeps: no image
// of xs under D_n is lexicographically smaller. It allocates nothing.
func IsCanonicalAssignment(xs []int) bool {
	for g := 0; g < 2*len(xs); g++ {
		if compareImage(xs, g, xs) < 0 {
			return false
		}
	}
	return true
}

// imageAt is position i of xs's image under element g of D_n, numbered as
// CycleAutomorphisms numbers them: g < n is the rotation by g, g ≥ n the
// reflection k = g-n.
func imageAt(xs []int, g, i int) int {
	n := len(xs)
	if g < n {
		return xs[(i+g)%n]
	}
	return xs[((g-n-i)%n+n)%n]
}

// compareImage compares xs's image under g with ref lexicographically,
// returning -1, 0 or +1, without materializing the image.
func compareImage(xs []int, g int, ref []int) int {
	for i, r := range ref {
		if v := imageAt(xs, g, i); v != r {
			if v < r {
				return -1
			}
			return 1
		}
	}
	return 0
}

// IsStandardCycle reports whether g is the standard cycle built by Cycle(n):
// vertex i's neighbor list is exactly [(i-1) mod n, (i+1) mod n] in that
// order. Rotations preserve this neighbor-list order (the image of i's list
// is the list of the image vertex); the model checker's reduced sweeps
// refuse any other topology.
func IsStandardCycle(g Graph) bool {
	n := g.N()
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		nbrs := g.Neighbors(i)
		if len(nbrs) != 2 || nbrs[0] != (i+n-1)%n || nbrs[1] != (i+1)%n {
			return false
		}
	}
	return true
}

// Permutations calls f with every permutation of {1, …, n} in
// lexicographic order — the identifier-rank assignments an exhaustive sweep
// enumerates (only relative identifier order matters to the algorithms, so
// ranks cover all real identifier choices). f must not retain the slice.
// Returning false from f stops the enumeration early.
func Permutations(n int, f func(xs []int) bool) {
	xs := make([]int, n)
	used := make([]bool, n)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == n {
			return f(xs)
		}
		for v := 1; v <= n; v++ {
			if used[v-1] {
				continue
			}
			used[v-1] = true
			xs[k] = v
			if !rec(k + 1) {
				return false
			}
			used[v-1] = false
		}
		return true
	}
	rec(0)
}
