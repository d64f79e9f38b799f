package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestAutomorphismsAreAutomorphisms: every element of D_n maps edges of C_n
// to edges, bijectively.
func TestAutomorphismsAreAutomorphisms(t *testing.T) {
	for n := 3; n <= 8; n++ {
		g := MustCycle(n)
		perms := CycleAutomorphisms(n)
		if len(perms) != 2*n {
			t.Fatalf("C%d: %d automorphisms, want %d", n, len(perms), 2*n)
		}
		for pi, p := range perms {
			seen := make([]bool, n)
			for _, v := range p {
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("C%d perm %d is not a bijection: %v", n, pi, p)
				}
				seen[v] = true
			}
			for _, e := range g.Edges() {
				if !g.Adjacent(p[e[0]], p[e[1]]) {
					t.Errorf("C%d perm %d maps edge %v to a non-edge", n, pi, e)
				}
			}
		}
	}
}

// TestDihedralGroupSize: for n ≥ 3 the 2n permutations are pairwise
// distinct, and the set is closed under composition (it is a group).
func TestDihedralGroupSize(t *testing.T) {
	for n := 3; n <= 7; n++ {
		perms := CycleAutomorphisms(n)
		set := make(map[string]bool)
		for _, p := range perms {
			set[fmt.Sprint(p)] = true
		}
		if len(set) != 2*n {
			t.Fatalf("D_%d has %d distinct elements, want %d", n, len(set), 2*n)
		}
		for _, p := range perms {
			for _, q := range perms {
				comp := make([]int, n)
				for i := range comp {
					comp[i] = p[q[i]]
				}
				if !set[fmt.Sprint(comp)] {
					t.Fatalf("D_%d not closed under composition: %v ∘ %v = %v", n, p, q, comp)
				}
			}
		}
	}
}

// TestCanonicalAssignment: the canonical form is in the orbit, is the
// minimum of the orbit, is idempotent, and is orbit-invariant; the orbit
// size divides 2n and the orbit sizes over all permutations of {1..n} sum
// to n!.
func TestCanonicalAssignment(t *testing.T) {
	for n := 3; n <= 6; n++ {
		total := 0
		reps := 0
		factorial := 1
		for i := 2; i <= n; i++ {
			factorial *= i
		}
		Permutations(n, func(xs []int) bool {
			canon, orbit := CanonicalAssignment(xs)
			if orbit <= 0 || (2*n)%orbit != 0 {
				t.Fatalf("n=%d xs=%v: orbit size %d does not divide %d", n, xs, orbit, 2*n)
			}
			// Canonical form is the lexicographic min over all images.
			inOrbit := false
			for _, p := range CycleAutomorphisms(n) {
				img := ApplyPerm(xs, p)
				if lessInts(img, canon) {
					t.Fatalf("n=%d xs=%v: image %v < canonical %v", n, xs, img, canon)
				}
				if reflect.DeepEqual(img, canon) {
					inOrbit = true
				}
				// Orbit-invariance: every image canonicalizes identically.
				c2, o2 := CanonicalAssignment(img)
				if !reflect.DeepEqual(c2, canon) || o2 != orbit {
					t.Fatalf("n=%d xs=%v image %v: canonical %v/%d, want %v/%d", n, xs, img, c2, o2, canon, orbit)
				}
			}
			if !inOrbit {
				t.Fatalf("n=%d xs=%v: canonical form %v not in orbit", n, xs, canon)
			}
			if IsCanonicalAssignment(xs) {
				reps++
				total += orbit
			}
			return true
		})
		if total != factorial {
			t.Errorf("n=%d: orbit sizes of representatives sum to %d, want %d!=%d", n, total, n, factorial)
		}
		// Distinct ranks have trivial stabilizer in D_n only up to the
		// reflection that fixes a vertex; the orbit count is n!/(2n) when
		// every orbit is full-sized, and ≥ n!/(2n) in general.
		if reps < factorial/(2*n) {
			t.Errorf("n=%d: %d representatives, want ≥ %d", n, reps, factorial/(2*n))
		}
	}
}

// canonicalAssignmentOracle is the map-based form CanonicalAssignment
// replaced: materialize all 2n images, keep the least, and count the
// distinct ones.
func canonicalAssignmentOracle(xs []int) ([]int, int) {
	n := len(xs)
	best := append([]int(nil), xs...)
	distinct := make(map[string]bool, 2*n)
	buf := make([]int, n)
	encode := func(v []int) string {
		b := make([]byte, 0, 4*n)
		for _, x := range v {
			b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
		}
		return string(b)
	}
	distinct[encode(xs)] = true
	for _, p := range CycleAutomorphisms(n) {
		for i := 0; i < n; i++ {
			buf[i] = xs[p[i]]
		}
		distinct[encode(buf)] = true
		if lessInts(buf, best) {
			copy(best, buf)
		}
	}
	return best, len(distinct)
}

// checkAgainstOracle compares CanonicalAssignment and
// IsCanonicalAssignment with the oracle on one assignment.
func checkAgainstOracle(t *testing.T, xs []int) {
	t.Helper()
	want, wantOrbit := canonicalAssignmentOracle(xs)
	got, orbit := CanonicalAssignment(xs)
	if !reflect.DeepEqual(got, want) || orbit != wantOrbit {
		t.Fatalf("xs=%v: CanonicalAssignment = %v/%d, oracle %v/%d", xs, got, orbit, want, wantOrbit)
	}
	if is := IsCanonicalAssignment(xs); is != reflect.DeepEqual(xs, want) {
		t.Fatalf("xs=%v: IsCanonicalAssignment = %t, oracle canonical form %v", xs, is, want)
	}
}

// TestCanonicalAssignmentMatchesOracle: the in-place canonicalization
// agrees with the map-based oracle on every permutation for n = 3…8 and on
// random assignments with repeated values (nontrivial stabilizers).
func TestCanonicalAssignmentMatchesOracle(t *testing.T) {
	for n := 3; n <= 8; n++ {
		Permutations(n, func(xs []int) bool {
			checkAgainstOracle(t, xs)
			return true
		})
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 20000; k++ {
		n := 3 + rng.Intn(6)
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(3)
		}
		checkAgainstOracle(t, xs)
	}
}

// TestIsCanonicalAssignmentAllocFree pins the sweep's per-permutation
// filter at zero allocations.
func TestIsCanonicalAssignmentAllocFree(t *testing.T) {
	xs := []int{3, 1, 4, 5, 2, 6}
	if allocs := testing.AllocsPerRun(100, func() { IsCanonicalAssignment(xs) }); allocs != 0 {
		t.Errorf("IsCanonicalAssignment allocates %.0f times per call", allocs)
	}
}

// lessInts is lexicographic < on equal-length int slices.
func lessInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TestPermutationsLexicographic: the enumeration yields exactly n! distinct
// permutations of {1..n} in strictly increasing lexicographic order, and
// stops early when f returns false.
func TestPermutationsLexicographic(t *testing.T) {
	var prev []int
	count := 0
	Permutations(4, func(xs []int) bool {
		if prev != nil && !lessInts(prev, xs) {
			t.Fatalf("not lexicographic: %v then %v", prev, xs)
		}
		prev = append(prev[:0], xs...)
		count++
		return true
	})
	if count != 24 {
		t.Fatalf("enumerated %d permutations of 4, want 24", count)
	}
	count = 0
	Permutations(5, func(xs []int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop after %d permutations, want 10", count)
	}
}

// TestIsStandardCycle: Cycle(n) is standard; shuffled neighbor orders,
// paths, complete graphs, and non-cycle topologies are not.
func TestIsStandardCycle(t *testing.T) {
	for n := 3; n <= 7; n++ {
		if !IsStandardCycle(MustCycle(n)) {
			t.Errorf("Cycle(%d) not recognized as standard", n)
		}
	}
	// Same cycle, neighbor lists in the opposite order: IsStandardCycle is
	// deliberately order-sensitive (rotation equivariance of ModeInterleaved
	// depends on the fixed [i-1, i+1] listing).
	rev := MustNew("C4-rev", [][]int{{1, 3}, {2, 0}, {3, 1}, {0, 2}})
	if IsStandardCycle(rev) {
		t.Error("reversed-order C4 misclassified as standard (neighbor order matters)")
	}
	p, _ := Path(5)
	if IsStandardCycle(p) {
		t.Error("P5 misclassified as a standard cycle")
	}
	k, _ := Complete(4)
	if IsStandardCycle(k) {
		t.Error("K4 misclassified as a standard cycle")
	}
	// A relabeled (but still cyclic) adjacency structure is a cycle yet not
	// the standard one.
	g := MustNew("C4-relabeled", [][]int{{2, 3}, {2, 3}, {0, 1}, {1, 0}})
	if !g.IsCycle() {
		t.Fatal("relabeled graph should still be a cycle")
	}
	if IsStandardCycle(g) {
		t.Error("relabeled C4 misclassified as standard")
	}
}
