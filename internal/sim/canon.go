// Canonical (rotation-minimal) configuration fingerprints. On the standard
// cycle C_n every rotation i ↦ i-k is a structural automorphism of the
// engine's transition system: neighbor lists keep their [i-1, i+1] order,
// so stepping the relabeled configuration is the relabeling of the stepped
// configuration, in both activation modes (singleton and simultaneous
// steps; interleaved multi-element sets execute in ascending index order
// and are *not* equivariant, which is why the model checker only enables
// canonicalization in configurations it has proven safe — see
// internal/model and DESIGN.md §6). Rotating a configuration rotates its
// sequence of per-node digests, so the fingerprint of the least rotation
// of that sequence is shared by the whole rotation orbit, and the orbit
// size is the sequence's smallest period.
//
// Reflections are deliberately excluded here: they reverse neighbor-list
// order, so they are automorphisms of the *algorithms* (which are
// order-insensitive) but not of the engine's fixed-order views. Assignment
// sweeps exploit the full dihedral group instead, at the level of initial
// identifier assignments (graph.CanonicalAssignment).
package sim

import "cmp"

// CanonicalFingerprintHash128 returns the fingerprint of the least
// rotation of the node-digest sequence — shared by every rotationally
// equivalent configuration — together with that rotation rot (the
// smallest k attaining the minimum; position j of the canonical frame
// carries process (j+rot) mod n) and the exact rotation-orbit size
// n/|stabilizer|, which is the sequence's smallest period.
//
// The rotations are compared directly on the cached digests: on hash
// words the first compared word almost always decides, so the expected
// cost is O(n) word comparisons plus one fold, without allocating.
func (e *Engine[V]) CanonicalFingerprintHash128() (h1, h2 uint64, rot, orbit int) {
	d := e.digests()
	n := len(d)
	orbit = n
	for k := 1; k < n; k++ {
		switch c := cmpRotations(d, k, rot); {
		case c < 0:
			rot = k
		case c == 0 && orbit == n:
			// The first tie is rot + p for the smallest period p: a tie
			// makes k-rot a period, and rotation rot+p ties rot, so no
			// earlier k can. By then rot covers a whole period, so it is
			// the global minimum and never moves again.
			orbit = k - rot
		}
	}
	h1, h2 = e.FingerprintHashRotated(rot)
	return h1, h2, rot, orbit
}

// cmpRotations compares the digest sequence rotated by k with the one
// rotated by r, lexicographically (lane A first, then lane B), returning
// -1, 0 or +1.
func cmpRotations(d []digest, k, r int) int {
	n := len(d)
	for j := 0; j < n; j++ {
		x, y := d[k], d[r]
		switch {
		case x.a != y.a:
			return cmp.Compare(x.a, y.a)
		case x.b != y.b:
			return cmp.Compare(x.b, y.b)
		}
		if k++; k == n {
			k = 0
		}
		if r++; r == n {
			r = 0
		}
	}
	return 0
}

// CanonicalFingerprintInfo is the exact string-mode counterpart of
// CanonicalFingerprintHash128: the lexicographically smallest rotated
// fingerprint, its argmin rotation, and the exact rotation-orbit size.
// It allocates (n string builds); the model checker never calls it, and
// the tests use it as the exact reference for the hashed canonical form.
func (e *Engine[V]) CanonicalFingerprintInfo() (fp string, rot, orbit int) {
	n := len(e.nodes)
	fp = e.FingerprintRotated(0)
	rot, mult := 0, 1
	for k := 1; k < n; k++ {
		s := e.FingerprintRotated(k)
		switch {
		case s < fp:
			fp, rot, mult = s, k, 1
		case s == fp:
			mult++
		}
	}
	return fp, rot, n / mult
}
