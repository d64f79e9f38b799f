// Canonical (rotation-minimal) configuration fingerprints. Rotating a
// configuration of the standard cycle C_n rotates its sequence of per-node
// digests, so the fingerprint of the least rotation of that sequence is
// shared by the whole rotation orbit, and the orbit size is the sequence's
// smallest period.
//
// The model checker keys states by the plain FingerprintHash128: with
// distinct identifiers, a rotated copy of a reachable configuration is
// not reachable on any instance the registry builds, so the least
// rotation merged no states (DESIGN.md §6). perfbench's tracer
// (perfbench/trace.go) is the only caller outside the tests; matching the
// tracer to the checker (ROADMAP item 1) removes it, and this file with it.
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
