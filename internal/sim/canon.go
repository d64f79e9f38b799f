// Canonical (rotation-minimal) configuration fingerprints. On the standard
// cycle C_n every rotation i ↦ i-k is a structural automorphism of the
// engine's transition system: neighbor lists keep their [i-1, i+1] order,
// so stepping the relabeled configuration is the relabeling of the stepped
// configuration, in both activation modes (singleton and simultaneous
// steps; interleaved multi-element sets execute in ascending index order
// and are *not* equivariant, which is why the model checker only enables
// canonicalization in configurations it has proven safe — see
// internal/model and DESIGN.md §6). The canonical fingerprint is the
// minimum of the n rotated fingerprints: rotationally equivalent
// configurations collapse to a single key, with the orbit size recovered
// exactly from the multiplicity of the minimum.
//
// Reflections are deliberately excluded here: they reverse neighbor-list
// order, so they are automorphisms of the *algorithms* (which are
// order-insensitive) but not of the engine's fixed-order views. Assignment
// sweeps exploit the full dihedral group instead, at the level of initial
// identifier assignments (graph.CanonicalAssignment).
package sim

// CanonicalFingerprintHash128 returns the minimum over all n rotations of
// FingerprintHashRotated — a fingerprint shared by every rotationally
// equivalent configuration — together with the argmin rotation rot (the
// smallest k attaining the minimum; position j of the canonical frame
// carries process (j+rot) mod n) and the exact rotation-orbit size
// n/|stabilizer|, recovered from the multiplicity of the minimal hash.
//
// The n rotated hashes live in engine-owned scratch, so a warmed-up engine
// canonicalizes without allocating. Cost is n full fingerprint streams.
func (e *Engine[V]) CanonicalFingerprintHash128() (h1, h2 uint64, rot, orbit int) {
	n := len(e.nodes)
	if cap(e.rotH) < 2*n {
		e.rotH = make([]uint64, 2*n)
	}
	rh := e.rotH[:2*n]
	for k := 0; k < n; k++ {
		a, b := e.FingerprintHashRotated(k)
		rh[2*k], rh[2*k+1] = a, b
	}
	rot = 0
	for k := 1; k < n; k++ {
		if rh[2*k] < rh[2*rot] || (rh[2*k] == rh[2*rot] && rh[2*k+1] < rh[2*rot+1]) {
			rot = k
		}
	}
	mult := 0
	for k := 0; k < n; k++ {
		if rh[2*k] == rh[2*rot] && rh[2*k+1] == rh[2*rot+1] {
			mult++
		}
	}
	// The stabilizer is a subgroup of Z_n, so its order divides n; a lane
	// collision could in principle inflate mult, which integer division
	// absorbs rather than panicking over.
	return rh[2*rot], rh[2*rot+1], rot, n / mult
}

// CanonicalFingerprintInfo is the exact string-mode counterpart of
// CanonicalFingerprintHash128: the lexicographically smallest rotated
// fingerprint, its argmin rotation, and the exact rotation-orbit size.
// It allocates (n string builds); the model checker only uses it as the
// collision-resolution fallback.
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

// CanonicalFingerprint returns just the canonical string fingerprint.
func (e *Engine[V]) CanonicalFingerprint() string {
	fp, _, _ := e.CanonicalFingerprintInfo()
	return fp
}
