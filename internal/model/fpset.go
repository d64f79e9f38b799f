package model

// Compact-fingerprint state tables. The checker's visited/onStack/memo maps
// used to key on Engine.Fingerprint() strings; every lookup therefore
// materialized (and then discarded) a large formatted string. This file
// replaces them with tables keyed on the 64-bit lane-A hash of
// Engine.FingerprintHash128, with lane B stored alongside each entry to
// *detect* lane-A collisions, and an exact full-string fallback map to
// *resolve* them — the classic explicit-state-checker compromise (compare
// SPIN's hash compaction), made exact rather than probabilistic.
//
// Exactness caveat: two distinct configurations whose full 128-bit
// fingerprints coincide are conflated. With independent 64-bit lanes the
// expected exploration size before such a collision is ~2^64 states, far
// beyond any bounded instance this checker can exhaust. The equivalence
// tests compare the checker against an exact string-keyed reachability
// walk (reference_test.go).

// stateKey identifies one configuration by its two hash lanes. Keys are
// comparable with ==.
type stateKey struct {
	h1, h2 uint64
}

// fpEntry is the primary occupant of one lane-A slot.
type fpEntry[T any] struct {
	h2       uint64 // lane B of the occupant, the collision detector
	val      T
	present  bool // false after deleting the occupant of a collided slot
	collided bool // other states share this lane-A value; they live in byStr
}

// fpMap maps configurations to values of type T, keyed by the compact
// fingerprint. The fast path touches only byHash (one uint64 key per
// state). The first time two distinct states collide on lane A — detected
// by differing lane B — the slot is marked collided and the newcomer (plus
// every later state on that lane-A value) is stored under its full string
// fingerprint in byStr; the original occupant keeps its slot, identified by
// its retained lane B, so its string never needs materializing.
type fpMap[T any] struct {
	byHash     map[uint64]fpEntry[T]
	byStr      map[string]T // exact fallback, nil until the first collision
	n          int          // live entries across both maps
	collisions int          // lane-A collisions detected so far
}

func newFPMap[T any]() *fpMap[T] {
	return &fpMap[T]{byHash: make(map[uint64]fpEntry[T])}
}

// get returns the value stored for the state (h1, h2). str() is invoked
// only when a recorded collision forces the exact fallback.
func (m *fpMap[T]) get(h1, h2 uint64, str func() string) (T, bool) {
	var zero T
	e, ok := m.byHash[h1]
	if !ok {
		return zero, false
	}
	if e.h2 == h2 {
		if !e.present {
			return zero, false
		}
		return e.val, true
	}
	if e.collided {
		v, ok := m.byStr[str()]
		return v, ok
	}
	return zero, false
}

// put inserts or overwrites the value for the state (h1, h2).
func (m *fpMap[T]) put(h1, h2 uint64, str func() string, val T) {
	e, ok := m.byHash[h1]
	if !ok {
		m.byHash[h1] = fpEntry[T]{h2: h2, val: val, present: true}
		m.n++
		return
	}
	if e.h2 == h2 {
		if !e.present {
			m.n++
		}
		e.val, e.present = val, true
		m.byHash[h1] = e
		return
	}
	// Lane-A collision between distinct states: mark the slot and route this
	// state through the exact string table.
	if !e.collided {
		e.collided = true
		m.byHash[h1] = e
		m.collisions++
	}
	if m.byStr == nil {
		m.byStr = make(map[string]T)
	}
	s := str()
	if _, dup := m.byStr[s]; !dup {
		m.n++
	}
	m.byStr[s] = val
}

// del removes the state (h1, h2) if present. A collided slot's occupant is
// blanked rather than deleted, so the collision marker survives.
func (m *fpMap[T]) del(h1, h2 uint64, str func() string) {
	e, ok := m.byHash[h1]
	if !ok {
		return
	}
	if e.h2 == h2 {
		if !e.present {
			return
		}
		if e.collided {
			var zero T
			e.val, e.present = zero, false
			m.byHash[h1] = e
		} else {
			delete(m.byHash, h1)
		}
		m.n--
		return
	}
	if e.collided {
		s := str()
		if _, ok := m.byStr[s]; ok {
			delete(m.byStr, s)
			m.n--
		}
	}
}

// length returns the number of live entries.
func (m *fpMap[T]) length() int { return m.n }
