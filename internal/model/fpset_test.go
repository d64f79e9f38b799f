package model

import "testing"

// The collision machinery can't be exercised by real explorations (a lane-A
// collision needs ~2^32 states), so these tests drive fpMap directly with
// synthetic keys sharing lane A.

func strOf(s string) func() string { return func() string { return s } }

func TestFPMapBasic(t *testing.T) {
	m := newFPMap[int]()
	if _, ok := m.get(1, 10, strOf("A")); ok {
		t.Fatal("empty map reported a hit")
	}
	m.put(1, 10, strOf("A"), 100)
	m.put(2, 20, strOf("B"), 200)
	if v, ok := m.get(1, 10, strOf("A")); !ok || v != 100 {
		t.Fatalf("get A = %d, %t", v, ok)
	}
	if m.length() != 2 || m.collisions != 0 {
		t.Fatalf("length=%d collisions=%d", m.length(), m.collisions)
	}
	m.put(1, 10, strOf("A"), 101) // overwrite
	if v, _ := m.get(1, 10, strOf("A")); v != 101 {
		t.Fatalf("overwrite lost: %d", v)
	}
	if m.length() != 2 {
		t.Fatalf("overwrite changed length: %d", m.length())
	}
	m.del(2, 20, strOf("B"))
	if _, ok := m.get(2, 20, strOf("B")); ok || m.length() != 1 {
		t.Fatal("delete failed")
	}
	m.del(2, 20, strOf("B")) // idempotent
	if m.length() != 1 {
		t.Fatal("double delete decremented length")
	}
}

func TestFPMapLaneACollision(t *testing.T) {
	// Three distinct states on the same lane-A value: the first keeps the
	// slot, the later two live in the exact string table.
	m := newFPMap[int]()
	m.put(7, 1, strOf("A"), 100)
	m.put(7, 2, strOf("B"), 200)
	if m.collisions != 1 {
		t.Fatalf("collisions = %d, want 1", m.collisions)
	}
	m.put(7, 3, strOf("C"), 300)
	if m.collisions != 1 {
		t.Fatalf("a second newcomer on the same slot recounted: collisions = %d", m.collisions)
	}
	if m.length() != 3 {
		t.Fatalf("length = %d, want 3", m.length())
	}
	for _, c := range []struct {
		h2   uint64
		str  string
		want int
	}{{1, "A", 100}, {2, "B", 200}, {3, "C", 300}} {
		if v, ok := m.get(7, c.h2, strOf(c.str)); !ok || v != c.want {
			t.Fatalf("get %s = %d, %t (want %d)", c.str, v, ok, c.want)
		}
	}
	// An unknown state on the collided slot must miss, not alias.
	if _, ok := m.get(7, 4, strOf("D")); ok {
		t.Fatal("phantom hit for an unseen state on a collided slot")
	}
}

func TestFPMapCollidedDelete(t *testing.T) {
	m := newFPMap[int]()
	m.put(7, 1, strOf("A"), 100)
	m.put(7, 2, strOf("B"), 200)

	// Deleting the slot's primary occupant must keep the collision marker,
	// or B (living in byStr) would become unreachable.
	m.del(7, 1, strOf("A"))
	if _, ok := m.get(7, 1, strOf("A")); ok {
		t.Fatal("deleted primary still present")
	}
	if v, ok := m.get(7, 2, strOf("B")); !ok || v != 200 {
		t.Fatal("deleting the primary lost the fallback resident")
	}
	if m.length() != 1 {
		t.Fatalf("length = %d, want 1", m.length())
	}

	// Reinsert the primary into its blanked slot.
	m.put(7, 1, strOf("A"), 110)
	if v, ok := m.get(7, 1, strOf("A")); !ok || v != 110 {
		t.Fatal("reinsertion into a blanked collided slot failed")
	}
	if m.length() != 2 {
		t.Fatalf("length = %d, want 2", m.length())
	}

	// Delete the fallback resident by string.
	m.del(7, 2, strOf("B"))
	if _, ok := m.get(7, 2, strOf("B")); ok || m.length() != 1 {
		t.Fatal("fallback delete failed")
	}
	// Deleting an unseen state on the collided slot is a no-op.
	m.del(7, 9, strOf("Z"))
	if m.length() != 1 {
		t.Fatal("no-op delete decremented length")
	}
}
