package ooc

// Table maps 128-bit Keys to values of type T by open addressing with
// linear probing from the low bits of lane A (the lanes are finalized, so
// those bits are uniform). Both lanes are the key: two configurations are
// conflated only on a full 128-bit collision. Keys and values live in
// separate arrays, so a set (T = struct{}) costs 16 bytes per slot. The
// capacity is a power of two, doubled whenever an insert lifts the load
// above one half; deletion shifts later entries of the probe run back
// instead of leaving tombstones. The zero Key marks an empty slot, so a
// stored zero Key lives out of band. The zero Table is empty and ready to
// use. Not safe for concurrent use.
type Table[T any] struct {
	keys    []Key // keys[i] is slot i's key; the zero Key marks it empty
	vals    []T   // vals[i] belongs to keys[i]
	n       int   // stored keys, the zero Key included
	hasZero bool  // the zero Key is stored, with value zeroVal
	zeroVal T

	// collisions counts inserts that found exactly one stored key with
	// the new key's lane A: the events a lane-A-only table could not have
	// told apart. Three keys on one lane A count once.
	collisions int
}

const minTableSlots = 16

// zeroSlot is find's slot for the out-of-band zero Key.
const zeroSlot = -1

// Len returns the number of stored keys.
func (t *Table[T]) Len() int { return t.n }

// Collisions returns the number of lane-A collisions seen by inserts since
// the table was created or last Reset.
func (t *Table[T]) Collisions() int { return t.collisions }

// Get returns the value stored under k.
func (t *Table[T]) Get(k Key) (T, bool) {
	slot, found, _ := t.find(k)
	switch {
	case !found:
		var zero T
		return zero, false
	case slot == zeroSlot:
		return t.zeroVal, true
	}
	return t.vals[slot], true
}

// Put stores v under k and reports whether k was new; an existing key's
// value is overwritten.
func (t *Table[T]) Put(k Key, v T) bool {
	slot, found, same := t.find(k)
	if !found {
		t.insertAt(slot, k, v, same)
		return true
	}
	if slot == zeroSlot {
		t.zeroVal = v
	} else {
		t.vals[slot] = v
	}
	return false
}

// Insert stores v under k unless k is stored already, and returns the
// value stored under k and whether k was new; an existing key's value is
// kept.
func (t *Table[T]) Insert(k Key, v T) (T, bool) {
	slot, found, same := t.find(k)
	switch {
	case !found:
		t.insertAt(slot, k, v, same)
		return v, true
	case slot == zeroSlot:
		return t.zeroVal, false
	}
	return t.vals[slot], false
}

// Delete removes k if it is stored.
func (t *Table[T]) Delete(k Key) {
	slot, found, _ := t.find(k)
	if !found {
		return
	}
	t.n--
	var zero T
	if slot == zeroSlot {
		t.hasZero, t.zeroVal = false, zero
		return
	}
	// Backward-shift deletion: walk the rest of the probe run and move
	// back every entry whose home slot does not lie between the hole and
	// its own slot, so no lookup ever stops early at the hole.
	mask := len(t.keys) - 1
	for j := (slot + 1) & mask; t.keys[j] != (Key{}); j = (j + 1) & mask {
		if (j-int(t.keys[j].H1))&mask >= (j-slot)&mask {
			t.keys[slot], t.vals[slot] = t.keys[j], t.vals[j]
			slot = j
		}
	}
	t.keys[slot], t.vals[slot] = Key{}, zero
}

// Reset empties the table and its collision count, keeping the capacity.
func (t *Table[T]) Reset() {
	clear(t.keys)
	clear(t.vals)
	var zero T
	t.n, t.hasZero, t.zeroVal, t.collisions = 0, false, zero, 0
}

// find returns k's slot and true when k is stored; otherwise the empty
// slot where inserting k belongs and false. The zero Key's slot is
// zeroSlot. same counts the stored keys with k's lane A met on the way:
// all of them when k is missing, since keys sharing lane A share a home
// slot and so a probe run.
func (t *Table[T]) find(k Key) (slot int, found bool, same int) {
	if t.hasZero && k.H1 == 0 && k.H2 != 0 {
		same++
	}
	if len(t.keys) == 0 {
		if k == (Key{}) {
			return zeroSlot, t.hasZero, same
		}
		return 0, false, same
	}
	mask := len(t.keys) - 1
	for i := int(k.H1) & mask; ; i = (i + 1) & mask {
		s := t.keys[i]
		switch {
		case s == (Key{}):
			if k == (Key{}) {
				return zeroSlot, t.hasZero, same
			}
			return i, false, same
		case s.H1 != k.H1:
		case s.H2 == k.H2:
			return i, true, same
		default:
			same++
		}
	}
}

// insertAt stores the missing key k at the slot find returned for it,
// with no change to the table in between, and counts a collision when
// exactly one stored key shared k's lane A.
func (t *Table[T]) insertAt(slot int, k Key, v T, same int) {
	if same == 1 {
		t.collisions++
	}
	t.n++
	if slot == zeroSlot {
		t.hasZero, t.zeroVal = true, v
		return
	}
	if len(t.keys) == 0 {
		t.keys, t.vals = make([]Key, minTableSlots), make([]T, minTableSlots)
		slot = int(k.H1) & (minTableSlots - 1)
	}
	t.keys[slot], t.vals[slot] = k, v
	if 2*t.n > len(t.keys) {
		t.grow()
	}
}

// grow doubles the capacity and reinserts every slotted key.
func (t *Table[T]) grow() {
	keys, vals := t.keys, t.vals
	t.keys, t.vals = make([]Key, 2*len(keys)), make([]T, 2*len(keys))
	mask := len(t.keys) - 1
	for j, k := range keys {
		if k == (Key{}) {
			continue
		}
		i := int(k.H1) & mask
		for t.keys[i] != (Key{}) {
			i = (i + 1) & mask
		}
		t.keys[i], t.vals[i] = k, vals[j]
	}
}
