package ooc

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestTableMatchesMapOracle drives random put/insert/get/delete sequences
// against a map oracle, checking the length and the collision count
// after every operation. Real explorations cannot reach the corner cases
// (a lane-A collision needs ~2^32 states), so the keys are adversarial:
// 32 keys on 4 lane-A values, keys with distinct lane A but one home slot
// at every capacity, probe runs that wrap the table end, the all-zero
// key, and enough random keys that the table grows mid-sequence.
func TestTableMatchesMapOracle(t *testing.T) {
	const wrapLow = 1<<32 - 1 // home slot = last slot at every capacity ≤ 2^32
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lanes := []uint64{0, 5, 1<<40 | 5, ^uint64(0)}
		var keys []Key
		for i := 0; i < 32; i++ {
			keys = append(keys, Key{H1: lanes[rng.Intn(len(lanes))], H2: uint64(i + 1)})
		}
		for i := 0; i < 8; i++ {
			keys = append(keys, Key{H1: uint64(i+1) << 40, H2: rng.Uint64()})
			keys = append(keys, Key{H1: uint64(i)<<40 | wrapLow, H2: rng.Uint64()})
		}
		for i := 0; i < 48; i++ {
			keys = append(keys, Key{H1: rng.Uint64(), H2: rng.Uint64()})
		}
		keys = append(keys, Key{})

		var tb Table[int]
		oracle := map[Key]int{}
		collisions, grew := 0, false
		for op := 0; op < 6000; op++ {
			k := keys[rng.Intn(len(keys))]
			switch kind := rng.Intn(6); kind {
			case 0, 1, 2, 5: // insert-heavy, like a visited table
				stored, had := oracle[k]
				if !had {
					same := 0
					for o := range oracle {
						if o.H1 == k.H1 {
							same++
						}
					}
					if same == 1 {
						collisions++
					}
				}
				v := rng.Intn(1000)
				slots := len(tb.keys)
				if kind == 5 {
					// Insert keeps a stored value and returns it.
					got, added := tb.Insert(k, v)
					if added == had || (!had && got != v) || (had && got != stored) {
						t.Fatalf("seed=%d op=%d Insert(%v, %d) = (%d,%t), oracle (%d,%t)", seed, op, k, v, got, added, stored, had)
					}
					if had {
						v = stored
					}
				} else if added := tb.Put(k, v); added == had {
					t.Fatalf("seed=%d op=%d Put(%v) reported added=%t, oracle had it: %t", seed, op, k, added, had)
				}
				grew = grew || (slots > 0 && len(tb.keys) > slots)
				oracle[k] = v
			case 3:
				tb.Delete(k)
				delete(oracle, k)
			case 4:
				got, ok := tb.Get(k)
				want, wok := oracle[k]
				if ok != wok || got != want {
					t.Fatalf("seed=%d op=%d Get(%v) = (%d,%t), oracle (%d,%t)", seed, op, k, got, ok, want, wok)
				}
			}
			if tb.Len() != len(oracle) || tb.Collisions() != collisions {
				t.Fatalf("seed=%d op=%d after key %v: len=%d collisions=%d, oracle %d and %d",
					seed, op, k, tb.Len(), tb.Collisions(), len(oracle), collisions)
			}
		}
		for _, k := range keys {
			got, ok := tb.Get(k)
			want, wok := oracle[k]
			if ok != wok || got != want {
				t.Fatalf("seed=%d final Get(%v) = (%d,%t), oracle (%d,%t)", seed, k, got, ok, want, wok)
			}
		}
		if !grew {
			t.Fatalf("seed=%d: the table never grew mid-sequence", seed)
		}
	}
}

func TestTableBasic(t *testing.T) {
	var tb Table[int]
	a, b := Key{1, 10}, Key{2, 20}
	if _, ok := tb.Get(a); ok {
		t.Fatal("empty table reported a hit")
	}
	if !tb.Put(a, 100) || !tb.Put(b, 200) {
		t.Fatal("fresh keys not reported as added")
	}
	if v, ok := tb.Get(a); !ok || v != 100 {
		t.Fatalf("Get a = %d, %t", v, ok)
	}
	if tb.Len() != 2 || tb.Collisions() != 0 {
		t.Fatalf("len=%d collisions=%d", tb.Len(), tb.Collisions())
	}
	if tb.Put(a, 101) {
		t.Fatal("overwrite reported as added")
	}
	if v, _ := tb.Get(a); v != 101 || tb.Len() != 2 {
		t.Fatalf("overwrite: value %d, len %d", v, tb.Len())
	}
	tb.Delete(b)
	if _, ok := tb.Get(b); ok || tb.Len() != 1 {
		t.Fatal("delete failed")
	}
	tb.Delete(b) // idempotent
	if tb.Len() != 1 {
		t.Fatal("double delete decremented the length")
	}
}

// Three keys on one lane A: all retrievable, counted as one collision,
// and an unseen key on the same lane A misses instead of aliasing.
func TestTableLaneACollision(t *testing.T) {
	var tb Table[int]
	tb.Put(Key{7, 1}, 100)
	tb.Put(Key{7, 2}, 200)
	if tb.Collisions() != 1 {
		t.Fatalf("collisions = %d, want 1", tb.Collisions())
	}
	tb.Put(Key{7, 3}, 300)
	if tb.Collisions() != 1 {
		t.Fatalf("a third key on the lane recounted: collisions = %d", tb.Collisions())
	}
	for h2, want := range map[uint64]int{1: 100, 2: 200, 3: 300} {
		if v, ok := tb.Get(Key{7, h2}); !ok || v != want {
			t.Fatalf("Get(7,%d) = %d, %t (want %d)", h2, v, ok, want)
		}
	}
	if _, ok := tb.Get(Key{7, 4}); ok {
		t.Fatal("phantom hit for an unseen key on a shared lane A")
	}
	if tb.Len() != 3 {
		t.Fatalf("len = %d, want 3", tb.Len())
	}
}

// Deleting the first of two keys sharing a lane A (and so a probe run)
// must keep the second reachable; the deleted key can come back.
func TestTableSharedLaneDelete(t *testing.T) {
	var tb Table[int]
	tb.Put(Key{7, 1}, 100)
	tb.Put(Key{7, 2}, 200)
	tb.Delete(Key{7, 1})
	if _, ok := tb.Get(Key{7, 1}); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := tb.Get(Key{7, 2}); !ok || v != 200 {
		t.Fatal("deleting the first key of a run lost the second")
	}
	tb.Put(Key{7, 1}, 110)
	if v, ok := tb.Get(Key{7, 1}); !ok || v != 110 || tb.Len() != 2 {
		t.Fatalf("reinsertion: (%d,%t), len %d", v, ok, tb.Len())
	}
	tb.Delete(Key{7, 9}) // unseen key on the lane: a no-op
	if tb.Len() != 2 {
		t.Fatal("deleting an unseen key changed the length")
	}
}

// Reset empties the table and its collision count but keeps the
// capacity: refilling it to the same size allocates nothing, which is
// what lets one explorer serve every orbit of a sweep.
func TestTableResetKeepsCapacity(t *testing.T) {
	var tb Table[struct{}]
	rng := rand.New(rand.NewSource(1))
	keys := make([]Key, 1000)
	for i := range keys {
		keys[i] = Key{rng.Uint64(), rng.Uint64()}
		tb.Put(keys[i], struct{}{})
	}
	tb.Put(Key{keys[0].H1, 0}, struct{}{})
	tb.Reset()
	if tb.Len() != 0 || tb.Collisions() != 0 {
		t.Fatalf("after Reset: len=%d collisions=%d", tb.Len(), tb.Collisions())
	}
	if _, ok := tb.Get(keys[0]); ok {
		t.Fatal("a key survived Reset")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		if !tb.Put(k, struct{}{}) {
			t.Fatalf("refill: %v not added", k)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("refilling a reset table made %d allocations, want 0", n)
	}
}
