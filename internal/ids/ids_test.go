package ids

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateAllAssignmentsValid(t *testing.T) {
	for _, a := range All() {
		for _, n := range []int{3, 4, 10, 100} {
			xs, err := Generate(a, n, 42)
			if err != nil {
				t.Fatalf("%s n=%d: %v", a, n, err)
			}
			if len(xs) != n {
				t.Fatalf("%s n=%d: got %d ids", a, n, len(xs))
			}
			if !Unique(xs) {
				t.Errorf("%s n=%d: identifiers not unique", a, n)
			}
			if !ProperOnCycle(xs) {
				t.Errorf("%s n=%d: identifiers not proper on cycle", a, n)
			}
		}
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate(Assignment(99), 5, 0); !errors.Is(err, ErrUnknownAssignment) {
		t.Errorf("err = %v, want ErrUnknownAssignment", err)
	}
	if _, err := Generate(Random, -1, 0); err == nil {
		t.Error("accepted negative n")
	}
}

func TestAssignmentString(t *testing.T) {
	if Random.String() != "random" {
		t.Errorf("Random.String() = %q", Random)
	}
	if got := Assignment(99).String(); got != "assignment(99)" {
		t.Errorf("unknown String() = %q", got)
	}
}

func TestIncreasing(t *testing.T) {
	xs := MustGenerate(Increasing, 5, 0)
	want := []int{1, 2, 3, 4, 5}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("Increasing = %v, want %v", xs, want)
		}
	}
	if got := LongestMonotoneChain(xs); got != 4 {
		t.Errorf("chain = %d, want 4", got)
	}
}

func TestDecreasing(t *testing.T) {
	xs := MustGenerate(Decreasing, 4, 0)
	if xs[0] != 4 || xs[3] != 1 {
		t.Errorf("Decreasing = %v", xs)
	}
	// The longest increasing chain in a decreasing cycle follows the other
	// direction: still n−1.
	if got := LongestMonotoneChain(xs); got != 3 {
		t.Errorf("chain = %d, want 3", got)
	}
}

func TestZigzagIsAllExtrema(t *testing.T) {
	xs := MustGenerate(Zigzag, 8, 0)
	n := len(xs)
	for i := range xs {
		prev, next := xs[(i+n-1)%n], xs[(i+1)%n]
		isMax := xs[i] > prev && xs[i] > next
		isMin := xs[i] < prev && xs[i] < next
		if !isMax && !isMin {
			t.Errorf("node %d (%v) is not a local extremum", i, xs)
		}
	}
	if got := LongestMonotoneChain(xs); got != 1 {
		t.Errorf("chain = %d, want 1", got)
	}
}

func TestSpacedIncreasingBitLengths(t *testing.T) {
	xs := MustGenerate(SpacedIncreasing, 16, 0)
	if xs[0] != 16 {
		t.Errorf("first = %d, want 16", xs[0])
	}
	if xs[15] != 256 {
		t.Errorf("last = %d, want 256", xs[15])
	}
}

func TestRandomIDsRangeAndSeedStability(t *testing.T) {
	a := RandomIDs(50, 7)
	b := RandomIDs(50, 7)
	c := RandomIDs(50, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different ids")
		}
		if a[i] < 0 || a[i] >= 50*50 {
			t.Fatalf("id %d outside [0, n²)", a[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical ids")
	}
}

func TestUnique(t *testing.T) {
	tests := []struct {
		xs   []int
		want bool
	}{
		{nil, true},
		{[]int{1, 2, 3}, true},
		{[]int{1, 1}, false},
		{[]int{-1, 2}, false},
	}
	for _, tt := range tests {
		if got := Unique(tt.xs); got != tt.want {
			t.Errorf("Unique(%v) = %t", tt.xs, got)
		}
	}

	// Random cases against a map oracle: duplicates planted at either end
	// or in the middle, negatives, huge values, and n = 0 or 1.
	oracle := func(xs []int) bool {
		seen := make(map[int]bool, len(xs))
		for _, x := range xs {
			if x < 0 || seen[x] {
				return false
			}
			seen[x] = true
		}
		return true
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(40)
		if trial%10 == 0 {
			n = trial / 10 % 2 // n = 0 or 1
		}
		xs := RandomIDs(n, int64(trial))
		switch trial % 5 {
		case 1: // a duplicate of the first id at the end
			if n > 1 {
				xs[n-1] = xs[0]
			}
		case 2: // a duplicate of the last id at the start
			if n > 1 {
				xs[0] = xs[n-1]
			}
		case 3: // a negative anywhere
			if n > 0 {
				xs[rng.Intn(n)] = -1 - rng.Intn(3)
			}
		case 4: // values from a tiny or a huge range: collisions, and the top of int
			for i := range xs {
				if rng.Intn(2) == 0 {
					xs[i] = rng.Intn(8)
				} else {
					xs[i] = int(^uint(0)>>1) - rng.Intn(8)
				}
			}
		}
		if got, want := Unique(xs), oracle(xs); got != want {
			t.Fatalf("Unique(%v) = %t, oracle %t", xs, got, want)
		}
	}
}

// TestRandomIDsStream pins RandomIDs's output stream by a SHA-256 over
// sizes and seeds: a change to the draws, to which draws are rejected as
// repeats, or to their order changes the digest. n = 2 draws from [0, 4)
// and exercises the reject path.
func TestRandomIDsStream(t *testing.T) {
	const want = "2c4786641416efc3fdc1f76dec7328bc4b544fab54f668cca61a3fb4c752831d"
	h := sha256.New()
	var buf [8]byte
	for _, n := range []int{1, 2, 3, 5, 17, 1000, 123457, 1000000} {
		for _, seed := range []int64{0, 1, 7777, -5} {
			for _, x := range RandomIDs(n, seed) {
				binary.LittleEndian.PutUint64(buf[:], uint64(x))
				h.Write(buf[:])
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("RandomIDs stream digest %s, want %s", got, want)
	}
}

var sinkIDs []int

func BenchmarkRandomIDs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkIDs = RandomIDs(1_000_000, int64(i))
	}
}

func TestProperOnCycle(t *testing.T) {
	tests := []struct {
		xs   []int
		want bool
	}{
		{[]int{1, 2}, false},          // too short
		{[]int{1, 2, 3}, true},        //
		{[]int{1, 2, 1, 2}, true},     // proper but not unique: allowed
		{[]int{1, 2, 2}, false},       // adjacent equal
		{[]int{1, 2, 1}, false},       // wraparound equal (xs[2] vs xs[0])
		{[]int{0, 1, 0, -1}, false},   // negative
		{[]int{5, 9, 5, 9, 5}, false}, // odd cycle wrap collision
	}
	for _, tt := range tests {
		if got := ProperOnCycle(tt.xs); got != tt.want {
			t.Errorf("ProperOnCycle(%v) = %t, want %t", tt.xs, got, tt.want)
		}
	}
}

func TestLongestMonotoneChainWrap(t *testing.T) {
	// The maximal increasing run crosses the seam: 1→4→5 at the end
	// continues with 6→7 at the start, 4 edges in total.
	xs := []int{6, 7, 1, 4, 5}
	if got := LongestMonotoneChain(xs); got != 4 {
		t.Errorf("chain = %d, want 4 (1→4→5→6→7)", got)
	}
}

func TestLongestMonotoneChainDegenerate(t *testing.T) {
	if got := LongestMonotoneChain([]int{5}); got != 0 {
		t.Errorf("single = %d", got)
	}
	if got := LongestMonotoneChain(nil); got != 0 {
		t.Errorf("nil = %d", got)
	}
}

// TestRandomIDsUniqueQuick: RandomIDs always yields distinct ids.
func TestRandomIDsUniqueQuick(t *testing.T) {
	prop := func(seed int64, rawN uint8) bool {
		n := int(rawN) % 200
		return Unique(RandomIDs(n, seed))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestChainBoundQuick: the longest monotone chain is at most n−1.
func TestChainBoundQuick(t *testing.T) {
	prop := func(seed int64, rawN uint8) bool {
		n := 3 + int(rawN)%100
		xs := RandomIDs(n, seed)
		c := LongestMonotoneChain(xs)
		return c >= 1 && c <= n-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
