package sim_test

import (
	"strings"
	"testing"

	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/sim"
)

// rotatedFive builds the Five engine carrying the rotation image of xs:
// position j holds identifier xs[(j+k) mod n].
func rotatedFive(t *testing.T, xs []int, k int, mode sim.Mode) *sim.Engine[core.FiveVal] {
	n := len(xs)
	ys := make([]int, n)
	for j := range ys {
		ys[j] = xs[(j+k)%n]
	}
	e, err := sim.NewEngine(graph.MustCycle(n), core.NewFiveNodes(ys))
	if err != nil {
		t.Fatal(err)
	}
	e.SetMode(mode)
	return e
}

// TestRotatedFingerprintMatchesRelabeledEngine is the structural
// equivariance fact the canonical fingerprint rests on: running the rotated
// assignment under the rotated schedule lands on exactly the configuration
// whose plain hash equals the original's rotated hash — for singleton steps
// and simultaneous multi-sets alike.
func TestRotatedFingerprintMatchesRelabeledEngine(t *testing.T) {
	xs := []int{3, 9, 1, 12, 6}
	n := len(xs)
	schedules := map[string]struct {
		mode  sim.Mode
		steps [][]int
	}{
		"singletons-interleaved": {sim.ModeInterleaved, [][]int{{0}, {2}, {2}, {4}, {1}, {0}, {3}}},
		"sets-simultaneous":      {sim.ModeSimultaneous, [][]int{{0, 2}, {1, 3, 4}, {0, 1, 2, 3, 4}, {2, 4}}},
	}
	for name, sc := range schedules {
		for k := 0; k < n; k++ {
			a := rotatedFive(t, xs, 0, sc.mode)
			b := rotatedFive(t, xs, k, sc.mode)
			for _, step := range sc.steps {
				a.Step(step)
				rot := make([]int, len(step))
				for i, p := range step {
					rot[i] = ((p-k)%n + n) % n
				}
				b.Step(rot)
			}
			ah1, ah2 := a.FingerprintHashRotated(k)
			bh1, bh2 := b.FingerprintHash128()
			if ah1 != bh1 || ah2 != bh2 {
				t.Errorf("%s k=%d: rotated hash (%x,%x) != relabeled engine hash (%x,%x)", name, k, ah1, ah2, bh1, bh2)
			}

			// Both engines are rotationally equivalent, so their canonical
			// fingerprints and orbit sizes coincide.
			ch1, ch2, _, aorb := a.CanonicalFingerprintHash128()
			dh1, dh2, _, borb := b.CanonicalFingerprintHash128()
			if ch1 != dh1 || ch2 != dh2 || aorb != borb {
				t.Errorf("%s k=%d: canonical hashes differ: (%x,%x,orbit=%d) vs (%x,%x,orbit=%d)",
					name, k, ch1, ch2, aorb, dh1, dh2, borb)
			}
		}
	}
}

// TestCanonicalOrbitSize pins the orbit size to the digest sequence's
// smallest period and rot to the smallest index attaining the least
// rotation: the rotations whose fingerprint equals the canonical one are
// exactly rot, rot+orbit, rot+2·orbit, … A step that breaks a symmetry
// makes the orbit full.
func TestCanonicalOrbitSize(t *testing.T) {
	cases := []struct {
		name  string
		xs    []int
		steps [][]int
		orbit int
	}{
		{"uniform C6", []int{7, 7, 7, 7, 7, 7}, nil, 1},
		{"uniform C6 after stepping node 0", []int{7, 7, 7, 7, 7, 7}, [][]int{{0}}, 6},
		{"period-2 C6", []int{1, 2, 1, 2, 1, 2}, nil, 2},
		{"period-2 C6 shifted", []int{2, 1, 2, 1, 2, 1}, nil, 2},
		{"period-2 C6 after a rotation-invariant step", []int{1, 2, 1, 2, 1, 2}, [][]int{{0, 2, 4}}, 2},
		{"period-3 C6", []int{3, 1, 2, 3, 1, 2}, nil, 3},
		{"distinct C6", []int{5, 0, 3, 1, 4, 2}, nil, 6},
		{"distinct C5", []int{3, 9, 1, 12, 6}, nil, 5},
		{"repeated but aperiodic C6", []int{1, 1, 2, 1, 1, 3}, nil, 6},
	}
	for _, tc := range cases {
		n := len(tc.xs)
		nodes := make([]sim.Node[hashVal], n)
		for i, x := range tc.xs {
			nodes[i] = &hashNode{x: x}
		}
		e, err := sim.NewEngine(graph.MustCycle(n), nodes)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range tc.steps {
			e.Step(s)
		}
		h1, h2, rot, orbit := e.CanonicalFingerprintHash128()
		if orbit != tc.orbit {
			t.Errorf("%s: orbit %d, want %d", tc.name, orbit, tc.orbit)
		}
		if tc.orbit == 1 && rot != 0 {
			t.Errorf("%s: rot %d, want 0 for a rotation-invariant configuration", tc.name, rot)
		}
		var ties []int
		for k := 0; k < n; k++ {
			if a, b := e.FingerprintHashRotated(k); a == h1 && b == h2 {
				ties = append(ties, k)
			}
		}
		checkTies(t, tc.name, n, rot, orbit, ties)
	}
}

// checkTies asserts that the rotations attaining a canonical fingerprint
// are exactly rot, rot+orbit, rot+2·orbit, …: n/orbit of them, the first
// being rot.
func checkTies(t *testing.T, name string, n, rot, orbit int, ties []int) {
	t.Helper()
	if len(ties) != n/orbit {
		t.Errorf("%s: %d rotations attain the canonical fingerprint, want n/orbit = %d", name, len(ties), n/orbit)
		return
	}
	for j, k := range ties {
		if k != rot+j*orbit {
			t.Errorf("%s: rot=%d orbit=%d, but the rotations attaining the minimum are %v", name, rot, orbit, ties)
			return
		}
	}
}

// constNode never changes state and never returns: stepping it changes the
// configuration only through the register-present flag and the activation
// counter, isolating exactly what the crash-limit fingerprint fix covers.
type constNode struct{}

func (constNode) Publish() int                              { return 0 }
func (constNode) Observe(view []sim.Cell[int]) sim.Decision { return sim.Decision{} }
func (constNode) Clone() sim.Node[int]                      { return constNode{} }
func (constNode) HashFingerprint(h *sim.FPHasher)           { h.HashByte('k') }

func constEngine(t *testing.T, n int) *sim.Engine[int] {
	nodes := make([]sim.Node[int], n)
	for i := range nodes {
		nodes[i] = constNode{}
	}
	e, err := sim.NewEngine(graph.MustCycle(n), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestFingerprintCrashLimitSensitivity is the regression for the checker
// soundness fix: without crash limits, activation counts stay excluded from
// fingerprints (the transition function ignores them — and recorded outputs
// stay byte-identical); with a CrashAfter limit armed, two configurations
// differing only in distance-to-crash must fingerprint differently, or the
// model checker's dedup would conflate states with different futures.
func TestFingerprintCrashLimitSensitivity(t *testing.T) {
	// Unlimited: acts differ, fingerprints agree.
	a, b := constEngine(t, 3), constEngine(t, 3)
	a.Step([]int{0})
	b.Step([]int{0})
	b.Step([]int{0}) // acts[0]=2 vs 1; same visible state
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("unlimited engines with equal visible state fingerprint differently:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
	ah1, ah2 := a.FingerprintHash128()
	bh1, bh2 := b.FingerprintHash128()
	if ah1 != bh1 || ah2 != bh2 {
		t.Fatal("unlimited engines with equal visible state hash differently")
	}
	if strings.Contains(a.Fingerprint(), " a=") {
		t.Fatalf("unlimited fingerprint leaks activation counts: %s", a.Fingerprint())
	}

	// Limited: the same two configurations are distinguishable — node 0 is
	// one activation from crashing in one and two in the other.
	c, d := constEngine(t, 3), constEngine(t, 3)
	c.CrashAfter(0, 3)
	d.CrashAfter(0, 3)
	c.Step([]int{0})
	d.Step([]int{0})
	d.Step([]int{0})
	if c.Fingerprint() == d.Fingerprint() {
		t.Fatalf("crash-limited engines with different distance-to-crash share a fingerprint: %s", c.Fingerprint())
	}
	ch1, ch2 := c.FingerprintHash128()
	dh1, dh2 := d.FingerprintHash128()
	if ch1 == dh1 && ch2 == dh2 {
		t.Fatal("crash-limited engines with different distance-to-crash share a hash")
	}
	if !strings.Contains(c.Fingerprint(), " a=1 l=3") {
		t.Fatalf("limited fingerprint lacks the acts/limit record: %s", c.Fingerprint())
	}
}

// TestCanonicalFingerprintAllocs pins the canonical hash to the zero-alloc
// warm path, like FingerprintHash128 before it.
func TestCanonicalFingerprintAllocs(t *testing.T) {
	e := newHashEngine(t, 6)
	e.Step([]int{0, 2, 4})
	e.CanonicalFingerprintHash128() // warm the rotation scratch
	if n := testing.AllocsPerRun(200, func() { e.CanonicalFingerprintHash128() }); n != 0 {
		t.Errorf("CanonicalFingerprintHash128 allocates %v per run, want 0", n)
	}
}
