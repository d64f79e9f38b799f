package sim_test

import (
	"testing"

	"asynccycle/internal/graph"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

// hashVal is a register value type implementing Hashable on the pointer
// receiver, as the interface's contract requires.
type hashVal struct {
	A, B int
}

func (v *hashVal) HashFingerprint(h *sim.FPHasher) {
	h.HashInt(v.A)
	h.HashInt(v.B)
}

// hashNode is a never-terminating counter node with an allocation-free
// Observe, the minimal payload for measuring the engine's own hot path.
type hashNode struct {
	x, seen int
}

func (n *hashNode) Publish() hashVal { return hashVal{A: n.x, B: n.seen} }

func (n *hashNode) Observe(view []sim.Cell[hashVal]) sim.Decision {
	n.x++
	for _, c := range view {
		if c.Present {
			n.seen += c.Val.A
		}
	}
	return sim.Decision{}
}

func (n *hashNode) Clone() sim.Node[hashVal] {
	cp := *n
	return &cp
}

func (n *hashNode) HashFingerprint(h *sim.FPHasher) {
	h.HashInt(n.x)
	h.HashInt(n.seen)
}

func newHashEngine(t testing.TB, n int) *sim.Engine[hashVal] {
	nodes := make([]sim.Node[hashVal], n)
	for i := range nodes {
		nodes[i] = &hashNode{x: i}
	}
	e, err := sim.NewEngine(graph.MustCycle(n), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFingerprintHashMatchesStringEquality(t *testing.T) {
	// Walk two engines through the same schedule: equal strings must give
	// equal hashes at every configuration. Then diverge them: different
	// strings should give different hashes (guaranteed here, not just
	// overwhelmingly likely, or the collision machinery would trigger —
	// either way the tables stay exact, but a collision in an 8-node toy
	// walk would indicate a broken encoding).
	a, b := newHashEngine(t, 8), newHashEngine(t, 8)
	for step := 0; step < 20; step++ {
		subset := []int{step % 8, (step * 3) % 8}
		a.Step(subset)
		b.Step(subset)
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("step %d: identical schedules, different strings", step)
		}
		ah1, ah2 := a.FingerprintHash128()
		bh1, bh2 := b.FingerprintHash128()
		if ah1 != bh1 || ah2 != bh2 {
			t.Fatalf("step %d: equal strings, unequal hashes", step)
		}
	}
	seen := map[[2]uint64]string{}
	for step := 0; step < 50; step++ {
		a.Step([]int{step % 8})
		h1, h2 := a.FingerprintHash128()
		s := a.Fingerprint()
		if prev, ok := seen[[2]uint64{h1, h2}]; ok && prev != s {
			t.Fatalf("hash collision between distinct configurations:\n%s\n%s", prev, s)
		}
		seen[[2]uint64{h1, h2}] = s
	}
}

func TestFingerprintHashIgnoresActivationCounts(t *testing.T) {
	// Fingerprint excludes activation counts and time; the hash must too.
	a, b := newHashEngine(t, 4), newHashEngine(t, 4)
	a.Step([]int{}) // no-op step: advances time only
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("no-op step changed the string fingerprint")
	}
	if a.FingerprintHash() != b.FingerprintHash() {
		t.Fatal("no-op step changed the hash fingerprint")
	}
}

func TestFingerprintHashZeroAllocs(t *testing.T) {
	e := newHashEngine(t, 64)
	for i := 0; i < 8; i++ {
		e.Step([]int{i, i + 8, i + 16})
	}
	if n := testing.AllocsPerRun(200, func() { e.FingerprintHash128() }); n != 0 {
		t.Fatalf("FingerprintHash128 allocates %v/op with Hashable nodes, want 0", n)
	}
}

func TestStepZeroAllocsWarm(t *testing.T) {
	e := newHashEngine(t, 64)
	subset := []int{0, 17, 42}
	e.Step(subset) // warm the scratch buffers
	step := 0
	if n := testing.AllocsPerRun(200, func() {
		subset[0] = step % 64
		subset[1] = (step * 7) % 64
		subset[2] = (step * 13) % 64
		e.Step(subset)
		step++
	}); n != 0 {
		t.Fatalf("warm Step allocates %v/op, want 0", n)
	}
}

// TestRunStepZeroAllocsWarm pins Run's loop: the scheduler appends into
// the engine's reused buffer, so a warm run's allocations (the Result
// snapshot) do not grow with its step count — a warm run step under
// schedule.Synchronous allocates nothing.
func TestRunStepZeroAllocsWarm(t *testing.T) {
	e := newHashEngine(t, 64)
	e.Step([]int{0}) // warm the scratch buffers
	run := func(steps int) float64 {
		return testing.AllocsPerRun(50, func() {
			e.RunBudget(nil, schedule.Synchronous{}, runctl.Budget{MaxSteps: e.Result().Steps + steps})
		})
	}
	run(64) // grow the scheduler buffer to the working set
	if one, many := run(1), run(64); many != one {
		t.Fatalf("a 64-step run allocates %v/op, a 1-step run %v/op: run steps allocate", many, one)
	}
}

func TestFPHasherWriteMatchesHashByte(t *testing.T) {
	var a, b sim.FPHasher
	a.Reset()
	b.Reset()
	payload := []byte("asynchronous cycle")
	if _, err := a.Write(payload); err != nil {
		t.Fatal(err)
	}
	for _, c := range payload {
		b.HashByte(c)
	}
	a1, a2 := a.Sum128()
	b1, b2 := b.Sum128()
	if a1 != b1 || a2 != b2 {
		t.Fatal("Write and HashByte disagree")
	}
}

func TestFPHasherLanesIndependent(t *testing.T) {
	// "ab" vs "ba" collide on neither lane; a pure-FNV second lane would be
	// a bug magnet, so pin that the lanes actually differ in structure.
	var h sim.FPHasher
	h.Reset()
	h.HashByte('a')
	h.HashByte('b')
	ab1, ab2 := h.Sum128()
	h.Reset()
	h.HashByte('b')
	h.HashByte('a')
	ba1, ba2 := h.Sum128()
	if ab1 == ba1 {
		t.Fatal("lane A ignores byte order")
	}
	if ab2 == ba2 {
		t.Fatal("lane B ignores byte order")
	}
}
