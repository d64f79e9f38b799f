package sim_test

import (
	"math"
	"math/rand"
	"testing"

	"asynccycle/internal/core"
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

// TestFingerprintLaneQuality is the quality gate for the word-wise lanes:
// 10⁵ distinct, structured small-int configurations — a Five engine on C5
// whose five registers each hold one of ten small (A, B) pairs, seeded
// through SeedRegisters — hashed through the real digest-and-fold path.
// Truncated to 20 bits (the low bits, which the visited tables and the
// out-of-core bloom probes mask, and separately the high bits), each lane
// must repeat keys as often as a uniform hash would: within 3σ of the
// birthday expectation, ≈4,620 with σ ≈ 64 for 10⁵ keys in 2²⁰ slots. The
// lane pair truncated to 20+20 bits expects ≈0.005 repeats and must show
// none, which correlated lanes would fail.
func TestFingerprintLaneQuality(t *testing.T) {
	const n, keys, bits = 5, 100_000, 20
	e, err := sim.NewEngine(graph.MustCycle(n), core.NewFiveNodes([]int{0, 1, 2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	const slots = 1 << bits
	const low = slots - 1
	type probe struct {
		name string
		key  func(h1, h2 uint64) uint64
		seen map[uint64]bool
		reps int
	}
	probes := []*probe{
		{name: "lane A low", key: func(h1, _ uint64) uint64 { return h1 & low }},
		{name: "lane A high", key: func(h1, _ uint64) uint64 { return h1 >> (64 - bits) }},
		{name: "lane B low", key: func(_, h2 uint64) uint64 { return h2 & low }},
		{name: "lane B high", key: func(_, h2 uint64) uint64 { return h2 >> (64 - bits) }},
		{name: "lane pair low", key: func(h1, h2 uint64) uint64 { return (h1&low)<<bits | h2&low }},
	}
	vals := make([]core.FiveVal, n)
	for c := 0; c < keys; c++ {
		for i, d := 0, c; i < n; i, d = i+1, d/10 {
			vals[i] = core.FiveVal{X: i, A: d % 10 % 5, B: d % 10 / 5}
		}
		if err := e.SeedRegisters(vals); err != nil {
			t.Fatal(err)
		}
		h1, h2 := e.FingerprintHash128()
		for _, p := range probes {
			if p.seen == nil {
				p.seen = make(map[uint64]bool, keys)
			}
			k := p.key(h1, h2)
			if p.seen[k] {
				p.reps++
			}
			p.seen[k] = true
		}
	}
	// Repeats are keys minus occupied slots; for N keys thrown uniformly
	// into M slots the occupied count has mean M(1-q₁) and variance
	// Mq₁ + M(M-1)q₂ - M²q₁², with q₁ = (1-1/M)^N and q₂ = (1-2/M)^N.
	N, M := float64(keys), float64(slots)
	q1, q2 := math.Pow(1-1/M, N), math.Pow(1-2/M, N)
	mean := N - M*(1-q1)
	sigma := math.Sqrt(M*q1 + M*(M-1)*q2 - M*M*q1*q1)
	for _, p := range probes[:4] {
		t.Logf("%s: %d repeated keys (uniform: %.0f ± %.0f)", p.name, p.reps, mean, sigma)
		if math.Abs(float64(p.reps)-mean) > 3*sigma {
			t.Errorf("%s: %d repeated keys, want %.0f ± 3·%.0f", p.name, p.reps, mean, sigma)
		}
	}
	if pair := probes[4]; pair.reps != 0 {
		t.Errorf("%s: %d repeated keys in 2^%d slots, want none", pair.name, pair.reps, 2*bits)
	}
}

// TestDigestCacheCoherence drives random schedules that also arm crash
// limits, crash processes, seed registers, abandon through an empty
// scheduler, step through StepUndo, and take a hashed StepUndo back with
// Undo. After every operation three engines in the same
// configuration must agree on both the plain and the canonical
// fingerprint: the engine with its cached digests, its CloneInto copy in a
// recycled engine (two engines alternate, so each copy lands on an engine
// two operations behind), and a freshly built engine that replays every
// operation and computes all its digests from scratch.
func TestDigestCacheCoherence(t *testing.T) {
	const n = 6
	xs := []int{4, 0, 5, 2, 1, 3}
	build := func() *sim.Engine[core.FiveVal] {
		e, err := sim.NewEngine(graph.MustCycle(n), core.NewFiveNodes(xs))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	type op func(*sim.Engine[core.FiveVal])
	rng := rand.New(rand.NewSource(1))
	kinds := map[string]int{}
	for trial := 0; trial < 200; trial++ {
		e, pool := build(), [2]*sim.Engine[core.FiveVal]{build(), build()}
		var ops []op
		for len(ops) < 40 && !e.AllSettled() {
			var o op
			switch i, r := rng.Intn(n), rng.Intn(12); {
			case r == 0:
				k := rng.Intn(3)
				o = func(e *sim.Engine[core.FiveVal]) { e.CrashAfter(i, e.Activations(i)+k) }
				kinds["CrashAfter"]++
			case r == 1:
				o = func(e *sim.Engine[core.FiveVal]) { e.Crash(i) }
				kinds["Crash"]++
			case r == 2:
				vals := make([]core.FiveVal, n)
				for j := range vals {
					vals[j] = core.FiveVal{X: xs[j], A: rng.Intn(3), B: rng.Intn(3)}
				}
				o = func(e *sim.Engine[core.FiveVal]) {
					if err := e.SeedRegisters(vals); err != nil {
						t.Fatal(err)
					}
				}
				kinds["SeedRegisters"]++
			case r == 3 && len(ops) > 5:
				o = func(e *sim.Engine[core.FiveVal]) { e.RunBudget(nil, emptyScheduler{}, runctl.Budget{}) }
				kinds["abandon"]++
			default:
				var set []int
				for j := 0; j < n; j++ {
					if j == i || rng.Intn(4) == 0 {
						set = append(set, j)
					}
				}
				switch r {
				case 4:
					o = func(e *sim.Engine[core.FiveVal]) { e.StepUndo(set, new(sim.Undo[core.FiveVal])) }
					kinds["StepUndo"]++
				case 5:
					// The stepped digests are cached, then taken back.
					o = func(e *sim.Engine[core.FiveVal]) {
						var u sim.Undo[core.FiveVal]
						e.StepUndo(set, &u)
						e.CanonicalFingerprintHash128()
						e.Undo(&u)
					}
					kinds["Undo"]++
				default:
					o = func(e *sim.Engine[core.FiveVal]) { e.Step(set) }
					kinds["Step"]++
				}
			}
			o(e)
			ops = append(ops, o)
			recycled := e.CloneInto(pool[len(ops)%2])
			fresh := build()
			for _, o := range ops {
				o(fresh)
			}
			if e.Fingerprint() != fresh.Fingerprint() {
				t.Fatalf("trial %d op %d: replay reached a different configuration", trial, len(ops))
			}
			want1, want2 := fresh.FingerprintHash128()
			wc1, wc2, wrot, worb := fresh.CanonicalFingerprintHash128()
			for name, x := range map[string]*sim.Engine[core.FiveVal]{"engine": e, "CloneInto copy": recycled} {
				if h1, h2 := x.FingerprintHash128(); h1 != want1 || h2 != want2 {
					t.Fatalf("trial %d op %d: %s fingerprint (%x,%x), fresh engine (%x,%x)", trial, len(ops), name, h1, h2, want1, want2)
				}
				if c1, c2, rot, orb := x.CanonicalFingerprintHash128(); c1 != wc1 || c2 != wc2 || rot != wrot || orb != worb {
					t.Fatalf("trial %d op %d: %s canonical fingerprint differs from the fresh engine's", trial, len(ops), name)
				}
			}
		}
	}
	for _, k := range []string{"Step", "CrashAfter", "Crash", "SeedRegisters", "abandon", "StepUndo", "Undo"} {
		if kinds[k] == 0 {
			t.Errorf("no %s operation was exercised", k)
		}
	}
	t.Logf("operations exercised: %v", kinds)
}
