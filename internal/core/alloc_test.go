package core_test

// Allocation regressions on the real algorithm payloads: the engine's hot
// path (Step) and the model checker's fingerprint hashing must not allocate
// once warmed up, for every algorithm of the paper. These pin the scratch-
// buffer reuse in sim.Engine and the Hashable implementations here.

import (
	"testing"

	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/protocol"
	"asynccycle/internal/sim"
)

func warmEngine[V any](t *testing.T, nodes []sim.Node[V], n int) *sim.Engine[V] {
	t.Helper()
	e, err := sim.NewEngine(graph.MustCycle(n), nodes)
	if err != nil {
		t.Fatal(err)
	}
	e.Step([]int{0, 1, 2})
	return e
}

func assertStepZeroAllocs[V any](t *testing.T, e *sim.Engine[V], n int) {
	t.Helper()
	subset := make([]int, 1)
	step := 0
	if a := testing.AllocsPerRun(200, func() {
		subset[0] = step % n
		e.Step(subset)
		step++
	}); a != 0 {
		t.Errorf("warm Step allocates %v/op, want 0", a)
	}
}

func assertHashZeroAllocs[V any](t *testing.T, e *sim.Engine[V]) {
	t.Helper()
	if a := testing.AllocsPerRun(200, func() { e.FingerprintHash128() }); a != 0 {
		t.Errorf("FingerprintHash128 allocates %v/op, want 0", a)
	}
}

func TestStepAndHashZeroAllocs(t *testing.T) {
	// n large enough that 200 singleton activations terminate nobody's
	// whole neighborhood-dependent progress prematurely; even if some
	// processes finish, Step on a done process is a cheap no-op and the
	// zero-alloc assertion only gets easier.
	const n = 256
	xs := ids.MustGenerate(ids.Random, n, 5)
	t.Run("alg1-pair", func(t *testing.T) {
		e := warmEngine(t, core.NewPairNodes(xs), n)
		assertStepZeroAllocs(t, e, n)
		assertHashZeroAllocs(t, e)
	})
	t.Run("alg2-five", func(t *testing.T) {
		e := warmEngine(t, core.NewFiveNodes(xs), n)
		assertStepZeroAllocs(t, e, n)
		assertHashZeroAllocs(t, e)
	})
	t.Run("alg3-fast", func(t *testing.T) {
		e := warmEngine(t, core.NewFastNodes(xs), n)
		assertStepZeroAllocs(t, e, n)
		assertHashZeroAllocs(t, e)
	})
}

// workingOf lists e's working processes for an allocation pin to step in
// turn. Every run of a pin must perform a round: AllocsPerRun truncates
// its average, so a few idle runs would round one allocation per step
// down to 0.
func workingOf[V any](t *testing.T, e *sim.Engine[V]) []int {
	t.Helper()
	w := e.AppendWorking(nil)
	if len(w) == 0 {
		t.Fatal("no working process to step")
	}
	return w
}

// assertExpansionZeroAllocs pins one warm clone-and-step expansion:
// CloneInto a recycled engine, Step one process, key the child by its
// canonical fingerprint, then evaluate the registry's invariant, whose
// body is the protocol's contract over the engine's no-copy View. The
// model checker now expands in place (assertUndoExpansionZeroAllocs);
// the schedule fuzzer's clone-step leg still copies with CloneInto.
func assertExpansionZeroAllocs[V any](t *testing.T, name string, nodes []sim.Node[V]) {
	t.Helper()
	d, err := protocol.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustCycle(len(nodes))
	parent, err := sim.NewEngine(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	parent.Step([]int{1})
	parent.CanonicalFingerprintHash128()
	child := parent.Clone()
	working := workingOf(t, parent)
	set := make([]int, 1)
	step := 0
	if a := testing.AllocsPerRun(200, func() {
		parent.CloneInto(child)
		set[0] = working[step%len(working)]
		if len(child.Step(set)) != 1 {
			t.Fatal("the step performed no round")
		}
		child.CanonicalFingerprintHash128()
		if err := d.Contract.Safety(g, child.View()); err != nil {
			t.Fatal(err)
		}
		step++
	}); a != 0 {
		t.Errorf("warm expansion step allocates %v/op, want 0", a)
	}
}

func TestExpansionStepZeroAllocs(t *testing.T) {
	xs := []int{3, 0, 4, 1, 2}
	t.Run("six", func(t *testing.T) { assertExpansionZeroAllocs(t, "six", core.NewPairNodes(xs)) })
	t.Run("five", func(t *testing.T) { assertExpansionZeroAllocs(t, "five", core.NewFiveNodes(xs)) })
	t.Run("fast", func(t *testing.T) { assertExpansionZeroAllocs(t, "fast", core.NewFastNodes(xs)) })
}

// assertUndoExpansionZeroAllocs pins one warm step of the model checker's
// in-place DFS expansion: StepUndo one process into a reused undo record,
// key the child by its canonical fingerprint, evaluate the registry's
// invariant (the contract over View), then Undo.
func assertUndoExpansionZeroAllocs[V any](t *testing.T, name string, nodes []sim.Node[V]) {
	t.Helper()
	d, err := protocol.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustCycle(len(nodes))
	e, err := sim.NewEngine(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	e.Step([]int{1})
	e.CanonicalFingerprintHash128()
	var u sim.Undo[V]
	e.StepUndo([]int{0}, &u)
	e.Undo(&u)
	working := workingOf(t, e)
	set := make([]int, 1)
	step := 0
	if a := testing.AllocsPerRun(200, func() {
		set[0] = working[step%len(working)]
		if len(e.StepUndo(set, &u)) != 1 {
			t.Fatal("the step performed no round")
		}
		e.CanonicalFingerprintHash128()
		if err := d.Contract.Safety(g, e.View()); err != nil {
			t.Fatal(err)
		}
		e.Undo(&u)
		step++
	}); a != 0 {
		t.Errorf("warm in-place expansion step allocates %v/op, want 0", a)
	}
}

func TestUndoExpansionZeroAllocs(t *testing.T) {
	xs := []int{3, 0, 4, 1, 2}
	t.Run("six", func(t *testing.T) { assertUndoExpansionZeroAllocs(t, "six", core.NewPairNodes(xs)) })
	t.Run("five", func(t *testing.T) { assertUndoExpansionZeroAllocs(t, "five", core.NewFiveNodes(xs)) })
	t.Run("fast", func(t *testing.T) { assertUndoExpansionZeroAllocs(t, "fast", core.NewFastNodes(xs)) })
}

// TestHashMatchesFingerprintEquality spot-checks the Hashable contract on
// the real payloads: along an execution, configurations with equal string
// fingerprints hash equal, and distinct strings never collide on both
// lanes (a 128-bit collision within a few hundred states would mean an
// encoding that drops state).
func TestHashMatchesFingerprintEquality(t *testing.T) {
	const n = 8
	xs := ids.MustGenerate(ids.Increasing, n, 0)
	e, err := sim.NewEngine(graph.MustCycle(n), core.NewFastNodes(xs))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]uint64]string{}
	for step := 0; step < 300 && !e.AllSettled(); step++ {
		e.Step([]int{step % n, (step * 5) % n})
		h1, h2 := e.FingerprintHash128()
		s := e.Fingerprint()
		if prev, ok := seen[[2]uint64{h1, h2}]; ok && prev != s {
			t.Fatalf("128-bit collision between distinct configurations:\n%s\n%s", prev, s)
		}
		seen[[2]uint64{h1, h2}] = s
	}
}
