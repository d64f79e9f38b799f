package sim_test

import (
	"context"
	"errors"
	"testing"

	"asynccycle/internal/metrics"
	"asynccycle/internal/runctl"

	"asynccycle/internal/graph"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

// echoNode publishes a running counter and terminates after Rounds rounds,
// outputting the number of present neighbors it saw in its last round.
// It is the minimal probe for engine semantics.
type echoNode struct {
	Rounds  int
	count   int
	lastSaw int
}

func (e *echoNode) Publish() int { return e.count }

func (e *echoNode) Observe(view []sim.Cell[int]) sim.Decision {
	e.count++
	e.lastSaw = 0
	for _, c := range view {
		if c.Present {
			e.lastSaw++
		}
	}
	if e.count >= e.Rounds {
		return sim.Decision{Return: true, Output: e.lastSaw}
	}
	return sim.Decision{}
}

func (e *echoNode) Clone() sim.Node[int] {
	cp := *e
	return &cp
}

func newEchoNodes(n, rounds int) []sim.Node[int] {
	nodes := make([]sim.Node[int], n)
	for i := range nodes {
		nodes[i] = &echoNode{Rounds: rounds}
	}
	return nodes
}

// peekNode records the register values it reads each round, for asserting
// visibility semantics; it never terminates on its own.
type peekNode struct {
	id    int
	seen  [][]sim.Cell[int]
	value int
}

func (p *peekNode) Publish() int { return p.value }

func (p *peekNode) Observe(view []sim.Cell[int]) sim.Decision {
	cp := make([]sim.Cell[int], len(view))
	copy(cp, view)
	p.seen = append(p.seen, cp)
	p.value++
	return sim.Decision{}
}

func (p *peekNode) Clone() sim.Node[int] {
	cp := *p
	cp.seen = append([][]sim.Cell[int](nil), p.seen...)
	return &cp
}

func TestNewEngineValidates(t *testing.T) {
	g := graph.MustCycle(3)
	if _, err := sim.NewEngine(g, newEchoNodes(2, 1)); err == nil {
		t.Fatal("accepted wrong node count")
	}
}

func TestRegistersStartBottom(t *testing.T) {
	g := graph.MustCycle(3)
	e, err := sim.NewEngine(g, newEchoNodes(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if e.Register(i).Present {
			t.Errorf("register %d present before any activation", i)
		}
		if e.Output(i) != -1 {
			t.Errorf("output %d = %d before termination", i, e.Output(i))
		}
	}
}

func TestStepFiltersAndCounts(t *testing.T) {
	g := graph.MustCycle(3)
	e, _ := sim.NewEngine(g, newEchoNodes(3, 10))
	performed := e.Step([]int{0, 0, 2, -1, 99})
	if len(performed) != 2 || performed[0] != 0 || performed[1] != 2 {
		t.Fatalf("performed = %v, want [0 2]", performed)
	}
	if e.Activations(0) != 1 || e.Activations(1) != 0 || e.Activations(2) != 1 {
		t.Fatal("wrong activation counts")
	}
	if !e.Register(0).Present || e.Register(1).Present {
		t.Fatal("wrong register presence")
	}
}

func TestTerminatedNeverActivates(t *testing.T) {
	g := graph.MustCycle(3)
	e, _ := sim.NewEngine(g, newEchoNodes(3, 1)) // terminate on first round
	e.Step([]int{0})
	if !e.Done(0) {
		t.Fatal("node 0 should have terminated")
	}
	if performed := e.Step([]int{0}); len(performed) != 0 {
		t.Fatalf("terminated node activated: %v", performed)
	}
	if e.Activations(0) != 1 {
		t.Fatalf("activations = %d, want 1", e.Activations(0))
	}
}

func TestInterleavedVisibility(t *testing.T) {
	// In interleaved mode, when {0, 1} activate in one step, node 1 (run
	// second) sees node 0's write from this step.
	g := graph.MustCycle(3)
	nodes := []sim.Node[int]{&peekNode{id: 0}, &peekNode{id: 1}, &peekNode{id: 2}}
	e, _ := sim.NewEngine(g, nodes)
	e.Step([]int{0, 1})

	p1 := nodes[1].(*peekNode)
	// Node 1's neighbors are (0, 2): it must have seen node 0 present.
	saw0 := p1.seen[0][0]
	if !saw0.Present {
		t.Fatal("interleaved: node 1 did not see node 0's same-step write")
	}
}

func TestSimultaneousVisibility(t *testing.T) {
	// In simultaneous mode all writes land before any read: both see each
	// other's fresh value — and in particular node 0 sees node 1 present
	// even though node 1 "runs" later.
	g := graph.MustCycle(3)
	nodes := []sim.Node[int]{&peekNode{id: 0}, &peekNode{id: 1}, &peekNode{id: 2}}
	e, _ := sim.NewEngine(g, nodes)
	e.SetMode(sim.ModeSimultaneous)
	e.Step([]int{0, 1})

	p0 := nodes[0].(*peekNode)
	// Node 0's neighbors are (2, 1): node 1 must be present.
	found := false
	for _, c := range p0.seen[0] {
		if c.Present {
			found = true
		}
	}
	if !found {
		t.Fatal("simultaneous: node 0 did not see node 1's same-step write")
	}
}

func TestModeString(t *testing.T) {
	if sim.ModeInterleaved.String() != "interleaved" {
		t.Error("wrong interleaved name")
	}
	if sim.ModeSimultaneous.String() != "simultaneous" {
		t.Error("wrong simultaneous name")
	}
}

func TestCrashAfter(t *testing.T) {
	g := graph.MustCycle(3)
	e, _ := sim.NewEngine(g, newEchoNodes(3, 100))
	e.CrashAfter(1, 2)
	for i := 0; i < 5; i++ {
		e.Step([]int{0, 1, 2})
	}
	if !e.Crashed(1) {
		t.Fatal("node 1 did not crash")
	}
	if e.Activations(1) != 2 {
		t.Fatalf("crashed node performed %d rounds, want 2", e.Activations(1))
	}
	if e.Crashed(0) || e.Crashed(2) {
		t.Fatal("wrong nodes crashed")
	}
}

func TestCrashAtBirth(t *testing.T) {
	g := graph.MustCycle(3)
	e, _ := sim.NewEngine(g, newEchoNodes(3, 100))
	e.CrashAfter(2, 0)
	if e.Working(2) {
		t.Fatal("node with 0-round budget should be crashed immediately")
	}
	e.Step([]int{0, 1, 2})
	if e.Register(2).Present {
		t.Fatal("never-awake node's register must stay ⊥")
	}
}

func TestRunSynchronous(t *testing.T) {
	g := graph.MustCycle(4)
	e, _ := sim.NewEngine(g, newEchoNodes(4, 3))
	res, err := e.Run(schedule.Synchronous{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 3 {
		t.Errorf("steps = %d, want 3", res.Steps)
	}
	if res.TerminatedCount() != 4 {
		t.Errorf("terminated = %d, want 4", res.TerminatedCount())
	}
	if res.MaxActivations() != 3 {
		t.Errorf("max activations = %d, want 3", res.MaxActivations())
	}
	for i, out := range res.Outputs {
		if out != 2 { // both neighbors present from round 2 on
			t.Errorf("output %d = %d, want 2", i, out)
		}
	}
}

func TestRunStepLimit(t *testing.T) {
	g := graph.MustCycle(3)
	// Nodes that never terminate.
	e, _ := sim.NewEngine(g, []sim.Node[int]{&peekNode{}, &peekNode{}, &peekNode{}})
	_, err := e.Run(schedule.Synchronous{}, 10)
	if !errors.Is(err, sim.ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

// emptyScheduler returns no processes, modeling an adversary that abandons
// everyone immediately.
type emptyScheduler struct{}

func (emptyScheduler) Name() string                           { return "empty" }
func (emptyScheduler) Next(_ schedule.State, buf []int) []int { return buf }

func TestRunGivesUpOnEmptyScheduler(t *testing.T) {
	g := graph.MustCycle(3)
	e, _ := sim.NewEngine(g, newEchoNodes(3, 5))
	res, err := e.Run(emptyScheduler{}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Crashed {
		if !res.Crashed[i] {
			t.Errorf("node %d not crashed under empty scheduler", i)
		}
		if res.Done[i] {
			t.Errorf("node %d terminated without activations", i)
		}
	}
}

func TestResultSnapshotIsolation(t *testing.T) {
	g := graph.MustCycle(3)
	e, _ := sim.NewEngine(g, newEchoNodes(3, 2))
	res1 := e.Result()
	e.Step([]int{0, 1, 2})
	if res1.Activations[0] != 0 {
		t.Fatal("Result aliases engine state")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := graph.MustCycle(3)
	e, _ := sim.NewEngine(g, newEchoNodes(3, 3))
	e.Step([]int{0})
	c := e.Clone()
	if c.Fingerprint() != e.Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	c.Step([]int{1})
	if c.Fingerprint() == e.Fingerprint() {
		t.Fatal("stepping the clone changed nothing, or affected the original")
	}
	if e.Activations(1) != 0 {
		t.Fatal("stepping the clone affected the original")
	}
}

func TestFingerprintDistinguishesStates(t *testing.T) {
	g := graph.MustCycle(3)
	e1, _ := sim.NewEngine(g, newEchoNodes(3, 5))
	e2, _ := sim.NewEngine(g, newEchoNodes(3, 5))
	if e1.Fingerprint() != e2.Fingerprint() {
		t.Fatal("identical initial engines have different fingerprints")
	}
	e1.Step([]int{0})
	if e1.Fingerprint() == e2.Fingerprint() {
		t.Fatal("different states share a fingerprint")
	}
	e2.Step([]int{0})
	if e1.Fingerprint() != e2.Fingerprint() {
		t.Fatal("identical histories produced different fingerprints")
	}
}

func TestHooksObserveSteps(t *testing.T) {
	g := graph.MustCycle(3)
	e, _ := sim.NewEngine(g, newEchoNodes(3, 2))
	var calls []int
	e.AddHook(func(_ *sim.Engine[int], t int, activated []int) {
		calls = append(calls, len(activated))
	})
	e.Step([]int{0, 1})
	e.Step([]int{2})
	if len(calls) != 2 || calls[0] != 2 || calls[1] != 1 {
		t.Fatalf("hook calls = %v, want [2 1]", calls)
	}
}

func TestAllSettled(t *testing.T) {
	g := graph.MustCycle(3)
	e, _ := sim.NewEngine(g, newEchoNodes(3, 1))
	if e.AllSettled() {
		t.Fatal("settled before start")
	}
	e.Step([]int{0, 1})
	e.Crash(2)
	if !e.AllSettled() {
		t.Fatal("not settled with all done or crashed")
	}
	if e.AllDone() {
		t.Fatal("AllDone should be false with a crashed node")
	}
}

// TestInterleavedSubsetEqualsSingletonSequence verifies the equivalence
// the model checker's singleton-only exploration relies on: under
// ModeInterleaved, stepping a set {p1 < p2 < …} in one step reaches
// exactly the configuration of stepping p1, p2, … in separate steps.
func TestInterleavedSubsetEqualsSingletonSequence(t *testing.T) {
	g := graph.MustCycle(5)
	subsetEngine, _ := sim.NewEngine(g, newEchoNodes(5, 10))
	seqEngine, _ := sim.NewEngine(g, newEchoNodes(5, 10))

	plans := [][]int{{0, 2, 4}, {1, 3}, {0, 1, 2, 3, 4}, {2}, {4, 0}}
	for _, plan := range plans {
		subsetEngine.Step(plan)
		for _, p := range plan {
			seqEngine.Step([]int{p})
		}
		if subsetEngine.Fingerprint() != seqEngine.Fingerprint() {
			t.Fatalf("configurations diverge after subset %v", plan)
		}
	}
}

// TestSimultaneousSubsetDiffersFromSequence documents the converse: under
// ModeSimultaneous a joint step of two adjacent fresh processes is NOT
// expressible as singleton steps (each sees the other's same-step write).
func TestSimultaneousSubsetDiffersFromSequence(t *testing.T) {
	g := graph.MustCycle(3)
	joint, _ := sim.NewEngine(g, []sim.Node[int]{&peekNode{}, &peekNode{}, &peekNode{}})
	joint.SetMode(sim.ModeSimultaneous)
	joint.Step([]int{0, 1})

	seq, _ := sim.NewEngine(g, []sim.Node[int]{&peekNode{}, &peekNode{}, &peekNode{}})
	seq.SetMode(sim.ModeSimultaneous)
	seq.Step([]int{0})
	seq.Step([]int{1})

	p0Joint := joint.NodeState(0).(*peekNode)
	p0Seq := seq.NodeState(0).(*peekNode)
	// In the joint step, node 0 saw node 1 present; sequentially it saw ⊥.
	sawJoint := false
	for _, c := range p0Joint.seen[0] {
		if c.Present {
			sawJoint = true
		}
	}
	sawSeq := false
	for _, c := range p0Seq.seen[0] {
		if c.Present {
			sawSeq = true
		}
	}
	if !sawJoint || sawSeq {
		t.Fatalf("expected joint-visible/sequential-invisible writes; got joint=%t seq=%t", sawJoint, sawSeq)
	}
}

func TestRunOnCompleteGraph(t *testing.T) {
	// The engine is topology-generic: on K4 every node sees 3 neighbors.
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := sim.NewEngine(g, newEchoNodes(4, 2))
	res, err := e.Run(schedule.Synchronous{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outputs {
		if out != 3 {
			t.Errorf("output %d = %d, want 3 neighbors seen", i, out)
		}
	}
}

func TestRunBudgetCompletes(t *testing.T) {
	g := graph.MustCycle(4)
	e, _ := sim.NewEngine(g, newEchoNodes(4, 3))
	res, reason := e.RunBudget(nil, schedule.Synchronous{}, runctl.Budget{})
	if reason != runctl.StopNone {
		t.Fatalf("unbudgeted RunBudget stopped: %q", reason)
	}
	if res.TerminatedCount() != 4 {
		t.Fatalf("terminated = %d, want 4", res.TerminatedCount())
	}
}

func TestRunBudgetMaxSteps(t *testing.T) {
	g := graph.MustCycle(4)
	e, _ := sim.NewEngine(g, newEchoNodes(4, 100))
	res, reason := e.RunBudget(nil, schedule.Synchronous{}, runctl.Budget{MaxSteps: 5})
	if reason != runctl.StopMaxSteps {
		t.Fatalf("reason = %q, want %q", reason, runctl.StopMaxSteps)
	}
	if res.Steps != 5 {
		t.Fatalf("partial result at %d steps, want 5", res.Steps)
	}
	if res.TerminatedCount() != 0 {
		t.Fatalf("no process should have finished in 5 of 100 rounds")
	}
}

func TestRunBudgetMaxActivations(t *testing.T) {
	g := graph.MustCycle(4)
	e, _ := sim.NewEngine(g, newEchoNodes(4, 100))
	res, reason := e.RunBudget(nil, schedule.Synchronous{}, runctl.Budget{MaxActivations: 10})
	if reason != runctl.StopActivations {
		t.Fatalf("reason = %q, want %q", reason, runctl.StopActivations)
	}
	total := 0
	for _, a := range res.Activations {
		total += a
	}
	// The trip is detected between steps, so at most one extra step's worth
	// (4 rounds) beyond the budget may have executed.
	if total < 10 || total > 14 {
		t.Fatalf("total activations = %d, want within [10,14]", total)
	}
}

func TestRunBudgetCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := graph.MustCycle(4)
	e, _ := sim.NewEngine(g, newEchoNodes(4, 3))
	res, reason := e.RunBudget(ctx, schedule.Synchronous{}, runctl.Budget{})
	if reason != runctl.StopCancelled {
		t.Fatalf("reason = %q, want %q", reason, runctl.StopCancelled)
	}
	if res.Steps != 0 {
		t.Fatalf("pre-cancelled run took %d steps", res.Steps)
	}
}

func TestEngineMetricsPublishing(t *testing.T) {
	g := graph.MustCycle(4)
	e, _ := sim.NewEngine(g, newEchoNodes(4, 3))
	m := metrics.NewRun()
	e.SetMetrics(m)
	if _, err := e.Run(schedule.Synchronous{}, 100); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.Steps != 3 || s.Activations != 12 {
		t.Fatalf("metrics steps=%d acts=%d, want 3 and 12", s.Steps, s.Activations)
	}
	// Clones must not inherit the sink.
	before := m.Snapshot().Steps
	clone := e.Clone()
	clone.Step(nil)
	if got := m.Snapshot().Steps; got != before {
		t.Fatalf("clone published into parent metrics: steps %d -> %d", before, got)
	}
}
