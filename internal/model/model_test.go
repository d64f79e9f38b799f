package model_test

import (
	"errors"
	"testing"

	"asynccycle/internal/graph"
	"asynccycle/internal/model"
	"asynccycle/internal/sim"
	"asynccycle/internal/stats"
)

// stepNode terminates after a fixed number of own rounds — a strictly
// wait-free toy with known exact worst case.
type stepNode struct {
	Rounds int
	count  int
}

func (s *stepNode) Publish() int { return s.count }

func (s *stepNode) Observe([]sim.Cell[int]) sim.Decision {
	s.count++
	if s.count >= s.Rounds {
		return sim.Decision{Return: true, Output: s.count}
	}
	return sim.Decision{}
}

func (s *stepNode) Clone() sim.Node[int] {
	cp := *s
	return &cp
}

// stubbornNode never terminates, but keeps changing state so every branch
// is a fresh configuration until the depth bound.
type stubbornNode struct{ count int }

func (s *stubbornNode) Publish() int { return s.count }

func (s *stubbornNode) Observe([]sim.Cell[int]) sim.Decision {
	s.count++
	return sim.Decision{}
}

func (s *stubbornNode) Clone() sim.Node[int] {
	cp := *s
	return &cp
}

// loopNode never terminates and never changes state: the minimal livelock.
type loopNode struct{}

func (loopNode) Publish() int                         { return 0 }
func (loopNode) Observe([]sim.Cell[int]) sim.Decision { return sim.Decision{} }
func (loopNode) Clone() sim.Node[int]                 { return loopNode{} }

func engineWith(t *testing.T, nodes []sim.Node[int]) *sim.Engine[int] {
	t.Helper()
	g := graph.MustCycle(len(nodes))
	e, err := sim.NewEngine(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExploreTerminatesCleanAlgorithm(t *testing.T) {
	nodes := []sim.Node[int]{&stepNode{Rounds: 2}, &stepNode{Rounds: 2}, &stepNode{Rounds: 2}}
	rep := model.Explore(engineWith(t, nodes), model.Options{SingletonsOnly: true}, nil)
	if !rep.Ok() {
		t.Fatalf("report not ok: %s", rep)
	}
	if rep.Terminal == 0 {
		t.Fatal("no terminal configurations found")
	}
	if rep.CycleFound {
		t.Fatal("cycle reported for a terminating algorithm")
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestExploreDetectsLivelock(t *testing.T) {
	nodes := []sim.Node[int]{loopNode{}, loopNode{}, loopNode{}}
	rep := model.Explore(engineWith(t, nodes), model.Options{SingletonsOnly: true}, nil)
	if !rep.CycleFound {
		t.Fatal("livelock not detected")
	}
	if rep.Ok() {
		t.Fatal("report claims ok despite livelock")
	}
}

func TestExploreDepthTruncation(t *testing.T) {
	nodes := []sim.Node[int]{&stubbornNode{}, &stubbornNode{}, &stubbornNode{}}
	rep := model.Explore(engineWith(t, nodes), model.Options{SingletonsOnly: true, MaxDepth: 5}, nil)
	if !rep.Truncated {
		t.Fatal("depth bound not reported as truncation")
	}
	if rep.DeepestPath != 5 {
		t.Errorf("deepest = %d, want 5", rep.DeepestPath)
	}
}

func TestExploreStateTruncation(t *testing.T) {
	nodes := []sim.Node[int]{&stubbornNode{}, &stubbornNode{}, &stubbornNode{}}
	rep := model.Explore(engineWith(t, nodes), model.Options{SingletonsOnly: true, MaxStates: 10}, nil)
	if !rep.Truncated {
		t.Fatal("state bound not reported as truncation")
	}
}

func TestExploreReportsInvariantViolations(t *testing.T) {
	nodes := []sim.Node[int]{&stepNode{Rounds: 2}, &stepNode{Rounds: 2}, &stepNode{Rounds: 2}}
	boom := errors.New("boom")
	calls, failed := 0, 0
	rep := model.Explore(engineWith(t, nodes), model.Options{SingletonsOnly: true},
		func(e *sim.Engine[int]) error {
			calls++
			if e.Done(0) {
				failed++
				return boom
			}
			return nil
		})
	if failed <= 8 || len(rep.Violations) != 8 {
		t.Fatalf("violations = %d of %d failing states, want capped at 8", len(rep.Violations), failed)
	}
	if calls != rep.States {
		t.Errorf("invariant called %d times for %d states", calls, rep.States)
	}
	if rep.Ok() {
		t.Fatal("report claims ok despite violations")
	}
}

func TestExploreSubsetsReachMoreStates(t *testing.T) {
	mk := func() []sim.Node[int] {
		return []sim.Node[int]{&stepNode{Rounds: 2}, &stepNode{Rounds: 2}, &stepNode{Rounds: 2}}
	}
	e1 := engineWith(t, mk())
	e1.SetMode(sim.ModeSimultaneous)
	full := model.Explore(e1, model.Options{}, nil)
	e2 := engineWith(t, mk())
	e2.SetMode(sim.ModeSimultaneous)
	single := model.Explore(e2, model.Options{SingletonsOnly: true}, nil)
	if full.States < single.States {
		t.Errorf("full subsets explored %d states < singletons %d", full.States, single.States)
	}
}

func TestWorstActivationsExact(t *testing.T) {
	// Each stepNode terminates at exactly its own 3rd round, under every
	// schedule: the worst case is exactly 3 for every process.
	nodes := []sim.Node[int]{&stepNode{Rounds: 3}, &stepNode{Rounds: 3}, &stepNode{Rounds: 3}}
	vec, ok, rep := model.WorstActivations(engineWith(t, nodes), model.Options{SingletonsOnly: true})
	if !ok {
		t.Fatalf("analysis inconclusive: %s", rep)
	}
	for i, v := range vec {
		if v != 3 {
			t.Errorf("worst[%d] = %d, want 3", i, v)
		}
	}
	if stats.MaxInt(vec) != 3 {
		t.Errorf("max = %d", stats.MaxInt(vec))
	}
}

func TestWorstActivationsDetectsUnbounded(t *testing.T) {
	nodes := []sim.Node[int]{loopNode{}, loopNode{}, loopNode{}}
	_, ok, rep := model.WorstActivations(engineWith(t, nodes), model.Options{SingletonsOnly: true})
	if ok {
		t.Fatal("claimed bounded activations for a livelocked algorithm")
	}
	if !rep.CycleFound {
		t.Error("cycle not reported")
	}
	if len(rep.CycleLoop) == 0 {
		t.Error("no replayable loop certificate")
	}
}

func TestOptionsDefaults(t *testing.T) {
	// Zero options must not hang or crash on a tiny instance.
	nodes := []sim.Node[int]{&stepNode{Rounds: 1}, &stepNode{Rounds: 1}, &stepNode{Rounds: 1}}
	rep := model.Explore(engineWith(t, nodes), model.Options{}, nil)
	if !rep.Ok() {
		t.Fatalf("default exploration failed: %s", rep)
	}
}
