package model_test

// Differential tests of the compact 128-bit hash checker against the exact
// string-keyed reference walks (reference_test.go), and of the two
// exploration strategies (serial DFS vs the parallel first-level
// frontier): all must agree on the exhaustive facts — state counts,
// terminal counts, cycle existence — on real algorithm instances.

import (
	"testing"

	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/mis"
	"asynccycle/internal/model"
	"asynccycle/internal/sim"
)

func fiveEngine(t testing.TB, n int) *sim.Engine[core.FiveVal] {
	t.Helper()
	e, err := sim.NewEngine(graph.MustCycle(n), core.NewFiveNodes(ids.MustGenerate(ids.Increasing, n, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExploreHashVsStringEquivalence(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		hashRep := model.Explore(fiveEngine(t, n), model.Options{SingletonsOnly: true}, nil)
		strRep := model.RefExplore(fiveEngine(t, n), false, model.DefaultMaxDepth)
		if hashRep.States != strRep.States || hashRep.Terminal != strRep.Terminal ||
			hashRep.CycleFound != strRep.CycleFound || hashRep.Truncated != strRep.Truncated ||
			hashRep.DeepestPath != strRep.DeepestPath {
			t.Errorf("C%d: hash %v vs string reference %+v", n, hashRep, strRep)
		}
		if hashRep.HashCollisions != 0 {
			t.Errorf("C%d: %d lane-A collisions on a toy instance", n, hashRep.HashCollisions)
		}
	}
}

func TestExploreWorkersEquivalence(t *testing.T) {
	// DeepestPath is deliberately not compared: workers have private
	// visited sets, so a worker may walk a state via a longer path that the
	// serial DFS had already cut off.
	for _, n := range []int{3, 4, 5} {
		serial := model.Explore(fiveEngine(t, n), model.Options{SingletonsOnly: true}, nil)
		par := model.Explore(fiveEngine(t, n), model.Options{SingletonsOnly: true, Workers: 4}, nil)
		if serial.States != par.States || serial.Terminal != par.Terminal ||
			serial.CycleFound != par.CycleFound || serial.Truncated != par.Truncated {
			t.Errorf("C%d: serial %v vs workers=4 %v", n, serial, par)
		}
	}
}

func TestExploreWorkersViolationDedup(t *testing.T) {
	// Every terminal state violates; the parallel merge must count each
	// violating state once even though several workers reach it.
	inv := func(e *sim.Engine[core.FiveVal]) error {
		if e.AllDone() {
			return errAllDone
		}
		return nil
	}
	opt := model.Options{SingletonsOnly: true, MaxViolations: 1 << 20}
	serial := model.Explore(fiveEngine(t, 4), opt, inv)
	opt.Workers = 4
	par := model.Explore(fiveEngine(t, 4), opt, inv)
	if len(serial.Violations) != serial.Terminal {
		t.Fatalf("serial: %d violations for %d terminal states", len(serial.Violations), serial.Terminal)
	}
	if len(par.Violations) != len(serial.Violations) {
		t.Errorf("workers=4 recorded %d violations, serial %d", len(par.Violations), len(serial.Violations))
	}
	if par.ViolationWitness == nil {
		t.Error("parallel merge dropped the violation witness")
	}
}

var errAllDone = errTerminal{}

type errTerminal struct{}

func (errTerminal) Error() string { return "terminal state reached" }

func TestExploreWorkersFindCycle(t *testing.T) {
	// Greedy MIS livelocks on C3; the parallel frontier must find a cycle
	// too, and its certificate must replay to an actual loop.
	mk := func() *sim.Engine[mis.Val] {
		e, err := sim.NewEngine(graph.MustCycle(3), mis.NewGreedyNodes([]int{0, 1, 2}))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	serial := model.Explore(mk(), model.Options{SingletonsOnly: true}, nil)
	par := model.Explore(mk(), model.Options{SingletonsOnly: true, Workers: 4}, nil)
	if !serial.CycleFound || !par.CycleFound {
		t.Fatalf("cycle: serial %t, workers=4 %t", serial.CycleFound, par.CycleFound)
	}
	if serial.States != par.States {
		t.Errorf("states: serial %d, workers=4 %d", serial.States, par.States)
	}
	// Replay the parallel certificate: prefix reaches a configuration from
	// which the loop returns to itself.
	e := mk()
	for _, s := range par.CyclePrefix {
		e.Step(s)
	}
	before := e.Fingerprint()
	if len(par.CycleLoop) == 0 {
		t.Fatal("empty cycle loop")
	}
	for _, s := range par.CycleLoop {
		e.Step(s)
	}
	if e.Fingerprint() != before {
		t.Error("cycle certificate does not replay to a loop")
	}
}

func TestWorstActivationsHashVsString(t *testing.T) {
	for _, n := range []int{3, 4} {
		vecH, okH, repH := model.WorstActivations(fiveEngine(t, n), model.Options{SingletonsOnly: true})
		vecS, statesS, okS := model.RefWorst(fiveEngine(t, n))
		if okH != okS || repH.States != statesS {
			t.Fatalf("C%d: hash (ok=%t, %v) vs string reference (ok=%t, states=%d)", n, okH, repH, okS, statesS)
		}
		for i := range vecH {
			if vecH[i] != vecS[i] {
				t.Errorf("C%d: worst-case vectors differ: %v vs %v", n, vecH, vecS)
				break
			}
		}
	}
}

func TestFairlyTerminatesHashVsString(t *testing.T) {
	mk := func() *sim.Engine[mis.Val] {
		e, err := sim.NewEngine(graph.MustCycle(3), mis.NewGreedyNodes([]int{0, 1, 2}))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	desc, rep := model.FairlyTerminates(mk(), model.Options{SingletonsOnly: true})
	ref := model.RefExplore(mk(), false, model.DefaultMaxDepth)
	if rep.States != ref.States {
		t.Errorf("state graph %v vs string reference %+v", rep, ref)
	}
	// The reference walk finds the livelock; every loop starves a process.
	if !ref.CycleFound || desc != "" {
		t.Errorf("greedy MIS on C3: reference cycle=%t, fair livelock %q; want an unfair-only livelock", ref.CycleFound, desc)
	}
}
