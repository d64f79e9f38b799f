package model_test

// Differential tests of the compact 128-bit hash checker against the exact
// string-keyed reference walks (reference_test.go): both must agree on the
// exhaustive facts — state counts, terminal counts, cycle existence — on
// real algorithm instances.

import (
	"reflect"
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
		strRep := model.RefExplore(fiveEngine(t, n), model.DefaultMaxDepth)
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

// TestExploreIgnoresWorkers pins that a single check is the serial DFS at
// any Workers: the report, budget trip included, is the serial one. The
// budget is twice the serial state count plus one, so a run that explored
// a state more than once against the budget would stop early.
func TestExploreIgnoresWorkers(t *testing.T) {
	opt := model.Options{MaxStates: 6989}
	serial := model.Explore(fiveEngine(t, 5), opt, nil)
	if !serial.Ok() || 2*serial.States+1 != opt.MaxStates {
		t.Fatalf("serial five on C5: %v; want a complete run of 3494 states", serial)
	}
	for _, workers := range []int{2, 4} {
		opt.Workers = workers
		if got := model.Explore(fiveEngine(t, 5), opt, nil); !reflect.DeepEqual(got, serial) {
			t.Errorf("Workers=%d:\ngot  %+v\nwant %+v", workers, got, serial)
		}
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
	ref := model.RefExplore(mk(), model.DefaultMaxDepth)
	if rep.States != ref.States {
		t.Errorf("state graph %v vs string reference %+v", rep, ref)
	}
	// The reference walk finds the livelock; every loop starves a process.
	if !ref.CycleFound || desc != "" {
		t.Errorf("greedy MIS on C3: reference cycle=%t, fair livelock %q; want an unfair-only livelock", ref.CycleFound, desc)
	}
}
