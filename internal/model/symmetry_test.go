package model_test

// Differential tests of symmetry reduction: every verdict, worst-case
// vector and (orbit-weighted) count produced under -symmetry must match
// the unreduced checker exactly. Two regimes are covered:
//
//   - Distinct immutable identifiers (Five/Pair): rotations never merge
//     reachable states, so full-mode States equals the unreduced count and
//     WeightedStates is exactly n times it.
//   - Anonymous uniform nodes from a rotation-symmetric root: the
//     reachable set is closed under rotation, so full-mode WeightedStates
//     equals the unreduced States while States itself shrinks to the
//     orbit-representative count.

import (
	"fmt"
	"testing"

	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/model"
	"asynccycle/internal/sim"
)

func pairEngine(t testing.TB, n int) *sim.Engine[core.PairVal] {
	t.Helper()
	e, err := sim.NewEngine(graph.MustCycle(n), core.NewPairNodes(ids.MustGenerate(ids.Increasing, n, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// exploreOffVsFull runs Explore at SymmetryOff and SymmetryFull and checks
// the exact equivalences for a distinct-identifier instance.
func exploreOffVsFull[V any](t *testing.T, name string, mk func() *sim.Engine[V], opt model.Options) {
	t.Helper()
	off := model.Explore(mk(), opt, nil)
	opt.Symmetry = model.SymmetryFull
	full := model.Explore(mk(), opt, nil)
	if full.Symmetry != model.SymmetryFull {
		t.Errorf("%s: full-mode report says symmetry=%s (reduction did not engage)", name, full.Symmetry)
	}
	if off.CycleFound != full.CycleFound || off.Truncated != full.Truncated ||
		len(off.Violations) != len(full.Violations) {
		t.Errorf("%s: verdicts differ: off %v vs full %v", name, off, full)
	}
	if off.States != full.States || off.Terminal != full.Terminal {
		t.Errorf("%s: counts differ: off %v vs full %v", name, off, full)
	}
	n := mk().N()
	if want := int64(n) * int64(off.States); full.WeightedStates != want {
		t.Errorf("%s: weighted states %d, want n*states = %d", name, full.WeightedStates, want)
	}
	if off.WeightedStates != 0 || off.Symmetry != model.SymmetryOff {
		t.Errorf("%s: unreduced report not byte-identical to historical form: %v", name, off)
	}
}

func TestSymmetryFullEquivalenceExplore(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		n := n
		exploreOffVsFull(t, fmt.Sprintf("five C%d singletons", n),
			func() *sim.Engine[core.FiveVal] { return fiveEngine(t, n) },
			model.Options{SingletonsOnly: true})
		exploreOffVsFull(t, fmt.Sprintf("pair C%d singletons", n),
			func() *sim.Engine[core.PairVal] { return pairEngine(t, n) },
			model.Options{SingletonsOnly: true})
	}
	// Simultaneous full-subset semantics: stepping commutes with rotation,
	// so reduction stays sound (and engaged) for arbitrary activation sets.
	for _, n := range []int{3, 4} {
		n := n
		exploreOffVsFull(t, fmt.Sprintf("five C%d simultaneous", n),
			func() *sim.Engine[core.FiveVal] {
				e := fiveEngine(t, n)
				e.SetMode(sim.ModeSimultaneous)
				return e
			},
			model.Options{})
	}
}

func TestSymmetryInterleavedSubsetsFallsBack(t *testing.T) {
	// Interleaved multi-element activation sets execute in ascending index
	// order, which rotation does not preserve: the checker must silently
	// fall back to unreduced keying and say so in the report.
	e := fiveEngine(t, 3)
	rep := model.Explore(e, model.Options{Symmetry: model.SymmetryFull}, nil)
	if rep.Symmetry != model.SymmetryOff || rep.WeightedStates != 0 {
		t.Errorf("interleaved subsets: reduction engaged unsoundly: %v", rep)
	}
	off := model.Explore(fiveEngine(t, 3), model.Options{}, nil)
	if rep.States != off.States || rep.Terminal != off.Terminal {
		t.Errorf("fallback not byte-equivalent: %v vs %v", rep, off)
	}
}

func TestSymmetryFullAnonymousReduction(t *testing.T) {
	// Uniform stepNodes: the root is invariant under every rotation, so the
	// reachable set is rotation-closed and orbit weights must recover the
	// unreduced count exactly while the representative count shrinks.
	mk := func() *sim.Engine[int] {
		nodes := make([]sim.Node[int], 4)
		for i := range nodes {
			nodes[i] = &stepNode{Rounds: 3}
		}
		e, err := sim.NewEngine(graph.MustCycle(4), nodes)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	opt := model.Options{SingletonsOnly: true}
	off := model.Explore(mk(), opt, nil)
	opt.Symmetry = model.SymmetryFull
	full := model.Explore(mk(), opt, nil)
	if full.Symmetry != model.SymmetryFull {
		t.Fatalf("reduction did not engage: %v", full)
	}
	if full.WeightedStates != int64(off.States) {
		t.Errorf("weighted states %d, want unreduced count %d", full.WeightedStates, off.States)
	}
	if full.States >= off.States {
		t.Errorf("anonymous instance: full explored %d representatives, no fewer than unreduced %d",
			full.States, off.States)
	}
	if off.CycleFound != full.CycleFound || off.Truncated != full.Truncated {
		t.Errorf("verdicts differ: off %v vs full %v", off, full)
	}

	// loopNode: the minimal livelock must still be detected through the
	// quotient (the loop closes on a rotation of its start).
	loops := func() *sim.Engine[int] {
		return engineWith(t, []sim.Node[int]{loopNode{}, loopNode{}, loopNode{}})
	}
	offLoop := model.Explore(loops(), model.Options{SingletonsOnly: true}, nil)
	fullLoop := model.Explore(loops(), model.Options{SingletonsOnly: true, Symmetry: model.SymmetryFull}, nil)
	if !offLoop.CycleFound || !fullLoop.CycleFound {
		t.Errorf("livelock missed: off cycle=%t, full cycle=%t", offLoop.CycleFound, fullLoop.CycleFound)
	}
	if fullLoop.WeightedStates != int64(offLoop.States) {
		t.Errorf("loop instance: weighted %d, want %d", fullLoop.WeightedStates, offLoop.States)
	}
}

func TestSymmetryFullWorstEquivalence(t *testing.T) {
	type mkFn func() (vecOff []int, okOff bool, vecFull []int, okFull bool, repFull model.Report)
	cases := map[string]mkFn{}
	for _, n := range []int{3, 4, 5} {
		n := n
		cases[fmt.Sprintf("five-C%d", n)] = func() ([]int, bool, []int, bool, model.Report) {
			vo, oo, _ := model.WorstActivations(fiveEngine(t, n), model.Options{SingletonsOnly: true})
			vf, of, rf := model.WorstActivations(fiveEngine(t, n), model.Options{SingletonsOnly: true, Symmetry: model.SymmetryFull})
			return vo, oo, vf, of, rf
		}
		cases[fmt.Sprintf("pair-C%d", n)] = func() ([]int, bool, []int, bool, model.Report) {
			vo, oo, _ := model.WorstActivations(pairEngine(t, n), model.Options{SingletonsOnly: true})
			vf, of, rf := model.WorstActivations(pairEngine(t, n), model.Options{SingletonsOnly: true, Symmetry: model.SymmetryFull})
			return vo, oo, vf, of, rf
		}
	}
	for _, n := range []int{3, 4} {
		n := n
		mkFast := func() *sim.Engine[core.FastVal] {
			e, err := sim.NewEngine(graph.MustCycle(n), core.NewFastNodes(ids.MustGenerate(ids.Increasing, n, 0)))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		cases[fmt.Sprintf("fast-C%d", n)] = func() ([]int, bool, []int, bool, model.Report) {
			vo, oo, _ := model.WorstActivations(mkFast(), model.Options{SingletonsOnly: true})
			vf, of, rf := model.WorstActivations(mkFast(), model.Options{SingletonsOnly: true, Symmetry: model.SymmetryFull})
			return vo, oo, vf, of, rf
		}
	}
	for name, run := range cases {
		vecOff, okOff, vecFull, okFull, repFull := run()
		if okOff != okFull {
			t.Errorf("%s: ok flags differ: off %t vs full %t (%v)", name, okOff, okFull, repFull)
			continue
		}
		if len(vecOff) != len(vecFull) {
			t.Errorf("%s: vector lengths differ: %v vs %v", name, vecOff, vecFull)
			continue
		}
		for i := range vecOff {
			if vecOff[i] != vecFull[i] {
				t.Errorf("%s: worst-activation vectors differ: off %v vs full %v", name, vecOff, vecFull)
				break
			}
		}
		if repFull.Symmetry != model.SymmetryFull {
			t.Errorf("%s: reduction did not engage", name)
		}
	}
}

func TestSymmetryFullProgressEquivalence(t *testing.T) {
	// Negative instances: Five is obstruction-free and starvation-free on
	// small cycles, and the quotient analyzers must agree with unreduced.
	for _, n := range []int{3, 4} {
		offDesc, offRep := model.ObstructionFree(fiveEngine(t, n), model.Options{SingletonsOnly: true}, 10)
		fullDesc, fullRep := model.ObstructionFree(fiveEngine(t, n), model.Options{SingletonsOnly: true, Symmetry: model.SymmetryFull}, 10)
		if (offDesc == "") != (fullDesc == "") {
			t.Errorf("ObstructionFree C%d: verdicts differ: %q vs %q", n, offDesc, fullDesc)
		}
		if offRep.States != fullRep.States || fullRep.WeightedStates != int64(n)*int64(offRep.States) {
			t.Errorf("ObstructionFree C%d: off %v vs full %v", n, offRep, fullRep)
		}

		offFair, offFR := model.FairlyTerminates(fiveEngine(t, n), model.Options{SingletonsOnly: true})
		fullFair, fullFR := model.FairlyTerminates(fiveEngine(t, n), model.Options{SingletonsOnly: true, Symmetry: model.SymmetryFull})
		if (offFair == "") != (fullFair == "") {
			t.Errorf("FairlyTerminates C%d: verdicts differ: %q vs %q", n, offFair, fullFair)
		}
		if offFR.States != fullFR.States || fullFR.WeightedStates != int64(n)*int64(offFR.States) {
			t.Errorf("FairlyTerminates C%d: off %v vs full %v", n, offFR, fullFR)
		}
	}

	// Positive instance: uniform loopNodes livelock fairly (everyone is
	// activated forever); the quotient lift must still find the fair SCC.
	loops := func() *sim.Engine[int] {
		return engineWith(t, []sim.Node[int]{loopNode{}, loopNode{}, loopNode{}})
	}
	offDesc, _ := model.FairlyTerminates(loops(), model.Options{SingletonsOnly: true})
	fullDesc, fullRep := model.FairlyTerminates(loops(), model.Options{SingletonsOnly: true, Symmetry: model.SymmetryFull})
	if offDesc == "" || fullDesc == "" {
		t.Errorf("uniform livelock: fair-livelock verdicts: off %q, full %q (want both non-empty)", offDesc, fullDesc)
	}
	if fullRep.Symmetry != model.SymmetryFull || !fullRep.CycleFound {
		t.Errorf("uniform livelock: full report %v", fullRep)
	}
}

func TestSymmetryHashVsStringCanonical(t *testing.T) {
	opt := model.Options{SingletonsOnly: true, Symmetry: model.SymmetryFull}
	hashRep := model.Explore(fiveEngine(t, 4), opt, nil)
	strRep := model.RefExplore(fiveEngine(t, 4), true, model.DefaultMaxDepth)
	if hashRep.States != strRep.States || hashRep.WeightedStates != strRep.WeightedStates ||
		hashRep.Terminal != strRep.Terminal {
		t.Errorf("hash %v vs canonical string reference %+v", hashRep, strRep)
	}
}

// fiveSweep builds the per-assignment engine constructor for a sweep.
func fiveSweep(n int, mode sim.Mode) func(xs []int) (*sim.Engine[core.FiveVal], error) {
	return func(xs []int) (*sim.Engine[core.FiveVal], error) {
		e, err := sim.NewEngine(graph.MustCycle(n), core.NewFiveNodes(xs))
		if err != nil {
			return nil, err
		}
		e.SetMode(mode)
		return e, nil
	}
}

// fiveColoringInv rejects configurations where terminated neighbors share a
// color or a color escapes the 5-palette — relabel-invariant by
// construction, so violation counts fold exactly across orbits.
func fiveColoringInv(n int) model.Invariant[core.FiveVal] {
	return func(e *sim.Engine[core.FiveVal]) error {
		for i := 0; i < n; i++ {
			if !e.Done(i) {
				continue
			}
			c := e.Output(i)
			if c < 0 || c >= 5 {
				return fmt.Errorf("color out of palette")
			}
			if j := (i + 1) % n; e.Done(j) && e.Output(j) == c {
				return fmt.Errorf("monochromatic edge")
			}
		}
		return nil
	}
}

func TestSweepExploreEquivalence(t *testing.T) {
	n := 4
	factorial := 24
	opt := model.Options{SingletonsOnly: true}
	off, err := model.SweepExplore(n, fiveSweep(n, sim.ModeInterleaved), opt, fiveColoringInv(n))
	if err != nil {
		t.Fatal(err)
	}
	opt.Symmetry = model.SymmetryAssignments
	red, err := model.SweepExplore(n, fiveSweep(n, sim.ModeInterleaved), opt, fiveColoringInv(n))
	if err != nil {
		t.Fatal(err)
	}
	if off.Assignments != factorial || red.Assignments != factorial {
		t.Fatalf("assignment coverage: off %d, reduced %d, want %d", off.Assignments, red.Assignments, factorial)
	}
	if off.Runs != factorial {
		t.Errorf("unreduced sweep ran %d explorations, want %d", off.Runs, factorial)
	}
	if wantRuns := factorial / (2 * n); red.Runs != wantRuns {
		t.Errorf("reduced sweep ran %d explorations, want n!/(2n) = %d", red.Runs, wantRuns)
	}
	// Every weighted field must match bit-for-bit.
	if off.States != red.States || off.Terminal != red.Terminal ||
		off.CycleRuns != red.CycleRuns || off.Violations != red.Violations ||
		off.AllOk != red.AllOk || off.Partial != red.Partial {
		t.Errorf("weighted totals differ:\noff     %v\nreduced %v", off, red)
	}
	if !off.AllOk {
		t.Errorf("five C4 sweep not clean: %v", off)
	}
}

func TestSweepWorstEquivalence(t *testing.T) {
	n := 4
	opt := model.Options{SingletonsOnly: true}
	off, err := model.SweepWorstActivations(n, fiveSweep(n, sim.ModeInterleaved), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Symmetry = model.SymmetryAssignments
	red, err := model.SweepWorstActivations(n, fiveSweep(n, sim.ModeInterleaved), opt)
	if err != nil {
		t.Fatal(err)
	}
	if off.States != red.States || off.Terminal != red.Terminal || off.AllOk != red.AllOk {
		t.Errorf("weighted totals differ:\noff     %v\nreduced %v", off, red)
	}
	if off.MaxWorst != red.MaxWorst {
		t.Errorf("max worst differs: off %d vs reduced %d", off.MaxWorst, red.MaxWorst)
	}
	for i := range off.WorstPerProc {
		if off.WorstPerProc[i] != red.WorstPerProc[i] {
			t.Errorf("worst vectors differ: off %v vs reduced %v", off.WorstPerProc, red.WorstPerProc)
			break
		}
	}

	// Stacking within-run reduction on top must preserve the verdict fields
	// and the supremum vector; raw state counts legitimately shrink.
	opt.Symmetry = model.SymmetryFull
	full, err := model.SweepWorstActivations(n, fiveSweep(n, sim.ModeInterleaved), opt)
	if err != nil {
		t.Fatal(err)
	}
	if full.AllOk != off.AllOk || full.MaxWorst != off.MaxWorst {
		t.Errorf("full sweep verdict drifted: off %v vs full %v", off, full)
	}
	for i := range off.WorstPerProc {
		if off.WorstPerProc[i] != full.WorstPerProc[i] {
			t.Errorf("full sweep worst vector differs: off %v vs full %v", off.WorstPerProc, full.WorstPerProc)
			break
		}
	}
	// Five's identifiers are distinct and immutable, so within one run no
	// two reachable states are rotation-equivalent: the reduced
	// representative count can never exceed the unreduced count (and here
	// equals it — the payoff of SymmetryFull is on anonymous instances).
	if full.States > off.States {
		t.Errorf("full sweep explored %d weighted states, more than off %d", full.States, off.States)
	}
}

func TestSweepRejectsBadSizes(t *testing.T) {
	if _, err := model.SweepExplore(2, fiveSweep(2, sim.ModeInterleaved), model.Options{}, nil); err == nil {
		t.Error("n=2 sweep accepted")
	}
	if _, err := model.SweepExplore(9, fiveSweep(9, sim.ModeInterleaved), model.Options{}, nil); err == nil {
		t.Error("n=9 sweep accepted")
	}
}
