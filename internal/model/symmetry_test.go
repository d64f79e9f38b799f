package model_test

// Differential tests of symmetry reduction. A reduced sweep's weighted
// counts, verdicts and worst-case vectors must match the unreduced sweep
// exactly, and a single check must ignore Options.Symmetry altogether.

import (
	"fmt"
	"reflect"
	"testing"

	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/model"
	"asynccycle/internal/sim"
)

// TestSingleCheckIgnoresSymmetry: Symmetry reduces sweeps only. Every
// single-check analyzer returns at SymmetryFull exactly what it returns
// at SymmetryOff, here on five in simultaneous mode, an instance whose
// states the checker once keyed by their least rotation.
func TestSingleCheckIgnoresSymmetry(t *testing.T) {
	mk := func(n int) *sim.Engine[core.FiveVal] {
		e := fiveEngine(t, n)
		e.SetMode(sim.ModeSimultaneous)
		return e
	}
	off, full := model.Options{}, model.Options{Symmetry: model.SymmetryFull}
	for _, n := range []int{3, 4} {
		same := func(analyzer string, atOff, atFull []any) {
			t.Helper()
			if !reflect.DeepEqual(atOff, atFull) {
				t.Errorf("C%d %s:\nsymmetry=off  %+v\nsymmetry=full %+v", n, analyzer, atOff, atFull)
			}
		}
		same("Explore", []any{model.Explore(mk(n), off, nil)}, []any{model.Explore(mk(n), full, nil)})
		vecOff, okOff, repOff := model.WorstActivations(mk(n), off)
		vecFull, okFull, repFull := model.WorstActivations(mk(n), full)
		same("WorstActivations", []any{vecOff, okOff, repOff}, []any{vecFull, okFull, repFull})
		descOff, repOff := model.ObstructionFree(mk(n), off, 10)
		descFull, repFull := model.ObstructionFree(mk(n), full, 10)
		same("ObstructionFree", []any{descOff, repOff}, []any{descFull, repFull})
		descOff, repOff = model.FairlyTerminates(mk(n), off)
		descFull, repFull = model.FairlyTerminates(mk(n), full)
		same("FairlyTerminates", []any{descOff, repOff}, []any{descFull, repFull})
	}
}

func pairEngine(t testing.TB, n int) *sim.Engine[core.PairVal] {
	t.Helper()
	e, err := sim.NewEngine(graph.MustCycle(n), core.NewPairNodes(ids.MustGenerate(ids.Increasing, n, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func fastEngine(t testing.TB, n int) *sim.Engine[core.FastVal] {
	t.Helper()
	e, err := sim.NewEngine(graph.MustCycle(n), core.NewFastNodes(ids.MustGenerate(ids.Increasing, n, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sameAtFull runs check on fresh engines at opt and at opt with
// SymmetryFull, and fails unless the two results are deeply equal.
func sameAtFull[V any](t *testing.T, name string, mk func() *sim.Engine[V], opt model.Options,
	check func(*sim.Engine[V], model.Options) []any) {
	t.Helper()
	atOff := check(mk(), opt)
	opt.Symmetry = model.SymmetryFull
	if atFull := check(mk(), opt); !reflect.DeepEqual(atOff, atFull) {
		t.Errorf("%s:\nsymmetry=off  %+v\nsymmetry=full %+v", name, atOff, atFull)
	}
}

func explore[V any](e *sim.Engine[V], opt model.Options) []any {
	return []any{model.Explore(e, opt, nil)}
}

func worst[V any](e *sim.Engine[V], opt model.Options) []any {
	vec, ok, rep := model.WorstActivations(e, opt)
	return []any{vec, ok, rep}
}

// TestSymmetryFullEquivalenceExplore: Explore at SymmetryFull is Explore
// unreduced on singleton schedules of five and pair (simultaneous five is
// in TestSingleCheckIgnoresSymmetry).
func TestSymmetryFullEquivalenceExplore(t *testing.T) {
	opt := model.Options{SingletonsOnly: true}
	for _, n := range []int{3, 4, 5} {
		sameAtFull(t, fmt.Sprintf("five C%d singletons", n),
			func() *sim.Engine[core.FiveVal] { return fiveEngine(t, n) }, opt, explore[core.FiveVal])
		sameAtFull(t, fmt.Sprintf("pair C%d singletons", n),
			func() *sim.Engine[core.PairVal] { return pairEngine(t, n) }, opt, explore[core.PairVal])
	}
}

// TestSymmetryFullWorstEquivalence: WorstActivations at SymmetryFull
// returns the unreduced vector, flag and report for five, pair and fast.
func TestSymmetryFullWorstEquivalence(t *testing.T) {
	opt := model.Options{SingletonsOnly: true}
	for _, n := range []int{3, 4, 5} {
		sameAtFull(t, fmt.Sprintf("five C%d", n),
			func() *sim.Engine[core.FiveVal] { return fiveEngine(t, n) }, opt, worst[core.FiveVal])
		sameAtFull(t, fmt.Sprintf("pair C%d", n),
			func() *sim.Engine[core.PairVal] { return pairEngine(t, n) }, opt, worst[core.PairVal])
	}
	for _, n := range []int{3, 4} {
		sameAtFull(t, fmt.Sprintf("fast C%d", n),
			func() *sim.Engine[core.FastVal] { return fastEngine(t, n) }, opt, worst[core.FastVal])
	}
}

// TestSymmetryFullProgressEquivalence: ObstructionFree and
// FairlyTerminates at SymmetryFull return the unreduced verdict and
// report, both where five has no livelock and where uniform loopNodes
// livelock fairly.
func TestSymmetryFullProgressEquivalence(t *testing.T) {
	obstruction := func(e *sim.Engine[core.FiveVal], opt model.Options) []any {
		desc, rep := model.ObstructionFree(e, opt, 10)
		return []any{desc, rep}
	}
	opt := model.Options{SingletonsOnly: true}
	for _, n := range []int{3, 4} {
		five := func() *sim.Engine[core.FiveVal] { return fiveEngine(t, n) }
		sameAtFull(t, fmt.Sprintf("ObstructionFree five C%d", n), five, opt, obstruction)
		sameAtFull(t, fmt.Sprintf("FairlyTerminates five C%d", n), five, opt,
			func(e *sim.Engine[core.FiveVal], opt model.Options) []any {
				desc, rep := model.FairlyTerminates(e, opt)
				return []any{desc, rep}
			})
	}

	loops := func() *sim.Engine[int] {
		return engineWith(t, []sim.Node[int]{loopNode{}, loopNode{}, loopNode{}})
	}
	sameAtFull(t, "FairlyTerminates loopNode C3", loops, opt,
		func(e *sim.Engine[int], opt model.Options) []any {
			desc, rep := model.FairlyTerminates(e, opt)
			if desc == "" {
				t.Errorf("uniform livelock at symmetry=%s: no fair livelock reported (%v)", opt.Symmetry, rep)
			}
			return []any{desc, rep}
		})
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

	// SymmetryFull is the same assignment quotient: its report differs
	// from the assignments-level one in the level's name only.
	opt.Symmetry = model.SymmetryFull
	full, err := model.SweepWorstActivations(n, fiveSweep(n, sim.ModeInterleaved), opt)
	if err != nil {
		t.Fatal(err)
	}
	full.Symmetry = model.SymmetryAssignments
	if !reflect.DeepEqual(full, red) {
		t.Errorf("full sweep differs from the assignments-level sweep:\nfull    %+v\nreduced %+v", full, red)
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
