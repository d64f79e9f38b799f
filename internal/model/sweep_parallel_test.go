package model_test

// Orbit-parallel sweeps: at any worker count a sweep commits its orbit
// representatives in enumeration order, so its report, every OnOrbitDone
// call, and therefore every checkpoint equal the serial sweep's.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/model"
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
)

// orbitCall is one OnOrbitDone call, copied out of the sweep.
type orbitCall struct {
	xs     []int
	weight int
	run    model.Report
	cum    model.SweepReport
}

// sweepAlg is one algorithm under test: a sweep and a worst-activation
// sweep of C_n, both over the same engine factory.
type sweepAlg struct {
	name  string
	sweep func(n int, opt model.Options) (model.SweepReport, error)
	worst func(n int, opt model.Options) (model.SweepReport, error)
}

func sweepAlgOf[V any](name string, nodes func(xs []int) []sim.Node[V]) sweepAlg {
	mk := func(n int) func(xs []int) (*sim.Engine[V], error) {
		return func(xs []int) (*sim.Engine[V], error) {
			return sim.NewEngine(graph.MustCycle(n), nodes(xs))
		}
	}
	return sweepAlg{
		name: name,
		sweep: func(n int, opt model.Options) (model.SweepReport, error) {
			return model.SweepExplore(n, mk(n), opt, properInv[V](n))
		},
		worst: func(n int, opt model.Options) (model.SweepReport, error) {
			return model.SweepWorstActivations(n, mk(n), opt)
		},
	}
}

// properInv flags a monochromatic edge between terminated neighbors; it
// is relabel-invariant, so violation counts fold exactly across orbits.
func properInv[V any](n int) model.Invariant[V] {
	return func(e *sim.Engine[V]) error {
		for i := 0; i < n; i++ {
			if j := (i + 1) % n; e.Done(i) && e.Done(j) && e.Output(i) == e.Output(j) {
				return fmt.Errorf("monochromatic edge %d-%d", i, j)
			}
		}
		return nil
	}
}

var sweepAlgs = []sweepAlg{
	sweepAlgOf("six", core.NewPairNodes),
	sweepAlgOf("five", core.NewFiveNodes),
	sweepAlgOf("fast", core.NewFastNodes),
}

// recordSweep runs one sweep and records every OnOrbitDone call.
func recordSweep(run func(int, model.Options) (model.SweepReport, error), n int, opt model.Options) (model.SweepReport, []orbitCall, error) {
	var calls []orbitCall
	opt.OnOrbitDone = func(xs []int, weight int, r model.Report, cum model.SweepReport) error {
		cum.WorstPerProc = append([]int(nil), cum.WorstPerProc...)
		calls = append(calls, orbitCall{append([]int(nil), xs...), weight, r, cum})
		return nil
	}
	rep, err := run(n, opt)
	return rep, calls, err
}

// TestSweepWorkersMatchSerial: six, five and fast on C4 and C5 at every
// symmetry level (C5 unreduced, 120 explorations a sweep, only for six at
// three workers, to bound the time under -race): every SweepReport field
// and the whole OnOrbitDone sequence equal the serial sweep's, for both
// sweep kinds.
func TestSweepWorkersMatchSerial(t *testing.T) {
	syms := []model.Symmetry{model.SymmetryOff, model.SymmetryAssignments, model.SymmetryFull}
	for _, a := range sweepAlgs {
		for _, n := range []int{4, 5} {
			for _, sym := range syms {
				for kind, run := range map[string]func(int, model.Options) (model.SweepReport, error){"explore": a.sweep, "worst": a.worst} {
					if n == 5 && sym == model.SymmetryOff && a.name != "six" {
						continue
					}
					opt := model.Options{SingletonsOnly: true, Symmetry: sym, Workers: 1}
					want, wantCalls, err := recordSweep(run, n, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !want.AllOk || len(wantCalls) != want.Runs {
						t.Fatalf("%s %s C%d %s: serial reference %v with %d callbacks", a.name, kind, n, sym, want, len(wantCalls))
					}
					for _, workers := range []int{2, 3, 8} {
						if n == 5 && sym == model.SymmetryOff && (a.name != "six" || workers != 3) {
							continue
						}
						opt.Workers = workers
						got, calls, err := recordSweep(run, n, opt)
						name := fmt.Sprintf("%s %s C%d %s workers=%d", a.name, kind, n, sym, workers)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						eqSweep(t, name, got, want)
						if !reflect.DeepEqual(calls, wantCalls) {
							t.Errorf("%s: OnOrbitDone sequence differs from the serial one", name)
						}
					}
				}
			}
		}
	}
}

// A parallel sweep stopped by its checkpoint writer leaves a checkpoint
// that resumes, at any worker count, to the serial report.
func TestSweepParallelCheckpointResumes(t *testing.T) {
	a := sweepAlgs[1]
	const n = 5
	opt := model.Options{SingletonsOnly: true, Symmetry: model.SymmetryFull, Workers: 1}
	ref, err := a.sweep(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, stopAt := range []int{1, 5, ref.Runs - 1} {
		var saved *model.SweepResume
		calls := 0
		failing := opt
		failing.Workers = 3
		errDisk := errors.New("disk full")
		failing.OnOrbitDone = func(xs []int, _ int, _ model.Report, cum model.SweepReport) error {
			calls++
			if calls > stopAt {
				return errDisk
			}
			saved = &model.SweepResume{Cursor: append([]int(nil), xs...), Totals: cum}
			return nil
		}
		if _, err := a.sweep(n, failing); !errors.Is(err, errDisk) {
			t.Fatalf("stop at %d: sweep error %v, want the callback's", stopAt, err)
		}
		if calls != stopAt+1 {
			t.Fatalf("stop at %d: %d callbacks after the failing one's error", stopAt, calls)
		}
		for _, workers := range []int{1, 3} {
			res := opt
			res.Workers = workers
			res.SweepResume = saved
			got, err := a.sweep(n, res)
			if err != nil {
				t.Fatal(err)
			}
			eqSweep(t, fmt.Sprintf("stop at %d, resumed at %d workers", stopAt, workers), got, ref)
		}
	}
}

// A cancelled parallel sweep is PARTIAL, and its OnOrbitDone calls are a
// prefix of the serial sequence. The third commit cancels the sweep, and
// every representative after the third waits in the engine factory until
// it does, so the workers cannot finish the sweep first in any order.
func TestSweepParallelCancelCommitsPrefix(t *testing.T) {
	a := sweepAlgs[2]
	const n = 5
	opt := model.Options{SingletonsOnly: true, Symmetry: model.SymmetryAssignments, Workers: 1}
	_, serialCalls, err := recordSweep(a.sweep, n, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	firstThree := map[string]bool{}
	for _, c := range serialCalls[:3] {
		firstThree[fmt.Sprint(c.xs)] = true
	}
	mk := func(xs []int) (*sim.Engine[core.FastVal], error) {
		if !firstThree[fmt.Sprint(xs)] {
			<-ctx.Done()
		}
		return sim.NewEngine(graph.MustCycle(n), core.NewFastNodes(xs))
	}
	var calls []orbitCall
	opt.Workers = 3
	opt.Context = ctx
	opt.OnOrbitDone = func(xs []int, weight int, r model.Report, cum model.SweepReport) error {
		calls = append(calls, orbitCall{append([]int(nil), xs...), weight, r, cum})
		if len(calls) == 3 {
			cancel()
		}
		return nil
	}
	rep, err := model.SweepExplore(n, mk, opt, properInv[core.FastVal](n))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial || rep.StopReason != runctl.StopCancelled || rep.AllOk {
		t.Fatalf("cancelled sweep not PARTIAL (cancelled): %v", rep)
	}
	if len(calls) < 3 || len(calls) >= len(serialCalls) {
		t.Fatalf("%d orbit callbacks of %d, want a strict prefix of at least 3", len(calls), len(serialCalls))
	}
	if !reflect.DeepEqual(calls, serialCalls[:len(calls)]) {
		t.Errorf("committed orbits are not a prefix of the serial sequence")
	}
	// The non-deterministic orbit after the prefix may be folded, nothing
	// beyond it.
	if rep.Runs != len(calls) && rep.Runs != len(calls)+1 {
		t.Errorf("report folds %d runs after %d callbacks", rep.Runs, len(calls))
	}
}

// Each orbit worker spills its own orbit: a spilled parallel sweep counts
// exactly what the in-RAM serial sweep counts and leaves no scratch.
func TestSweepParallelSpillMatchesInRAM(t *testing.T) {
	a := sweepAlgs[1]
	const n = 5
	opt := model.Options{SingletonsOnly: true, Symmetry: model.SymmetryAssignments, Workers: 1}
	ref, err := a.sweep(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 3
	opt.SpillDir = t.TempDir()
	opt.SpillMemLimit = 64
	got, err := a.sweep(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	eqSweep(t, "spilled parallel sweep vs in-RAM serial", got, ref)
	left, err := os.ReadDir(opt.SpillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("spill scratch left behind: %v", left)
	}
}

// An orbit whose exploration fails on I/O ends the sweep there: it is
// folded PARTIAL (io), and no later orbit is folded or reaches
// OnOrbitDone, so a checkpoint never moves past it and a resume
// re-explores it instead of skipping it.
func TestSweepIOErrorEndsSweep(t *testing.T) {
	const n = 5
	dir := t.TempDir() + "/spill"
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	built := 0 // engines built; the first is the symmetry probe
	mk := func(xs []int) (*sim.Engine[core.FiveVal], error) {
		built++
		switch built {
		case 3: // the 2nd representative cannot make its spill directory
			if err := os.Remove(dir); err != nil {
				return nil, err
			}
		case 4:
			if err := os.Mkdir(dir, 0o755); err != nil {
				return nil, err
			}
		}
		return sim.NewEngine(graph.MustCycle(n), core.NewFiveNodes(xs))
	}
	callbacks := 0
	opt := model.Options{SingletonsOnly: true, Symmetry: model.SymmetryFull, Workers: 1, SpillDir: dir}
	opt.OnOrbitDone = func([]int, int, model.Report, model.SweepReport) error {
		callbacks++
		if built >= 3 {
			t.Errorf("OnOrbitDone called after the failed orbit (%d engines built)", built)
		}
		return nil
	}
	rep, err := model.SweepExplore(n, mk, opt, properInv[core.FiveVal](n))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial || rep.StopReason != runctl.StopIO || rep.AllOk {
		t.Fatalf("sweep with a failed spill not PARTIAL (io): %v", rep)
	}
	if rep.Runs != 2 || callbacks != 1 {
		t.Errorf("folded %d runs with %d callbacks, want 2 runs (the failed one last) and 1 callback", rep.Runs, callbacks)
	}
}
