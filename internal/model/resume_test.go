package model_test

// Out-of-core and resumable-checking contracts:
//
//   - A spilled visited set (Options.SpillDir) keys states by the same
//     128-bit fingerprint as the in-RAM compact tables, so every count is
//     bit-identical to an in-RAM run.
//   - A sweep resumed from any completed-orbit checkpoint finishes with a
//     report bit-identical to the uninterrupted sweep's.
//   - Sharded sweeps partition the orbit representatives and merge exactly.

import (
	"os"
	"reflect"
	"testing"

	"asynccycle/internal/model"
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
)

func TestSpillEquivalence(t *testing.T) {
	for _, n := range []int{4, 5} {
		base := model.Options{SingletonsOnly: true}
		ref := model.Explore(fiveEngine(t, n), base, nil)

		sp := base
		sp.SpillDir = t.TempDir()
		// A tiny delta limit forces many spilled runs plus compaction,
		// so membership is really answered from disk.
		sp.SpillMemLimit = 64
		got := model.Explore(fiveEngine(t, n), sp, nil)

		if got.States != ref.States || got.Terminal != ref.Terminal ||
			got.CycleFound != ref.CycleFound || got.Truncated != ref.Truncated ||
			got.DeepestPath != ref.DeepestPath {
			t.Errorf("C%d: spilled run drifted:\nref  %v\ngot  %v", n, ref, got)
		}
		// The scratch subdirectory must be gone when Explore returns.
		left, err := os.ReadDir(sp.SpillDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Errorf("C%d: spill scratch left behind: %v", n, left)
		}
	}
}

func TestSpillDirFailureRefusesRun(t *testing.T) {
	opt := model.Options{
		SingletonsOnly: true,
		SpillDir:       t.TempDir() + "/does/not/exist",
	}
	rep := model.Explore(fiveEngine(t, 4), opt, nil)
	if !rep.Partial || rep.StopReason != runctl.StopIO {
		t.Fatalf("unusable spill dir not refused: %v", rep)
	}
	if rep.States != 0 {
		t.Fatalf("refused run still explored %d states", rep.States)
	}
}

// eqSweep compares every field of two sweep reports.
func eqSweep(t *testing.T, name string, got, want model.SweepReport) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\ngot  %+v\nwant %+v", name, got, want)
	}
}

func TestSweepResumeBitIdentical(t *testing.T) {
	n := 4
	for _, sym := range []model.Symmetry{model.SymmetryOff, model.SymmetryAssignments} {
		opt := model.Options{SingletonsOnly: true, Symmetry: sym}
		ref, err := model.SweepExplore(n, fiveSweep(n, sim.ModeInterleaved), opt, fiveColoringInv(n))
		if err != nil {
			t.Fatal(err)
		}

		// Record the checkpoint state after every completed orbit.
		type ckpt struct {
			cursor []int
			totals model.SweepReport
		}
		var cks []ckpt
		withCb := opt
		withCb.OnOrbitDone = func(xs []int, weight int, run model.Report, cum model.SweepReport) error {
			cks = append(cks, ckpt{append([]int(nil), xs...), cum})
			return nil
		}
		full, err := model.SweepExplore(n, fiveSweep(n, sim.ModeInterleaved), withCb, fiveColoringInv(n))
		if err != nil {
			t.Fatal(err)
		}
		eqSweep(t, "callback sweep vs plain", full, ref)
		if len(cks) != ref.Runs {
			t.Fatalf("symmetry=%s: %d orbit callbacks for %d runs", sym, len(cks), ref.Runs)
		}
		// The last checkpoint's totals are the final report.
		eqSweep(t, "final checkpoint totals", cks[len(cks)-1].totals, ref)

		// Resuming from any mid-run checkpoint must reproduce the
		// uninterrupted report bit for bit.
		for i, ck := range cks[:len(cks)-1] {
			res := opt
			res.SweepResume = &model.SweepResume{Cursor: ck.cursor, Totals: ck.totals}
			got, err := model.SweepExplore(n, fiveSweep(n, sim.ModeInterleaved), res, fiveColoringInv(n))
			if err != nil {
				t.Fatal(err)
			}
			eqSweep(t, "resume from checkpoint", got, ref)
			_ = i
		}
	}
}

func TestSweepShardMergeEqualsSerial(t *testing.T) {
	n := 4
	opt := model.Options{SingletonsOnly: true, Symmetry: model.SymmetryAssignments}
	serial, err := model.SweepExplore(n, fiveSweep(n, sim.ModeInterleaved), opt, fiveColoringInv(n))
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	parts := make([]model.SweepReport, shards)
	runs := 0
	for i := 0; i < shards; i++ {
		so := opt
		so.ShardIndex, so.ShardCount = i, shards
		parts[i], err = model.SweepExplore(n, fiveSweep(n, sim.ModeInterleaved), so, fiveColoringInv(n))
		if err != nil {
			t.Fatal(err)
		}
		runs += parts[i].Runs
	}
	if runs != serial.Runs {
		t.Fatalf("shards ran %d explorations, serial ran %d (not a partition)", runs, serial.Runs)
	}
	merged, err := model.MergeSweepReports(parts)
	if err != nil {
		t.Fatal(err)
	}
	eqSweep(t, "merged shards vs serial", merged, serial)

	// Worst-activation sweeps shard and merge too (supremum vectors fold
	// position-wise).
	serialW, err := model.SweepWorstActivations(n, fiveSweep(n, sim.ModeInterleaved), opt)
	if err != nil {
		t.Fatal(err)
	}
	partsW := make([]model.SweepReport, shards)
	for i := 0; i < shards; i++ {
		so := opt
		so.ShardIndex, so.ShardCount = i, shards
		partsW[i], err = model.SweepWorstActivations(n, fiveSweep(n, sim.ModeInterleaved), so)
		if err != nil {
			t.Fatal(err)
		}
	}
	mergedW, err := model.MergeSweepReports(partsW)
	if err != nil {
		t.Fatal(err)
	}
	eqSweep(t, "merged worst shards vs serial", mergedW, serialW)
}

func TestSweepShardValidation(t *testing.T) {
	opt := model.Options{SingletonsOnly: true, ShardIndex: 2, ShardCount: 2}
	if _, err := model.SweepExplore(4, fiveSweep(4, sim.ModeInterleaved), opt, nil); err == nil {
		t.Error("out-of-range shard index accepted")
	}
	if _, err := model.MergeSweepReports(nil); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := model.MergeSweepReports([]model.SweepReport{{N: 4}, {N: 5}}); err == nil {
		t.Error("mismatched shard merge accepted")
	}
}
