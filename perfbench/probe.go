package main

import (
	"fmt"

	"asynccycle/internal/model"
)

// probeIdleLayers completes a traced run's per-layer set: each of the
// checker and bigsim groups that the workload leaves idle is measured on
// a short fixed probe with the workload's seed, so those per-layer metrics
// are measured on every workload. trace.overhead_share always comes from
// the workload itself.
//
//   - checker: one five sweep of C5 at symmetry=full, untraced and traced;
//   - bigsim: one bigcurve cycle at n = 10⁴.
//
// The serve group has no probe: its metrics come only from the serve
// workloads (see README.md for why they are not in BENCHMARK.json).
func probeIdleLayers(v *env, own []string) error {
	busy := map[string]bool{}
	for _, l := range own {
		busy[l] = true
	}
	p := *v
	p.seconds = 0 // one untraced reference cycle
	if !busy[layerChecker] {
		algs, err := coreAlgs()
		if err != nil {
			return err
		}
		op := checkOp{alg: algs[1], n: 5, want: sweepC5Want["five"]}
		if err := traceChecks(&p, []checkOp{op}, model.Options{SingletonsOnly: true, Symmetry: model.SymmetryFull}, false); err != nil {
			return fmt.Errorf("checker probe: %w", err)
		}
	}
	if !busy[layerBig] {
		plan := newBigPlan(v.seed, []int{10_000}, v.nproc)
		if err := plan.build(); err != nil {
			return fmt.Errorf("bigsim probe: %w", err)
		}
		if err := traceBig(&p, plan, false); err != nil {
			return fmt.Errorf("bigsim probe: %w", err)
		}
	}
	return nil
}
