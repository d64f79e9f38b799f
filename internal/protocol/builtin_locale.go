package protocol

import (
	"fmt"

	"asynccycle/internal/contract"
	"asynccycle/internal/locale"
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
)

func registerLocale() {
	MustRegister(&Descriptor{
		Name:         "local-cv",
		Aliases:      []string{"locale"},
		Problem:      "3-coloring of the cycle in the synchronous LOCAL model",
		Source:       "Cole-Vishkin baseline (§2, comparison point)",
		TopologyName: "cycle (synchronous, crash-free)",
		MinN:         3,
		Palette:      "{0..2}",
		BoundDesc:    "O(log* n) synchronous rounds",
		Expectation:  "crash-free baseline: what the asynchronous model must give up",
		Family:       "cycle",
		Topology:     cycleTopology,
		ValidateIDs:  misIDs,
		// The synchronous LOCAL baseline specification: a proper
		// 3-coloring of the whole cycle.
		Contract: bareContract("coloring", contract.Convergence, properColoring, palette(3)),

		// Run executes the synchronous algorithm directly: the LOCAL model
		// has no adversary, so Scheduler, Mode, and Budget do not apply,
		// and crashes are rejected — that absence is the point of the
		// baseline.
		Run: func(xs []int, o RunOptions) (sim.Result, runctl.StopReason, error) {
			if len(o.Crashes) > 0 {
				return sim.Result{}, runctl.StopNone, fmt.Errorf("local-cv is crash-free: the LOCAL model has no adversary")
			}
			colors, rounds, err := locale.ThreeColorCycle(xs)
			if err != nil {
				return sim.Result{}, runctl.StopNone, err
			}
			n := len(xs)
			res := sim.Result{
				Outputs:     colors,
				Done:        make([]bool, n),
				Crashed:     make([]bool, n),
				Activations: make([]int, n),
				Steps:       rounds,
			}
			for i := range res.Done {
				res.Done[i] = true
				res.Activations[i] = rounds
			}
			return res, runctl.StopNone, nil
		},
	})
}
