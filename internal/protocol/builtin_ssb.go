package protocol

import (
	"fmt"

	"asynccycle/internal/contract"
	"asynccycle/internal/graph"
	"asynccycle/internal/mis"
	"asynccycle/internal/sim"
	"asynccycle/internal/ssb"
)

// ssbContract checks the snapshot-based-simulation outcome conditions
// from ssb.Check on the terminated processes.
var ssbContract = bareContract("ssb", contract.Convergence, contract.Property{
	Name: "SSB outcome conditions",
	Check: func(_ graph.Graph, r sim.Result) error {
		if v := ssb.Check(r.Outputs, r.Done); v != "" {
			return fmt.Errorf("%s", v)
		}
		return nil
	},
})

func ssbIDs(xs []int) error {
	if len(xs) < 3 {
		return fmt.Errorf("cycle simulation needs n ≥ 3, got %d", len(xs))
	}
	return distinctIDs(xs)
}

func registerSSB() {
	MustRegisterEngine(EngineSpec[mis.Val]{
		Meta: Descriptor{
			Name:         "ssb-greedy",
			Problem:      "cycle MIS via snapshot-based simulation on K_n",
			Source:       "SSB wrapper over the greedy candidate (§ simulation)",
			TopologyName: "K_n (simulating the cycle)",
			MinN:         3,
			Palette:      "{out=0, in=1}",
			BoundDesc:    "—",
			Expectation:  "safe but NOT wait-free (inherits the greedy livelock)",
			Family:       "complete",
			Topology:     completeTopology,
			ValidateIDs:  ssbIDs,
			Contract:     ssbContract,
		},
		New: func(xs []int) []sim.Node[mis.Val] { return ssb.WrapCycle(mis.NewGreedyNodes(xs)) },
	})
	MustRegisterEngine(EngineSpec[mis.Val]{
		Meta: Descriptor{
			Name:         "ssb-impatient",
			Problem:      "cycle MIS via snapshot-based simulation on K_n",
			Source:       fmt.Sprintf("SSB wrapper over the impatient candidate, patience=%d", misPatience),
			TopologyName: "K_n (simulating the cycle)",
			MinN:         3,
			Palette:      "{out=0, in=1}",
			BoundDesc:    "—",
			Expectation:  "wait-free but UNSAFE (inherits the impatient adjacency violation)",
			Family:       "complete",
			Topology:     completeTopology,
			ValidateIDs:  ssbIDs,
			Contract:     ssbContract,
		},
		New: func(xs []int) []sim.Node[mis.Val] { return ssb.WrapCycle(mis.NewImpatientNodes(xs, misPatience)) },
	})
}
