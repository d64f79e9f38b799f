package protocol

import (
	"fmt"

	"asynccycle/internal/contract"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/mis"
	"asynccycle/internal/sim"
)

// misPatience is the pinned patience of the impatient MIS candidate: the
// number of rounds it waits for lower-identifier neighbors before deciding
// unilaterally. The model checker historically used 2.
const misPatience = 2

// distinctIDs is the global input precondition of the identifier-comparing
// protocols: distinct non-negative identifiers.
func distinctIDs(xs []int) error {
	if !ids.Unique(xs) {
		return fmt.Errorf("identifiers must be distinct and non-negative")
	}
	return nil
}

// misProperty checks the maximal-independent-set conditions on the
// terminated processes.
var misProperty = contract.Property{
	Name: "maximal independent set",
	Check: func(g graph.Graph, r sim.Result) error {
		if v := mis.ViolatesMIS(g.Edges(), g.N(), r.Outputs, r.Done); v != "" {
			return fmt.Errorf("%s", v)
		}
		return nil
	},
}

func misIDs(xs []int) error {
	if len(xs) < 3 {
		return fmt.Errorf("cycle needs n ≥ 3, got %d", len(xs))
	}
	return distinctIDs(xs)
}

func registerMIS() {
	MustRegisterEngine(EngineSpec[mis.Val]{
		Meta: Descriptor{
			Name:         "mis-greedy",
			Problem:      "maximal independent set of the cycle",
			Source:       "greedy candidate (§ MIS case study)",
			TopologyName: "cycle",
			MinN:         3,
			Palette:      "{out=0, in=1}",
			BoundDesc:    "—",
			Expectation:  "safe but NOT wait-free: waiting on a crashed lower-id neighbor livelocks",
			Family:       "cycle",
			Topology:     cycleTopology,
			ValidateIDs:  misIDs,
			Contract:     bareContract("mis", contract.Convergence, misProperty),
		},
		New: mis.NewGreedyNodes,
	})
	MustRegisterEngine(EngineSpec[mis.Val]{
		Meta: Descriptor{
			Name:         "mis-impatient",
			Problem:      "maximal independent set of the cycle",
			Source:       fmt.Sprintf("impatient candidate, patience=%d (§ MIS case study)", misPatience),
			TopologyName: "cycle",
			MinN:         3,
			Palette:      "{out=0, in=1}",
			BoundDesc:    "patience+3",
			Expectation:  "wait-free but UNSAFE: adjacent processes can both join the set",
			Family:       "cycle",
			Bound:        func(n int) int { return misPatience + 3 },
			Topology:     cycleTopology,
			ValidateIDs:  misIDs,
			Contract:     bareContract("mis", contract.WaitFreeBounded, misProperty),
		},
		New: func(xs []int) []sim.Node[mis.Val] { return mis.NewImpatientNodes(xs, misPatience) },
	})
}
