package protocol

import (
	"fmt"

	"asynccycle/internal/bigsim"
	"asynccycle/internal/check"
	"asynccycle/internal/contract"
	"asynccycle/internal/core"
	"asynccycle/internal/cv"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/sim"
)

// cycleTopology builds C_n; the shared topology of the paper's algorithms.
func cycleTopology(n int) (graph.Graph, error) { return graph.Cycle(n) }

// cycleIDs is the paper's input precondition on the cycle: non-negative
// identifiers that properly color it (Remark 3.10).
func cycleIDs(xs []int) error {
	if len(xs) < 3 {
		return fmt.Errorf("cycle needs n ≥ 3, got %d", len(xs))
	}
	if !ids.ProperOnCycle(xs) {
		return fmt.Errorf("identifiers must be non-negative and distinct across every cycle edge")
	}
	return nil
}

// fiveContract is the specification shared by Algorithms 2 and 3: a
// proper coloring of the terminated subgraph with colors in {0..4}, at
// every reachable configuration.
var fiveContract = bareContract("coloring", contract.WaitFreeBounded, properColoring, palette(5))

// sixContract is Algorithm 1's specification, stated degree-generically:
// proper coloring with pair colors (a, b), a+b ≤ Δ. On the cycle Δ = 2,
// giving the paper's 6-color palette; the same machine yields pairs with
// a+b ≤ Δ on any Δ-bounded graph (Appendix A's O(Δ²) interim coloring).
var sixContract = bareContract("coloring", contract.WaitFreeBounded, properColoring, contract.Property{
	Name:  "pair palette a+b≤Δ",
	Check: func(g graph.Graph, r sim.Result) error { return check.PairPalette(r, g.MaxDegree()) },
})

func registerCore() {
	MustRegisterEngine(EngineSpec[core.PairVal]{
		Meta: Descriptor{
			Name:         "six",
			Aliases:      []string{"pair", "alg1"},
			Problem:      "6-coloring of the cycle",
			Source:       "Algorithm 1 (Thm 3.1)",
			TopologyName: "cycle",
			MinN:         3,
			Palette:      "pairs (a,b), a+b ≤ Δ",
			BoundDesc:    "⌊3n/2⌋+4",
			Expectation:  "wait-free and safe under every schedule",
			Family:       "cycle",
			Topologies:   []string{"path", "complete", "torus", "random"},
			Bound:        func(n int) int { return 3*n/2 + 4 },
			Topology:     cycleTopology,
			ValidateIDs:  cycleIDs,
			Contract:     sixContract,
			BigKernel:    bigsim.NewSixKernel,
		},
		New:   core.NewPairNodes,
		Sweep: true,
	})
	MustRegisterEngine(EngineSpec[core.FiveVal]{
		Meta: Descriptor{
			Name:         "five",
			Aliases:      []string{"alg2"},
			Problem:      "5-coloring of the cycle (optimal palette)",
			Source:       "Algorithm 2 (Thm 3.4)",
			TopologyName: "cycle",
			MinN:         3,
			Palette:      "{0..4}",
			BoundDesc:    "3n+8",
			Expectation:  "wait-free and safe under every schedule",
			Family:       "cycle",
			Topologies:   []string{"path"},
			Bound:        func(n int) int { return 3*n + 8 },
			Topology:     cycleTopology,
			ValidateIDs:  cycleIDs,
			Contract:     fiveContract,
			BigKernel:    bigsim.NewFiveKernel,
		},
		New:   core.NewFiveNodes,
		Sweep: true,
	})
	MustRegisterEngine(EngineSpec[core.FastVal]{
		Meta: Descriptor{
			Name:         "fast",
			Aliases:      []string{"alg3"},
			Problem:      "5-coloring of the cycle in O(log* n) rounds",
			Source:       "Algorithm 3 (Thm 4.4)",
			TopologyName: "cycle",
			MinN:         3,
			Palette:      "{0..4}",
			BoundDesc:    "8·(log* n + 4)",
			Expectation:  "wait-free and safe under every schedule",
			Family:       "cycle",
			Topologies:   []string{"path"},
			Bound:        func(n int) int { return 8 * (cv.LogStar(float64(n)) + 4) },
			Topology:     cycleTopology,
			ValidateIDs:  cycleIDs,
			Contract:     fiveContract,
			BigKernel:    bigsim.NewFastKernel,
		},
		New:   core.NewFastNodes,
		Sweep: true,
	})
}
