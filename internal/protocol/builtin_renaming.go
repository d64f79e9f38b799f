package protocol

import (
	"fmt"

	"asynccycle/internal/contract"
	"asynccycle/internal/graph"
	"asynccycle/internal/renaming"
	"asynccycle/internal/sim"
)

// completeTopology builds K_n, the topology of the fully-connected
// protocols (renaming, and the SSB cycle simulation).
func completeTopology(n int) (graph.Graph, error) { return graph.Complete(n) }

// distinctNames checks the (2n-1)-renaming specification on the
// terminated processes: names inside {0..2n-2}, pairwise distinct.
func distinctNames(g graph.Graph, r sim.Result) error {
	n := g.N()
	seen := map[int]bool{}
	for i, out := range r.Outputs {
		if !r.Done[i] {
			continue
		}
		if out < 0 || out > renaming.MaxName(n) {
			return fmt.Errorf("name %d outside {0..%d}", out, renaming.MaxName(n))
		}
		if seen[out] {
			return fmt.Errorf("duplicate name %d", out)
		}
		seen[out] = true
	}
	return nil
}

func registerRenaming() {
	MustRegisterEngine(EngineSpec[renaming.Val]{
		Meta: Descriptor{
			Name:         "renaming",
			Problem:      "(2n-1)-renaming on the complete graph",
			Source:       "rank-based renaming (§ related tasks)",
			TopologyName: "K_n",
			MinN:         2,
			Palette:      "{0..2n-2}, pairwise distinct",
			BoundDesc:    "n+2 (measured worst n+1 on K3..K5)",
			Expectation:  "wait-free and safe under every schedule",
			Family:       "complete",
			Bound:        func(n int) int { return n + 2 },
			Topology:     completeTopology,
			ValidateIDs:  distinctIDs,
			Contract: bareContract("renaming", contract.WaitFreeBounded,
				contract.Property{Name: "distinct names in {0..2n-2}", Check: distinctNames}),
		},
		New: renaming.NewNodes,
	})
}
