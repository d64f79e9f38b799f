package protocol

import (
	"fmt"

	"asynccycle/internal/check"
	"asynccycle/internal/contract"
	"asynccycle/internal/dp1"
	"asynccycle/internal/graph"
	"asynccycle/internal/sim"
)

// dp1IDs is the (Δ+1)-coloring input precondition: distinct non-negative
// identifiers (distinctness across every edge would suffice; globally
// unique is what every dispatch site generates).
func dp1IDs(xs []int) error {
	if len(xs) < 3 {
		return fmt.Errorf("dp1 needs n ≥ 3, got %d", len(xs))
	}
	return distinctIDs(xs)
}

// dp1Contract is the (Δ+1)-coloring specification: a proper coloring of
// the terminated subgraph with colors in {0..Δ}, at every reachable
// configuration.
var dp1Contract = bareContract("coloring", contract.Convergence, properColoring, contract.Property{
	Name:  "palette {0..Δ} (Δ+1)",
	Check: func(g graph.Graph, r sim.Result) error { return check.PaletteRange(r, g.MaxDegree()+1) },
})

func registerDP1() {
	MustRegisterEngine(EngineSpec[dp1.Val]{
		Meta: Descriptor{
			Name:         "dp1",
			Aliases:      []string{"deltaplus1"},
			Problem:      "(Δ+1)-coloring of Δ-bounded graphs",
			Source:       "AG stage + claim reduction (Appendix A base; arXiv:2408.10971 direction)",
			TopologyName: "cycle",
			MinN:         3,
			Palette:      "{0..Δ} (Δ+1 colors)",
			BoundDesc:    "—",
			Expectation:  "safe (Δ+1)-proper on every declared topology; not wait-free — (Δ+1)-coloring K_n is perfect renaming, so adversarial schedules may livelock",
			Family:       "cycle",
			Topologies:   []string{"path", "complete", "torus", "random"},
			Topology:     cycleTopology,
			ValidateIDs:  dp1IDs,
			Contract:     dp1Contract,
		},
		New:   dp1.NewNodes,
		Sweep: true,
	})
}
