package protocol

import (
	"fmt"
	"math/rand"

	"asynccycle/internal/agree"
	"asynccycle/internal/sim"
)

// agreeIDs is the permissive identifier precondition: identifiers double
// as inputs (vertex id mod m), so repeats are meaningful, not an error.
func agreeIDs(minN int) func(xs []int) error {
	return func(xs []int) error {
		if len(xs) < minN {
			return fmt.Errorf("approximate agreement needs n ≥ %d, got %d", minN, len(xs))
		}
		return nil
	}
}

// agreeFuzzIDs draws inputs uniformly from the m vertices, repeats
// included — equal and adjacent inputs are the interesting cases.
func agreeFuzzIDs(m int) func(rng *rand.Rand, n int) []int {
	return func(rng *rand.Rand, n int) []int {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(m)
		}
		return xs
	}
}

func registerAgree() {
	for _, tc := range []struct {
		name  string
		m     int
		alias string
	}{
		{name: "agree-p3", m: 3, alias: "aa3"},
		{name: "agree-p4", m: 4, alias: "aa4"},
	} {
		h := agree.Path(tc.m)
		rounds := h.Rounds()
		m := tc.m
		MustRegisterEngine(EngineSpec[agree.Val]{
			Meta: Descriptor{
				Name:         tc.name,
				Aliases:      []string{tc.alias},
				Problem:      fmt.Sprintf("approximate agreement on path %s (inputs = id mod %d)", h.Name(), tc.m),
				Source:       "Alistarh–Ellen–Rybicki (arXiv:2103.08949)",
				TopologyName: "complete",
				MinN:         2,
				Palette:      fmt.Sprintf("vertices of %s", h.Name()),
				BoundDesc:    fmt.Sprintf("⌈log₂ %d⌉₊ = %d", tc.m-1, rounds),
				Expectation:  "wait-free; all outputs on one edge of the value graph (E23)",
				Family:       "complete",
				Bound:        func(int) int { return rounds },
				Topology:     completeTopology,
				ValidateIDs:  agreeIDs(2),
				Contract:     agree.Contract(h),
				FuzzIDs:      agreeFuzzIDs(tc.m),
			},
			New: func(xs []int) []sim.Node[agree.Val] { return agree.NewPathNodes(xs, m) },
		})
	}
	h := agree.CycleGraph(4)
	MustRegisterEngine(EngineSpec[agree.Val]{
		Meta: Descriptor{
			Name:         "agree-c4",
			Aliases:      []string{"aac4"},
			Problem:      "2-process approximate agreement on cycle C4 (inputs = id mod 4)",
			Source:       "Alistarh–Ellen–Rybicki (arXiv:2103.08949)",
			TopologyName: "complete",
			MinN:         2,
			Palette:      "vertices of C4",
			BoundDesc:    "1",
			Expectation:  "wait-free for 2 processes (≥ 3 is AER's impossibility; E23)",
			Family:       "complete",
			Bound:        func(int) int { return 1 },
			Topology:     completeTopology,
			ValidateIDs:  agreeIDs(2),
			Contract:     agree.Contract(h),
			FuzzIDs:      agreeFuzzIDs(4),
			// The one-shot meet protocol is a two-process algorithm; fuzzed
			// sizes collapse to n = 2.
			FixN: func(int) int { return 2 },
		},
		New: func(xs []int) []sim.Node[agree.Val] { return agree.NewCycleNodes(xs, 4) },
	})
}
