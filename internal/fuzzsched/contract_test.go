package fuzzsched

// Contract-derived oracle tests: campaigns over the contract-first
// families must be clean (zero spurious flags), the report header must
// carry the contract label exactly when the contract is labeled, and the
// stabilization oracle must have teeth — a livelocking rule variant is
// flagged as a convergence violation.

import (
	"context"
	"strings"
	"testing"

	"asynccycle/internal/graph"
	"asynccycle/internal/sim"
	"asynccycle/internal/ssuni"
)

func TestCampaignContractHeader(t *testing.T) {
	for _, tc := range []struct {
		alg  string
		want string // "" = bare contract, header omits the field
	}{
		{alg: "ssuni", want: "ss-coloring"},
		{alg: "agree-p3", want: "approx-agreement"},
		{alg: "fast", want: ""},
	} {
		rep, err := Campaign(context.Background(), Config{
			Alg: tc.alg, Mode: sim.ModeInterleaved, Seed: 11, Campaign: 8,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.alg, err)
		}
		if rep.Contract != tc.want {
			t.Errorf("%s: Contract = %q, want %q", tc.alg, rep.Contract, tc.want)
		}
		has := strings.Contains(rep.String(), "contract=")
		if has != (tc.want != "") {
			t.Errorf("%s: header %q — contract field presence wrong", tc.alg, rep.String())
		}
		if len(rep.Violations) != 0 || len(rep.Divergences) != 0 {
			t.Errorf("%s: spurious findings: %v %v", tc.alg, rep.Violations, rep.Divergences)
		}
	}
}

// TestStabilizationOracleFlagsLivelock pins the oracle's teeth: the
// anonymous uniform rule (no root) livelocks on C4 from (2,0,1,2), and
// the fair round-robin suffix must report a convergence violation.
func TestStabilizationOracleFlagsLivelock(t *testing.T) {
	colors := []int{2, 0, 1, 2}
	g, err := graph.Cycle(len(colors))
	if err != nil {
		t.Fatal(err)
	}
	anon := ssuni.NewAnonymousNodes(colors)
	e, err := sim.NewEngine(g, anon)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SeedRegisters(ssuni.Colors(colors)); err != nil {
		t.Fatal(err)
	}
	e.SetRecordValues(true)
	safety := func(r sim.Result) error { return ssuni.ProperRing(g, r) }
	kind, detail := stabilizationOracle(sim.InstanceOf(e), safety, len(colors), ssuni.ConvergenceBound(len(colors)))
	if kind != "convergence" {
		t.Fatalf("kind = %q (%s), want convergence", kind, detail)
	}

	// And the real rule from the same state converges cleanly.
	e2, err := ssuni.NewEngine(colors)
	if err != nil {
		t.Fatal(err)
	}
	kind, detail = stabilizationOracle(sim.InstanceOf(e2), safety, len(colors), ssuni.ConvergenceBound(len(colors)))
	if kind != "" {
		t.Fatalf("rooted rule flagged: %s (%s)", kind, detail)
	}
}
