package fuzzsched

// Seeded campaigns over the protocols the registry made fuzzable: the MIS
// candidates, renaming, and the DECOUPLED three-coloring. Violations and
// the replay, clone-step and secondary-mode divergence legs are functions
// of the seed alone and pinned exactly, so any drift in descriptor wiring,
// RNG consumption order, or oracle derivation fails here before it
// reaches CI. The conc leg runs real goroutines whose interleaving comes
// from the Go scheduler; for an unsafe protocol its divergence count
// varies run to run and is only bounded.

import (
	"context"
	"strings"
	"testing"

	"asynccycle/internal/sim"
)

func runPinnedCampaign(t *testing.T, alg string) Report {
	t.Helper()
	rep, err := Campaign(context.Background(), Config{
		Alg: alg, Mode: sim.ModeInterleaved,
		Seed: 1, Campaign: 48, Workers: 4, ConcEvery: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schedules != 48 {
		t.Fatalf("%s: schedules = %d, want 48", alg, rep.Schedules)
	}
	return rep
}

// TestCampaignMISGreedy: safe but not wait-free — the fuzzer's finite
// schedules never catch the livelock (that is the model checker's job,
// E19), and the safety oracle never trips.
func TestCampaignMISGreedy(t *testing.T) {
	rep := runPinnedCampaign(t, "mis-greedy")
	if len(rep.Violations) != 0 || len(rep.Divergences) != 0 {
		t.Errorf("mis-greedy: violations=%d divergences=%d, want 0/0", len(rep.Violations), len(rep.Divergences))
	}
}

// TestCampaignMISImpatient: unsafe by design — the campaign must find the
// adjacent-membership violations, shrink them, and report the divergences
// its own unsafety induces on the cross-checking legs. Seed-determined
// counts pinned exactly; the conc leg diverges at most once per conc run.
func TestCampaignMISImpatient(t *testing.T) {
	rep := runPinnedCampaign(t, "mis-impatient")
	if len(rep.Violations) != 37 {
		t.Errorf("mis-impatient: violations=%d, want 37 (seed-1 pin)", len(rep.Violations))
	}
	legs := map[string]int{}
	for _, d := range rep.Divergences {
		legs[d.Leg]++
	}
	for leg, want := range map[string]int{"replay": 0, "clone-step": 0, "secondary-mode": 27} {
		if legs[leg] != want {
			t.Errorf("mis-impatient: %s divergences=%d, want %d (seed-1 pin)", leg, legs[leg], want)
		}
	}
	if rep.ConcRuns != 4 || legs["conc"] > rep.ConcRuns {
		t.Errorf("mis-impatient: conc divergences=%d over %d conc runs, want at most one per run of 4", legs["conc"], rep.ConcRuns)
	}
	if len(rep.Divergences) != legs["replay"]+legs["clone-step"]+legs["secondary-mode"]+legs["conc"] {
		t.Errorf("mis-impatient: divergences on unknown legs: %v", legs)
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v.Detail, "both in MIS") {
			found = true
			break
		}
	}
	if !found {
		t.Error("mis-impatient violations never mention adjacent MIS membership")
	}
}

// TestCampaignRenaming: wait-free and safe on K_n; the campaign stays clean
// and the bound leg (n+2) never trips.
func TestCampaignRenaming(t *testing.T) {
	rep := runPinnedCampaign(t, "renaming")
	if len(rep.Violations) != 0 || len(rep.Divergences) != 0 {
		t.Errorf("renaming: violations=%d divergences=%d, want 0/0", len(rep.Violations), len(rep.Divergences))
	}
}

// TestCampaignDecoupledThree: the non-register-model instance adapter (tick
// engine behind sim.Instance) survives the clone-step and replay legs.
func TestCampaignDecoupledThree(t *testing.T) {
	rep := runPinnedCampaign(t, "decoupled-three")
	if len(rep.Violations) != 0 || len(rep.Divergences) != 0 {
		t.Errorf("decoupled-three: violations=%d divergences=%d, want 0/0", len(rep.Violations), len(rep.Divergences))
	}
}

// TestCampaignRejectsNonFuzzable: protocols without an instance surface
// (local-cv) are a configuration error, not a silent no-op.
func TestCampaignRejectsNonFuzzable(t *testing.T) {
	_, err := Campaign(context.Background(), Config{Alg: "local-cv", Seed: 1, Campaign: 4})
	if err == nil || !strings.Contains(err.Error(), "no branchable instance surface") {
		t.Errorf("local-cv campaign error = %v, want no-branchable-instance-surface", err)
	}
}
