package fuzzsched

// Orbit-closure property tests: a violating witness stays violating under
// every automorphism of the cycle. Relabeling the identifier assignment,
// the schedule's activation sets and the crash plan by the same element of
// D_n produces an isomorphic execution, so the oracle must reject the
// image schedule too — if it ever accepts one, either the engine is not
// automorphism-equivariant or the symmetry reduction built on that fact is
// unsound.

import (
	"context"
	"errors"
	"sort"
	"testing"

	"asynccycle/internal/check"
	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/protocol"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

// registeredBound is alg's wait-freedom bound on n processes, as the
// registry's descriptor states it.
func registeredBound(t *testing.T, alg string, n int) int {
	t.Helper()
	d, err := protocol.Lookup(alg)
	if err != nil {
		t.Fatal(err)
	}
	return d.Bound(n)
}

// newTypedEngine is the typed engine constructor the production code used
// before the registry migration; the orbit tests still drive the five
// engine directly.
func newTypedEngine[V any](g graph.Graph, nodes []sim.Node[V], mode sim.Mode, crashes map[int]int) *sim.Engine[V] {
	e, err := sim.NewEngine(g, nodes)
	if err != nil {
		panic(err)
	}
	e.SetMode(mode)
	for i, k := range crashes {
		e.CrashAfter(i, k)
	}
	return e
}

// invPerm returns p's inverse.
func invPerm(p []int) []int {
	inv := make([]int, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// permuteWitness maps a witness into the automorphism p's frame: position
// q of the image instance plays the role of position p[q] of the original,
// so ids are graph.ApplyPerm(xs, p), activation sets map through p's
// inverse, and the crash plan follows the positions. Sets are re-sorted:
// under simultaneous semantics execution order within a set is immaterial.
func permuteWitness(xs []int, steps [][]int, crashes map[int]int, p []int) ([]int, [][]int, map[int]int) {
	inv := invPerm(p)
	outSteps := make([][]int, len(steps))
	for t, s := range steps {
		ns := make([]int, len(s))
		for i, q := range s {
			ns[i] = inv[q]
		}
		sort.Ints(ns)
		outSteps[t] = ns
	}
	var outCrashes map[int]int
	if len(crashes) > 0 {
		outCrashes = make(map[int]int, len(crashes))
		for i, k := range crashes {
			outCrashes[inv[i]] = k
		}
	}
	return graph.ApplyPerm(xs, p), outSteps, outCrashes
}

// TestF1WitnessOrbitClosure: every D_5 image of the hand-built F1 lockstep
// livelock (odd-first two-phase scheduling of Algorithm 2 on C5) must
// still breach the wait-freedom bound.
func TestF1WitnessOrbitClosure(t *testing.T) {
	ids := []int{0, 1, 2, 3, 4}
	n := len(ids)
	e := newTypedEngine(graph.MustCycle(n), core.NewFiveNodes(ids), sim.ModeSimultaneous, nil)
	rec := schedule.NewRecording(schedule.NewSleep([]int{0, 2, 4}, 2, schedule.Alternating{}))
	if _, err := e.Run(rec, 2_000); !errors.Is(err, sim.ErrStepLimit) {
		t.Fatalf("F1 witness setup: err = %v, want ErrStepLimit", err)
	}
	steps := rec.Steps()
	bound := registeredBound(t, "five", n)
	if err := check.ActivationBound(e.Result(), bound); err == nil {
		t.Fatal("recorded F1 witness does not breach the bound")
	}
	for pi, p := range graph.CycleAutomorphisms(n) {
		pxs, psteps, _ := permuteWitness(ids, steps, nil, p)
		pe := newTypedEngine(graph.MustCycle(n), core.NewFiveNodes(pxs), sim.ModeSimultaneous, nil)
		res := playSteps(sim.InstanceOf(pe), psteps)
		if err := check.ActivationBound(res, bound); err == nil {
			t.Errorf("automorphism %d (%v): image of the F1 witness satisfies the bound — orbit not closed", pi, p)
		}
	}
}

// TestCampaignWitnessOrbitClosure: the same closure property for the
// fuzzer's own shrunk witnesses — every violation found by the pinned
// seed-5 campaign must stay a violation under all ten automorphisms.
func TestCampaignWitnessOrbitClosure(t *testing.T) {
	rep, err := Campaign(context.Background(), Config{
		Alg: "five", N: 5, Mode: sim.ModeSimultaneous,
		Seed: 5, Campaign: 64, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("seed-5 campaign found no violation to orbit-test")
	}
	for vi, v := range rep.Violations {
		steps, err := schedule.UnmarshalSteps([]byte(v.WitnessJSON))
		if err != nil {
			t.Fatal(err)
		}
		bound := registeredBound(t, "five", v.N)
		for pi, p := range graph.CycleAutomorphisms(v.N) {
			pxs, psteps, pcrashes := permuteWitness(v.IDs, steps, v.Crashes, p)
			pe := newTypedEngine(graph.MustCycle(v.N), core.NewFiveNodes(pxs), sim.ModeSimultaneous, pcrashes)
			res := playSteps(sim.InstanceOf(pe), psteps)
			if err := check.ActivationBound(res, bound); err == nil {
				t.Errorf("violation %d, automorphism %d (%v): image witness satisfies the bound — orbit not closed", vi, pi, p)
			}
		}
	}
}
