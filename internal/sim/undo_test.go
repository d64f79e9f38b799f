package sim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/sim"
)

// engineSnap is everything observable about a configuration that the
// undo differential test compares.
type engineSnap struct {
	fp, view         string
	h1, h2, c1, c2   uint64
	rot, orbit, time int
}

// snapOf records e's fingerprints, View and Time. With fresh set it reads
// them from a Clone, leaving e's own digest cache as it was, so that both
// stale and fresh digests get saved by StepUndo and restored by Undo.
func snapOf[V any](e *sim.Engine[V], fresh bool) engineSnap {
	if fresh {
		e = e.Clone()
	}
	var s engineSnap
	s.fp = e.Fingerprint()
	s.h1, s.h2 = e.FingerprintHash128()
	s.c1, s.c2, s.rot, s.orbit = e.CanonicalFingerprintHash128()
	s.view = fmt.Sprintf("%+v", e.View())
	s.time = e.Time()
	return s
}

// checkStepUndo walks random stacks of StepUndo/Undo pairs, up to eight
// deep, in both modes, with non-singleton (and partly invalid) activation
// sets; crash plans and seeded registers change the configuration
// whenever the stack is empty. Each StepUndo must reach exactly what Step
// reaches on a Clone, and each Undo must restore the fingerprints, View
// and Time from before its step.
func checkStepUndo[V any](t *testing.T, build func() *sim.Engine[V], seed func(*rand.Rand, int) []V) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	for trial := 0; trial < 60; trial++ {
		e := build()
		e.SetMode(sim.Mode(trial % 2))
		n := e.N()
		var records [8]sim.Undo[V]
		var before []engineSnap
		for op := 0; op < 150; op++ {
			depth := len(before)
			i := rng.Intn(n)
			switch r := rng.Intn(10); {
			case depth == 0 && r == 0:
				e.CrashAfter(i, e.Activations(i)+rng.Intn(3))
				counts["CrashAfter"]++
			case depth == 0 && r == 1:
				e.Crash(i)
				counts["Crash"]++
			case depth == 0 && r == 2:
				if err := e.SeedRegisters(seed(rng, n)); err != nil {
					t.Fatal(err)
				}
				counts["SeedRegisters"]++
			case depth == len(records) || (depth > 0 && r < 5):
				e.Undo(&records[depth-1])
				if got := snapOf(e, rng.Intn(2) == 0); got != before[depth-1] {
					t.Fatalf("trial %d op %d: Undo at depth %d restored\n%+v\nwant\n%+v", trial, op, depth, got, before[depth-1])
				}
				before = before[:depth-1]
				counts["Undo"]++
			default:
				set := []int{i}
				for j := -1; j <= n; j++ {
					if rng.Intn(3) == 0 {
						set = append(set, j)
					}
				}
				before = append(before, snapOf(e, rng.Intn(2) == 0))
				ref := e.Clone()
				want := slices.Clone(ref.Step(set))
				got := e.StepUndo(set, &records[depth])
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d op %d: StepUndo performed %v, Step on a Clone %v", trial, op, got, want)
				}
				if gs, ws := snapOf(e, rng.Intn(2) == 0), snapOf(ref, false); gs != ws {
					t.Fatalf("trial %d op %d: StepUndo reached\n%+v\nStep on a Clone\n%+v", trial, op, gs, ws)
				}
				if len(got) > 1 {
					counts["multi-process StepUndo"]++
				}
				counts["StepUndo"]++
			}
		}
		for d := len(before); d > 0; d-- {
			e.Undo(&records[d-1])
			if got := snapOf(e, false); got != before[d-1] {
				t.Fatalf("trial %d: unwinding Undo at depth %d restored the wrong configuration", trial, d)
			}
		}
	}
	for _, k := range []string{"CrashAfter", "Crash", "SeedRegisters", "Undo", "StepUndo", "multi-process StepUndo"} {
		if counts[k] == 0 {
			t.Errorf("no %s operation was exercised", k)
		}
	}
}

// TestStepUndoMatchesStepOnClone runs the undo differential on Five,
// whose nodes implement sim.Copier, and on hashNode, which does not and
// so gets a Clone per performed process.
func TestStepUndoMatchesStepOnClone(t *testing.T) {
	xs := []int{4, 0, 5, 2, 1, 3}
	t.Run("copier", func(t *testing.T) {
		checkStepUndo(t, func() *sim.Engine[core.FiveVal] {
			e, err := sim.NewEngine(graph.MustCycle(len(xs)), core.NewFiveNodes(xs))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}, func(rng *rand.Rand, n int) []core.FiveVal {
			vals := make([]core.FiveVal, n)
			for j := range vals {
				vals[j] = core.FiveVal{X: xs[j], A: rng.Intn(3), B: rng.Intn(3)}
			}
			return vals
		})
	})
	t.Run("clone", func(t *testing.T) {
		checkStepUndo(t, func() *sim.Engine[hashVal] { return newHashEngine(t, 5) },
			func(rng *rand.Rand, n int) []hashVal {
				vals := make([]hashVal, n)
				for j := range vals {
					vals[j] = hashVal{A: rng.Intn(4), B: rng.Intn(4)}
				}
				return vals
			})
	})
}

// StepUndo fires the engine's hooks like Step; Undo fires none.
func TestStepUndoHooks(t *testing.T) {
	e := newHashEngine(t, 4)
	var steps []int
	e.AddHook(func(_ *sim.Engine[hashVal], t int, _ []int) { steps = append(steps, t) })
	var u sim.Undo[hashVal]
	e.StepUndo([]int{0, 2}, &u)
	e.Undo(&u)
	e.Step([]int{1})
	if !slices.Equal(steps, []int{1, 1}) {
		t.Fatalf("hook saw steps %v, want [1 1]", steps)
	}
}
