package protocol

// The registry adds one interface indirection (sim.Instance) between the
// generic drivers and the typed engines. This pin proves the indirection
// is free on the hot path: a warm Step through a descriptor-built instance
// allocates nothing, for every engine-backed protocol.

import (
	"testing"

	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/renaming"
	"asynccycle/internal/sim"
)

// stepper is what an allocation pin steps: a registry instance, or a
// typed engine as the baseline.
type stepper interface {
	N() int
	AppendWorking(buf []int) []int
	Step(active []int) []int
}

// stepWorking returns a step function for an allocation pin: each call
// activates one working process, cycling through the working set, and
// fails the test unless that process performed a round. AllocsPerRun
// truncates its average, so runs that step a finished process would round
// one allocation per performed round down to 0. The instance must have
// more working processes than the pin has runs, since each performs at
// least one round before it can finish.
func stepWorking(t *testing.T, inst stepper) func() {
	working := make([]int, 0, inst.N())
	subset := make([]int, 1)
	step := 0
	return func() {
		working = inst.AppendWorking(working[:0])
		if len(working) == 0 {
			t.Fatal("no working process left to step")
		}
		subset[0] = working[step%len(working)]
		if len(inst.Step(subset)) != 1 {
			t.Fatalf("process %d performed no round", subset[0])
		}
		step++
	}
}

func TestInstanceStepZeroAllocs(t *testing.T) {
	const n = 256 // > the 201 runs of AllocsPerRun(200, …): see stepWorking
	for _, alg := range []string{"six", "five", "fast", "mis-greedy", "mis-impatient", "ssb-greedy"} {
		t.Run(alg, func(t *testing.T) {
			d, err := Lookup(alg)
			if err != nil {
				t.Fatal(err)
			}
			xs := ids.MustGenerate(ids.Random, n, 5)
			inst, err := d.NewInstance(xs, sim.ModeInterleaved, nil)
			if err != nil {
				t.Fatal(err)
			}
			inst.Step([]int{0, 1, 2}) // warm the engine's scratch buffers
			if a := testing.AllocsPerRun(200, stepWorking(t, inst)); a != 0 {
				t.Errorf("warm Step through the registry instance allocates %v/op, want 0", a)
			}
			if a := testing.AllocsPerRun(200, func() { inst.FingerprintHash128() }); a != 0 {
				t.Errorf("FingerprintHash128 through the registry instance allocates %v/op, want 0", a)
			}
		})
	}
}

// TestRenamingInstanceStepAllocsNoOverhead: renaming's Observe allocates
// in its own right (its list of proposed names), so a zero pin is
// impossible — instead pin that the registry indirection adds nothing on
// top: the same steps allocate as much through the descriptor-built
// instance as through an engine built directly from renaming's nodes.
func TestRenamingInstanceStepAllocsNoOverhead(t *testing.T) {
	const n = 256 // > the 201 runs of AllocsPerRun(200, …): see stepWorking
	d, err := Lookup("renaming")
	if err != nil {
		t.Fatal(err)
	}
	xs := ids.MustGenerate(ids.Random, n, 5)
	inst, err := d.NewInstance(xs, sim.ModeInterleaved, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.NewEngine(g, renaming.NewNodes(xs))
	if err != nil {
		t.Fatal(err)
	}
	inst.Step([]int{0, 1, 2})
	direct.Step([]int{0, 1, 2})
	want := testing.AllocsPerRun(200, stepWorking(t, direct))
	if a := testing.AllocsPerRun(200, stepWorking(t, inst)); a != want {
		t.Errorf("warm renaming Step allocates %v/op through the registry, %v/op on the engine itself", a, want)
	}
}
