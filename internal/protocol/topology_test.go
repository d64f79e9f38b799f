package protocol

import (
	"errors"
	"testing"

	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/schedule"
)

func TestWithTopologyNativeNoOp(t *testing.T) {
	for _, name := range []string{"six", "dp1", "five", "fast", "mis-greedy"} {
		d, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"", "cycle"} {
			dd, err := WithTopology(d, spec)
			if err != nil {
				t.Fatalf("%s %q: %v", name, spec, err)
			}
			if dd != d {
				t.Errorf("%s %q: expected the registered descriptor itself", name, spec)
			}
		}
	}
	d, err := Lookup("renaming")
	if err != nil {
		t.Fatal(err)
	}
	if dd, err := WithTopology(d, "complete"); err != nil || dd != d {
		t.Errorf("renaming complete: (%v, %v), want the registered descriptor", dd, err)
	}
}

func TestWithTopologyRetargetClearsCycleSurfaces(t *testing.T) {
	d, err := Lookup("six")
	if err != nil {
		t.Fatal(err)
	}
	dd, err := WithTopology(d, "torus")
	if err != nil {
		t.Fatal(err)
	}
	if dd == d {
		t.Fatal("retarget returned the registered descriptor")
	}
	if dd.TopologyName != "torus" {
		t.Errorf("TopologyName = %q", dd.TopologyName)
	}
	if dd.Bound != nil || dd.BoundDesc != "" {
		t.Error("cycle wait-freedom bound survived an off-family retarget")
	}
	if dd.BigKernel != nil {
		t.Error("ring-indexed BigKernel survived an off-family retarget")
	}
	if dd.MinN != 9 {
		t.Errorf("MinN = %d, want the torus family minimum 9", dd.MinN)
	}
	if dd.FixN == nil || dd.FixN(10) != 12 {
		t.Error("retarget did not adopt the torus FixN")
	}
	// The cycle precondition (proper-on-cycle ids) is replaced by plain
	// distinctness: [0,1,0,...] properly colors C_12 but repeats ids.
	repeating := make([]int, 12)
	for i := range repeating {
		repeating[i] = i % 2
	}
	if err := dd.ValidateIDs(repeating); err == nil {
		t.Error("off-family ValidateIDs accepted repeated identifiers")
	}
	if err := dd.ValidateIDs(ids.MustGenerate(ids.Increasing, 12, 0)); err != nil {
		t.Errorf("off-family ValidateIDs rejected distinct identifiers: %v", err)
	}
	// The registry itself is untouched.
	again, err := Lookup("six")
	if err != nil {
		t.Fatal(err)
	}
	if again.TopologyName != "cycle" || again.BigKernel == nil || again.Bound == nil {
		t.Error("retargeting mutated the registered descriptor")
	}
	// The retargeted copy is fully functional: run on T3x4 and verify.
	g, err := dd.Topology(12)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "T3x4" {
		t.Fatalf("Topology(12) = %s", g.Name())
	}
	res, _, err := dd.Run(ids.MustGenerate(ids.Random, 12, 3), RunOptions{
		Scheduler: schedule.NewRoundRobin(2),
		Crashes:   map[int]int{5: 1},
		MaxSteps:  20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dd.Verdicts(g, res) {
		if v.Err != nil {
			t.Errorf("six on torus: %s: %v", v.Name, v.Err)
		}
	}
}

func TestWithTopologyShuffledCycleKeepsBoundDropsBig(t *testing.T) {
	d, err := Lookup("six")
	if err != nil {
		t.Fatal(err)
	}
	dd, err := WithTopology(d, "cycle+shuffled:3")
	if err != nil {
		t.Fatal(err)
	}
	if dd == d {
		t.Fatal("shuffled cycle must retarget (bigsim assumes canonical neighbor order)")
	}
	if dd.Bound == nil {
		t.Error("same-family shuffle cleared the wait-freedom bound (adjacency is unchanged)")
	}
	if dd.BigKernel != nil {
		t.Error("BigKernel survived a shuffled-neighbor retarget")
	}
}

func TestWithTopologyRefusals(t *testing.T) {
	cases := []struct{ alg, spec string }{
		{"five", "complete"},   // palette-5 argument needs Δ ≤ 2
		{"fast", "torus"},      // CV reduction needs degree ≤ 2
		{"mis-greedy", "path"}, // cycle MIS only
		{"renaming", "cycle"},  // complete-graph task
		{"decoupled-three", "torus"},
		{"local-cv", "complete"},
	}
	for _, c := range cases {
		d, err := Lookup(c.alg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WithTopology(d, c.spec); !errors.Is(err, ErrTopology) {
			t.Errorf("WithTopology(%s, %q) = %v, want ErrTopology", c.alg, c.spec, err)
		}
	}
	d, err := Lookup("six")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WithTopology(d, "mobius"); !errors.Is(err, graph.ErrUnknownTopology) {
		t.Errorf("unknown spec: %v, want graph.ErrUnknownTopology", err)
	}
}

func TestCheckBigTopology(t *testing.T) {
	for _, spec := range []string{"", "cycle"} {
		if err := CheckBigTopology(spec); err != nil {
			t.Errorf("CheckBigTopology(%q) = %v, want nil", spec, err)
		}
	}
	for _, spec := range []string{"torus", "path", "complete", "random:4:1", "cycle+shuffled:2"} {
		if err := CheckBigTopology(spec); !errors.Is(err, ErrBigTopology) {
			t.Errorf("CheckBigTopology(%q) = %v, want ErrBigTopology", spec, err)
		}
	}
	if err := CheckBigTopology("mobius"); !errors.Is(err, graph.ErrUnknownTopology) {
		t.Errorf("CheckBigTopology(mobius) = %v, want graph.ErrUnknownTopology", err)
	}
}
