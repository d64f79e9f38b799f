package protocol

import (
	"math"
	"math/big"
	"reflect"
	"strings"
	"testing"

	"asynccycle/internal/contract"
	"asynccycle/internal/ids"
	"asynccycle/internal/model"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

func TestLookupNamesAndAliases(t *testing.T) {
	cases := []struct{ query, want string }{
		{"six", "six"}, {"pair", "six"}, {"alg1", "six"},
		{"five", "five"}, {"alg2", "five"},
		{"fast", "fast"}, {"alg3", "fast"},
		{"FAST", "fast"}, {" five ", "five"},
		{"mis-greedy", "mis-greedy"}, {"mis-impatient", "mis-impatient"},
		{"renaming", "renaming"},
		{"ssb-greedy", "ssb-greedy"}, {"ssb-impatient", "ssb-impatient"},
		{"decoupled-three", "decoupled-three"}, {"three", "decoupled-three"},
		{"local-cv", "local-cv"}, {"locale", "local-cv"},
	}
	for _, c := range cases {
		d, err := Lookup(c.query)
		if err != nil {
			t.Errorf("Lookup(%q): %v", c.query, err)
			continue
		}
		if d.Name != c.want {
			t.Errorf("Lookup(%q) = %q, want %q", c.query, d.Name, c.want)
		}
	}
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), `unknown algorithm "nope"`) {
		t.Errorf("Lookup(nope) error = %v, want unknown-algorithm listing the registry", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	base := func() *Descriptor {
		return &Descriptor{
			Name:     "tmp-proto",
			Problem:  "p",
			Topology: cycleTopology,
			Contract: bareContract("tmp", contract.Convergence),
			Run: func([]int, RunOptions) (sim.Result, runctl.StopReason, error) {
				return sim.Result{}, runctl.StopNone, nil
			},
		}
	}
	for _, c := range []struct {
		label string
		mut   func(*Descriptor)
	}{
		{"empty name", func(d *Descriptor) { d.Name = "" }},
		{"no problem", func(d *Descriptor) { d.Problem = "" }},
		{"no topology", func(d *Descriptor) { d.Topology = nil }},
		{"no contract", func(d *Descriptor) { d.Contract = nil }},
		{"no run", func(d *Descriptor) { d.Run = nil }},
		{"duplicate of builtin", func(d *Descriptor) { d.Name = "five" }},
		{"alias collides with builtin", func(d *Descriptor) { d.Aliases = []string{"alg2"} }},
	} {
		d := base()
		c.mut(d)
		// Fatal, not Errorf: an accepted descriptor would pollute the
		// global registry for every later test.
		if err := Register(d); err == nil {
			t.Fatalf("%s: Register accepted an invalid descriptor", c.label)
		}
	}
}

func TestCapabilitiesAndModes(t *testing.T) {
	caps := map[string]string{
		"six":             "run,conc,check,worst,sweep,fuzz,big",
		"five":            "run,conc,check,worst,sweep,fuzz,big",
		"fast":            "run,conc,check,worst,sweep,fuzz,big",
		"mis-greedy":      "run,conc,check,worst,fuzz",
		"renaming":        "run,conc,check,worst,fuzz",
		"decoupled-three": "run,check,fuzz",
		"local-cv":        "run",
	}
	for name, want := range caps {
		d, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Capabilities(); got != want {
			t.Errorf("%s capabilities = %q, want %q", name, got, want)
		}
	}
	six, _ := Lookup("six")
	if !six.SupportsMode(sim.ModeInterleaved) || !six.SupportsMode(sim.ModeSimultaneous) {
		t.Error("six must support both activation semantics")
	}
	dec, _ := Lookup("decoupled-three")
	if !dec.SupportsMode(sim.ModeInterleaved) || dec.SupportsMode(sim.ModeSimultaneous) {
		t.Error("decoupled-three is native-only: addressed as interleaved, never simultaneous")
	}
	if dec.DefaultCheckDepth <= 0 {
		t.Error("decoupled-three needs a default check depth: its state graph is infinite")
	}
}

func TestBounds(t *testing.T) {
	for _, c := range []struct {
		alg  string
		n    int
		want int
	}{
		{"six", 10, 19},  // ⌊3n/2⌋+4
		{"five", 10, 38}, // 3n+8
		{"renaming", 4, 6},
		{"mis-impatient", 7, 5}, // patience 2 + 3
	} {
		d, err := Lookup(c.alg)
		if err != nil {
			t.Fatal(err)
		}
		if d.Bound == nil {
			t.Errorf("%s: no bound", c.alg)
			continue
		}
		if got := d.Bound(c.n); got != c.want {
			t.Errorf("%s.Bound(%d) = %d, want %d", c.alg, c.n, got, c.want)
		}
	}
	// fast's O(log* n) budget grows with n, however slowly.
	fast, err := Lookup("fast")
	if err != nil {
		t.Fatal(err)
	}
	if small, big := fast.Bound(1024), fast.Bound(1<<20); small > big {
		t.Errorf("fast bound not monotone: Bound(1024) = %d > Bound(2^20) = %d", small, big)
	}
	for _, alg := range []string{"mis-greedy", "ssb-greedy", "ssb-impatient"} {
		d, err := Lookup(alg)
		if err != nil {
			t.Fatal(err)
		}
		if d.Bound != nil {
			t.Errorf("%s documents no wait-freedom bound; Bound must be nil", alg)
		}
	}
}

func TestWriteListCoversRegistry(t *testing.T) {
	var sb strings.Builder
	if err := WriteList(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range Names() {
		if !strings.Contains(out, name) {
			t.Errorf("WriteList output missing %q", name)
		}
	}
}

// TestRunMatchesEngine pins the derived Run closure against a direct
// engine execution: same scheduler, same steps, same outputs.
func TestRunMatchesEngine(t *testing.T) {
	d, err := Lookup("five")
	if err != nil {
		t.Fatal(err)
	}
	xs := []int{4, 0, 3, 1, 5}
	res, reason, err := d.Run(xs, RunOptions{Scheduler: schedule.NewRoundRobin(1), MaxSteps: 10_000})
	if err != nil || reason != runctl.StopNone {
		t.Fatalf("Run: reason=%v err=%v", reason, err)
	}
	inst, err := d.NewInstance(xs, sim.ModeInterleaved, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr := schedule.NewRoundRobin(1)
	for !inst.AllSettled() {
		inst.Step(rr.Next(inst, nil))
	}
	got := inst.Result()
	if got.Steps != res.Steps {
		t.Errorf("steps: Run=%d instance=%d", res.Steps, got.Steps)
	}
	for i := range xs {
		if got.Outputs[i] != res.Outputs[i] {
			t.Errorf("output %d: Run=%d instance=%d", i, res.Outputs[i], got.Outputs[i])
		}
	}
}

// TestDecoupledCheckDepthBounded pins the depth-bounded exploration of the
// infinite DECOUPLED tick graph on the smallest cycle.
func TestDecoupledCheckDepthBounded(t *testing.T) {
	d, err := Lookup("decoupled-three")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Check([]int{0, 1, 2}, sim.ModeInterleaved, model.Options{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 || rep.CycleFound {
		t.Errorf("decoupled-three C3: violations=%d cycle=%t, want clean", len(rep.Violations), rep.CycleFound)
	}
	if !rep.Truncated {
		t.Error("depth-bounded exploration of an infinite graph must report Truncated")
	}
	if rep.States != 3899 {
		t.Errorf("C3 depth-6 subset exploration states = %d, want 3899 (determinism pin)", rep.States)
	}
}

// TestDecoupledCheckSpillMatchesInRAM: decoupled-three's Check runs on the
// shared DFS, so a visited set spilled at 5,000 resident keys reports
// exactly what the in-RAM one does on C4's 111,500 states.
func TestDecoupledCheckSpillMatchesInRAM(t *testing.T) {
	d, err := Lookup("decoupled-three")
	if err != nil {
		t.Fatal(err)
	}
	xs := []int{0, 1, 2, 3}
	ram, err := d.Check(xs, sim.ModeInterleaved, model.Options{MaxDepth: d.DefaultCheckDepth})
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := d.Check(xs, sim.ModeInterleaved, model.Options{
		MaxDepth: d.DefaultCheckDepth, SpillDir: t.TempDir(), SpillMemLimit: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ram.States != 111500 || ram.Terminal != 747 {
		t.Errorf("in-RAM C4 check: %s, want states=111500 terminal=747", ram)
	}
	if !reflect.DeepEqual(spilled, ram) {
		t.Errorf("spilled check drifted:\nspilled %+v\nin RAM  %+v", spilled, ram)
	}
}

// TestDecoupledRunHonorsActivationBudget: decoupled-three's budgeted Run
// stops on Budget.MaxActivations like every other engine, reporting the
// trip as a PARTIAL stop instead of silently running to completion.
func TestDecoupledRunHonorsActivationBudget(t *testing.T) {
	d, err := Lookup("decoupled-three")
	if err != nil {
		t.Fatal(err)
	}
	res, reason, err := d.Run(ids.MustGenerate(ids.Increasing, 12, 0), RunOptions{
		Scheduler: schedule.NewRoundRobin(1),
		MaxSteps:  10_000,
		Budget:    runctl.Budget{MaxActivations: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, a := range res.Activations {
		total += a
	}
	if reason != runctl.StopActivations || total != 3 {
		t.Fatalf("reason=%q after %d activations (%d terminated), want %q after exactly 3",
			reason, total, res.TerminatedCount(), runctl.StopActivations)
	}
}

// TestCrashPlanResidues: every pick is the non-negative residue of
// 7919·i + seed mod n, also for negative seeds and seeds at the int64
// limits, and a plan whose old formula did not overflow is unchanged.
func TestCrashPlanResidues(t *testing.T) {
	for _, n := range []int{3, 8, 1000, 7919} {
		for _, seed := range []int64{0, 1, -3, math.MaxInt64, math.MinInt64} {
			count := n / 2
			want, old := map[int]int{}, map[int]int{}
			for i := 0; i < count; i++ {
				r := new(big.Int).Add(big.NewInt(int64(7919*i)), big.NewInt(seed))
				want[int(r.Mod(r, big.NewInt(int64(n))).Int64())] = i % 5
				old[(i*7919+int(seed))%n] = i % 5
			}
			got := CrashPlan(0.5, n, seed)
			for p := range got {
				if p < 0 || p >= n {
					t.Errorf("n=%d seed=%d: pick %d outside [0, %d)", n, seed, p, n)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d seed=%d: plan %v, want %v", n, seed, got, want)
			}
			if seed >= 0 && seed <= math.MaxInt64-int64(7919*count) && !reflect.DeepEqual(got, old) {
				t.Errorf("n=%d seed=%d: plan %v differs from the old formula's %v", n, seed, got, old)
			}
		}
	}
}
