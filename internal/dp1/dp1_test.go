package dp1_test

// The dp1 tests exercise the protocol through the registry surface —
// protocol.Lookup + protocol.WithTopology — exactly as the CLIs do, so a
// registration or retargeting regression fails here, not just in a smoke
// job.

import (
	"testing"

	"asynccycle/internal/dp1"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/model"
	"asynccycle/internal/protocol"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

func lookup(t *testing.T, spec string) *protocol.Descriptor {
	t.Helper()
	d, err := protocol.Lookup("dp1")
	if err != nil {
		t.Fatal(err)
	}
	dd, err := protocol.WithTopology(d, spec)
	if err != nil {
		t.Fatal(err)
	}
	return dd
}

// TestCertifiedSmallN is the (Δ+1)-certification the descriptor's
// Expectation claims: exhaustive exploration over every schedule (and
// every crash pattern the checker models) finds zero validity violations —
// proper coloring with palette {0..Δ} at every reachable configuration —
// on the cycle, the complete graph, and the path, in both activation
// modes. The livelock verdicts are pinned too: dp1 terminates under every
// interleaved schedule at these sizes, while simultaneous lockstep admits
// the F1-style symmetric claim oscillation (perfect-renaming
// impossibility), which is exactly what the Expectation text records.
func TestCertifiedSmallN(t *testing.T) {
	cases := []struct {
		spec      string
		n         int
		mode      sim.Mode
		wantCycle bool
	}{
		{"", 4, sim.ModeInterleaved, false},
		{"", 4, sim.ModeSimultaneous, true},
		{"complete", 3, sim.ModeInterleaved, false},
		{"complete", 3, sim.ModeSimultaneous, true},
		{"complete", 4, sim.ModeInterleaved, false},
		{"path", 5, sim.ModeInterleaved, false},
	}
	for _, tc := range cases {
		d := lookup(t, tc.spec)
		xs := ids.MustGenerate(ids.Increasing, tc.n, 0)
		// The simultaneous-mode livelock paths run past the model package's
		// 256-step default horizon (deepest acyclic path is 258 on C4);
		// depth 512 makes every cell exhaustive.
		rep, err := d.Check(xs, tc.mode, model.Options{MaxDepth: 512})
		if err != nil {
			t.Fatalf("%q n=%d %v: %v", tc.spec, tc.n, tc.mode, err)
		}
		if rep.Truncated {
			t.Errorf("%q n=%d %v: truncated — not an exhaustive certificate", tc.spec, tc.n, tc.mode)
		}
		if len(rep.Violations) > 0 {
			t.Errorf("%q n=%d %v: %d violations, first: %s", tc.spec, tc.n, tc.mode, len(rep.Violations), rep.Violations[0])
		}
		if rep.CycleFound != tc.wantCycle {
			t.Errorf("%q n=%d %v: CycleFound=%v, want %v", tc.spec, tc.n, tc.mode, rep.CycleFound, tc.wantCycle)
		}
	}
}

// TestTorusBounded runs the checker on the 3×3 torus (Δ = 4, n = 9). The
// full state space is out of unit-test reach, so the sweep is
// state-budgeted and the certificate is PARTIAL — like E19's
// decoupled-three cell — but every explored configuration must satisfy
// the (Δ+1) validity invariant.
func TestTorusBounded(t *testing.T) {
	d := lookup(t, "torus")
	if d.FixN == nil || d.FixN(9) != 9 {
		t.Fatal("torus retarget lost FixN")
	}
	xs := ids.MustGenerate(ids.Increasing, 9, 0)
	rep, err := d.Check(xs, sim.ModeInterleaved, model.Options{MaxStates: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Log("torus 3×3 explored exhaustively — consider dropping the budget")
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("torus 3×3: %d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
}

// TestRunOnDeclaredTopologies runs one deterministic interleaved execution
// per declared family and checks the verdicts the colorcycle CLI would
// print, crash plan included.
func TestRunOnDeclaredTopologies(t *testing.T) {
	for _, spec := range []string{"", "path", "complete", "torus", "random:4:1", "random:3:7+shuffled:2"} {
		d := lookup(t, spec)
		n := 12
		if d.FixN != nil {
			n = d.FixN(n)
		}
		xs := ids.MustGenerate(ids.Random, n, 42)
		if err := d.ValidateIDs(xs); err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		g, err := d.Topology(n)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := d.Run(xs, protocol.RunOptions{
			Scheduler: schedule.NewRandomSubset(0.4, 7),
			Crashes:   map[int]int{1: 2},
			MaxSteps:  20000,
		})
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		for _, v := range d.Verdicts(g, res) {
			if v.Err != nil {
				t.Errorf("%q: %s: %v", spec, v.Name, v.Err)
			}
		}
	}
}

// TestSoloProgress pins the frozen-register escape: a process whose
// neighbors have all crashed returns within a handful of its own
// activations, because mex always escapes a fixed claim set.
func TestSoloProgress(t *testing.T) {
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(g, dp1.NewNodes([]int{10, 20, 30, 40}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		e.CrashAfter(i, 2) // two rounds each, then silence
	}
	res, err := e.Run(schedule.Synchronous{}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done[0] {
		t.Fatal("survivor did not terminate against crashed neighbors")
	}
}

// TestNeighborsNotMutatedByEngine is the Graph.Neighbors aliasing
// regression (same class as the PR 3 Replay.Next bug): Neighbors returns
// the internal adjacency slice, so any engine-side mutation of a view
// would silently corrupt the topology for every later reader. A full run
// must leave the adjacency byte-identical.
func TestNeighborsNotMutatedByEngine(t *testing.T) {
	g, err := graph.RandomBoundedDegree(10, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]int, g.N())
	for u := 0; u < g.N(); u++ {
		before[u] = append([]int(nil), g.Neighbors(u)...)
	}
	e, err := sim.NewEngine(g, dp1.NewNodes(ids.MustGenerate(ids.Random, g.N(), 5)))
	if err != nil {
		t.Fatal(err)
	}
	e.CrashAfter(3, 1)
	if _, err := e.Run(schedule.NewRandomSubset(0.5, 9), 20000); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		got := g.Neighbors(u)
		if len(got) != len(before[u]) {
			t.Fatalf("node %d adjacency length changed: %v -> %v", u, before[u], got)
		}
		for i := range got {
			if got[i] != before[u][i] {
				t.Fatalf("node %d adjacency mutated: %v -> %v", u, before[u], got)
			}
		}
	}
}

// TestInterimPairsProper pins the AG-stage claim: once locked, the frozen
// interim pairs properly color the locked subgraph with a+b ≤ Δ — the
// O(Δ²) interim coloring the reduction stage starts from.
func TestInterimPairsProper(t *testing.T) {
	g, err := graph.RandomBoundedDegree(16, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	nodes := dp1.NewNodes(ids.MustGenerate(ids.Random, g.N(), 13))
	e, err := sim.NewEngine(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(schedule.NewRoundRobin(3), 20000); err != nil {
		t.Fatal(err)
	}
	maxDeg := g.MaxDegree()
	for _, edge := range g.Edges() {
		u := nodes[edge[0]].(*dp1.Node)
		v := nodes[edge[1]].(*dp1.Node)
		if !u.Locked() || !v.Locked() {
			t.Fatalf("edge %v: node not locked after full run", edge)
		}
		ua, ub := u.Interim()
		va, vb := v.Interim()
		if ua == va && ub == vb {
			t.Errorf("edge %v: equal interim pairs (%d,%d)", edge, ua, ub)
		}
		if ua+ub > maxDeg || va+vb > maxDeg {
			t.Errorf("edge %v: interim pair outside a+b ≤ Δ=%d", edge, maxDeg)
		}
	}
}
