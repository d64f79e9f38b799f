package model

// Correctness audit of the checker hot paths: the engine free list (clone
// recycling must be immune to stale state in released engines) and the
// crash wrappers (workingSet/subsets must expose exactly the schedules the
// simulator can realize under the same crash plan).

import (
	"testing"

	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/sim"
)

func fiveC(t *testing.T, n int) *sim.Engine[core.FiveVal] {
	t.Helper()
	e, err := sim.NewEngine(graph.MustCycle(n), core.NewFiveNodes(ids.MustGenerate(ids.Increasing, n, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestFreeListPoisoningIsHarmless is the free-list audit: while a DFS is
// running, scribble hard on every engine sitting in the free list — step
// it, crash it, arm crash limits, flip its mode — and require the final
// report to be byte-identical to a clean run. This pins the CloneInto
// contract the recycler depends on: every field of a reused engine is
// overwritten from the source, so no stale state (including crash limits
// and the in-set dedup marks) can leak into a fresh branch.
func TestFreeListPoisoningIsHarmless(t *testing.T) {
	run := func(poison bool) Report {
		opt := Options{SingletonsOnly: true}
		x := newExplorer[core.FiveVal](opt)
		if poison {
			x.inv = func(e *sim.Engine[core.FiveVal]) error {
				for _, f := range x.free {
					for p := 0; p < f.N(); p++ {
						if f.Working(p) {
							f.Step([]int{p})
							break
						}
					}
					f.Crash(0)
					f.CrashAfter(1, 2)
					f.SetMode(sim.ModeSimultaneous)
				}
				return nil
			}
		}
		x.dfs(fiveC(t, 4), 0)
		return x.report
	}
	clean := run(false)
	dirty := run(true)
	if clean.States != dirty.States || clean.Terminal != dirty.Terminal ||
		clean.CycleFound != dirty.CycleFound || clean.DeepestPath != dirty.DeepestPath ||
		clean.Truncated != dirty.Truncated {
		t.Errorf("poisoning the free list changed the exploration:\nclean %v\ndirty %v", clean, dirty)
	}
	if clean.States == 0 || clean.Terminal == 0 {
		t.Fatalf("audit ran on a trivial instance: %v", clean)
	}
}

// TestWorkingSetRespectsCrashWrappers audits the schedule enumeration
// against the engine's crash state: crashed and terminated processes must
// never appear in an activation set, and singleton enumeration must cover
// exactly the working processes.
func TestWorkingSetRespectsCrashWrappers(t *testing.T) {
	e := fiveC(t, 5)
	e.Crash(1)
	e.CrashAfter(3, 1)
	e.Step([]int{3}) // exhausts 3's limit: it crashes after this activation
	w := workingSet(e)
	want := []int{0, 2, 4}
	if len(w) != len(want) {
		t.Fatalf("working set %v, want %v", w, want)
	}
	for i := range w {
		if w[i] != want[i] {
			t.Fatalf("working set %v, want %v", w, want)
		}
	}
	singles := subsets(w, true)
	if len(singles) != len(want) {
		t.Fatalf("singleton enumeration %v over %v", singles, w)
	}
	for i, s := range singles {
		if len(s) != 1 || s[0] != want[i] {
			t.Fatalf("singleton enumeration %v over %v", singles, w)
		}
	}
	if all := subsets(w, false); len(all) != (1<<len(w))-1 {
		t.Fatalf("full subset enumeration has %d sets over %d working processes", len(all), len(w))
	}
}

// TestCrashScheduleEquivalence checks the model checker against the
// simulator on a crash-limited instance: every configuration a concrete
// sim run can reach under the root's crash plan must be in the checker's
// visited set, and that set must be exactly as large as the exact
// string-keyed reference walk's (so no two configurations were conflated).
// Since a crash limit is part of the engine and survives Clone, the
// checker's schedule enumeration is exactly the simulator's reachable
// schedule space.
func TestCrashScheduleEquivalence(t *testing.T) {
	mkRoot := func() *sim.Engine[core.FiveVal] {
		e := fiveC(t, 4)
		e.CrashAfter(0, 1)
		e.CrashAfter(2, 2)
		return e
	}

	opt := Options{SingletonsOnly: true}
	x := newExplorer[core.FiveVal](opt)
	x.collectKeys = true
	x.keys = make(map[stateKey]int)
	x.terminalKeys = make(map[stateKey]struct{})
	x.dfs(mkRoot(), 0)
	if x.report.Truncated {
		t.Fatalf("exploration truncated, equivalence vacuous: %v", x.report)
	}
	if ref := RefExplore(mkRoot(), false, DefaultMaxDepth); len(x.keys) != ref.States {
		t.Fatalf("checker visited %d configurations, exact string reference %d", len(x.keys), ref.States)
	}
	visited := func(e *sim.Engine[core.FiveVal]) bool {
		h1, h2 := e.FingerprintHash128()
		_, ok := x.keys[stateKey{h1: h1, h2: h2}]
		return ok
	}

	// Replay pseudo-random singleton schedules (deterministic LCG) through
	// the simulator and require every intermediate configuration to be in
	// the checker's visited set.
	seed := uint32(1)
	next := func(bound int) int {
		seed = seed*1664525 + 1013904223
		return int(seed>>8) % bound
	}
	for run := 0; run < 50; run++ {
		e := mkRoot().Clone()
		if !visited(e) {
			t.Fatalf("run %d: initial configuration not visited", run)
		}
		for step := 0; step < 64; step++ {
			w := workingSet(e)
			if len(w) == 0 {
				break
			}
			e.Step([]int{w[next(len(w))]})
			if !visited(e) {
				t.Fatalf("run %d step %d: simulator reached a configuration the checker never visited:\n%s",
					run, step, e.Fingerprint())
			}
		}
	}
}
