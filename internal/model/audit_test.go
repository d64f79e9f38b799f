package model

// Correctness audit of the checker hot paths: in-place expansion (the
// spare nodes of idle undo records must not leak into any explored
// state) and the crash wrappers (AppendWorking and the activation sets
// must expose exactly the schedules the simulator can realize under the
// same crash plan).

import (
	"fmt"
	"testing"

	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/ooc"
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

// TestSparePoisoningIsHarmless is the undo-record audit. While a DFS is
// running, the invariant scribbles on every idle record — those of the
// current depth and deeper, whose spares no installed step uses — by
// stepping a foreign engine through the record and back, which leaves
// the foreign nodes' stepped state in the spares and the foreign
// processes in the saved fields. The report must match a clean run byte
// for byte, and the clean run the exact string-keyed reference walk. This
// pins what in-place expansion relies on: StepUndo overwrites a spare in
// full before installing it, and Undo restores everything a step changed.
func TestSparePoisoningIsHarmless(t *testing.T) {
	junkIDs := []int{7, 3, 9, 1}
	for _, singletons := range []bool{true, false} {
		run := func(poison bool) Report {
			x := newExplorer[*sim.Engine[core.FiveVal], sim.Undo[core.FiveVal], struct{}](Options{SingletonsOnly: singletons})
			var junk *sim.Engine[core.FiveVal]
			scribbles := 0
			if poison {
				x.inv = func(e *sim.Engine[core.FiveVal]) error {
					for _, b := range x.exp[min(len(x.path), len(x.exp)):] {
						if junk == nil || junk.AllSettled() {
							junk, _ = sim.NewEngine(graph.MustCycle(4), core.NewFiveNodes(junkIDs))
							junk.Step([]int{0, 2})
						}
						all := junk.AppendWorking(nil)
						junk.StepUndo(all, &b.undo)
						junk.Undo(&b.undo)
						junk.Step(all[:1])
						scribbles++
					}
					return nil
				}
			}
			root := fiveC(t, 4)
			root.CrashAfter(1, 2)
			rep, _ := x.explore(root)
			if poison && scribbles == 0 {
				t.Fatal("the audit scribbled on no record")
			}
			return rep
		}
		clean, dirty := run(false), run(true)
		if c, d := fmt.Sprintf("%+v", clean), fmt.Sprintf("%+v", dirty); c != d {
			t.Errorf("singletons=%t: poisoning idle undo records changed the exploration:\nclean %s\ndirty %s", singletons, c, d)
		}
		if clean.States == 0 || clean.Terminal == 0 {
			t.Fatalf("audit ran on a trivial instance: %v", clean)
		}
		if singletons {
			root := fiveC(t, 4)
			root.CrashAfter(1, 2)
			if ref := RefExplore(root, DefaultMaxDepth); clean.States != ref.States || clean.Terminal != ref.Terminal {
				t.Errorf("in-place DFS found states=%d terminal=%d, exact reference %d and %d", clean.States, clean.Terminal, ref.States, ref.Terminal)
			}
		}
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
	w := e.AppendWorking(nil)
	want := []int{0, 2, 4}
	if len(w) != len(want) {
		t.Fatalf("working set %v, want %v", w, want)
	}
	for i := range w {
		if w[i] != want[i] {
			t.Fatalf("working set %v, want %v", w, want)
		}
	}
	b := setBuf{working: w}
	singles := b.activationSets(true)
	if len(singles) != len(want) {
		t.Fatalf("singleton enumeration %v over %v", singles, w)
	}
	for i, s := range singles {
		if len(s) != 1 || s[0] != want[i] {
			t.Fatalf("singleton enumeration %v over %v", singles, w)
		}
	}
	if all := b.activationSets(false); len(all) != (1<<len(w))-1 {
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
	x := newExplorer[*sim.Engine[core.FiveVal], sim.Undo[core.FiveVal], struct{}](opt)
	keys := recordKeys(x, nil)
	x.dfs(mkRoot(), 0)
	if x.report.Truncated {
		t.Fatalf("exploration truncated, equivalence vacuous: %v", x.report)
	}
	if ref := RefExplore(mkRoot(), DefaultMaxDepth); len(keys) != ref.States {
		t.Fatalf("checker visited %d configurations, exact string reference %d", len(keys), ref.States)
	}
	visited := func(e *sim.Engine[core.FiveVal]) bool {
		h1, h2 := e.FingerprintHash128()
		_, ok := keys[ooc.Key{H1: h1, H2: h2}]
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
