package expt

import (
	"fmt"

	"asynccycle/internal/ablation"
	"asynccycle/internal/check"
	"asynccycle/internal/core"
	"asynccycle/internal/decoupled"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/mis"
	"asynccycle/internal/model"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

// E14Decoupled reproduces the separation from the DECOUPLED related work
// (§1.4, [13], [18]): the synchronous communication layer makes wake-up
// order common knowledge, so asynchronous crash-prone processes 3-color
// the cycle — two fewer colors than the five that are provably necessary
// in the paper's fully asynchronous state model (Property 2.3).
func E14Decoupled(o Options) *Table {
	t := &Table{
		ID:      "E14",
		Title:   "DECOUPLED separation (§1.4): 3 colors suffice with a synchronous layer, vs 5 without",
		Columns: []string{"n", "scheduler", "initial crashes", "survivors colored", "colors used", "comm rounds", "proper"},
	}
	sizes := []int{8, 32, 128}
	if !o.Quick {
		sizes = append(sizes, 512)
	}
	specs := []schedSpec{
		{"synchronous", func(int64) schedule.Scheduler { return schedule.Synchronous{} }},
		{"random-subset(p=0.40)", func(s int64) schedule.Scheduler { return schedule.NewRandomSubset(0.4, s) }},
		{"round-robin(1)", func(int64) schedule.Scheduler { return schedule.NewRoundRobin(1) }},
	}
	type cell struct {
		n    int
		spec schedSpec
	}
	type result struct {
		crashes, colors, rounds int
		allSurvivors, proper    bool
		note                    string
	}
	var cells []cell
	for _, n := range sizes {
		for _, sp := range specs {
			cells = append(cells, cell{n: n, spec: sp})
		}
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) result {
		n := c.n
		g := graph.MustCycle(n)
		xs := ids.MustGenerate(ids.Random, n, cellSeed(o.seed(), "E14", n))
		e, err := decoupled.NewEngine(g, decoupled.NewThreeColorNodes(xs))
		if err != nil {
			return result{note: fmt.Sprintf("n=%d: %v", n, err)}
		}
		r := result{}
		for i := 0; i < n; i += 5 {
			e.CrashAfter(i, 0) // never wakes
			r.crashes++
		}
		seed := cellSeed(o.seed(), "E14", n, c.spec.name)
		res, err := e.Run(c.spec.mk(seed), 1000*n+10_000)
		if err != nil {
			return result{note: fmt.Sprintf("n=%d %s: %v", n, c.spec.name, err)}
		}
		used := map[int]bool{}
		r.proper = true
		r.allSurvivors = true
		for i := 0; i < n; i++ {
			if res.Crashed[i] {
				continue
			}
			if !res.Done[i] {
				r.allSurvivors = false
				continue
			}
			used[res.Outputs[i]] = true
			j := (i + 1) % n
			if res.Done[j] && res.Outputs[i] == res.Outputs[j] {
				r.proper = false
			}
		}
		r.colors = len(used)
		r.rounds = res.CommRounds
		return r
	})
	for i, c := range cells {
		if !done[i] {
			continue
		}
		r := results[i]
		if r.note != "" {
			t.AddNote("%s", r.note)
			continue
		}
		t.AddRow(c.n, c.spec.name, r.crashes, r.allSurvivors, r.colors, r.rounds, r.proper)
	}
	t.AddNote("paper §1.4: DECOUPLED is strictly stronger — 3-coloring C3 is trivial there, impossible in the state model")
	t.AddNote("mid-protocol crash tolerance at 3 colors is the contribution of [13] and out of scope; initial crashes and committed crashes are handled")
	return t
}

// E15SSBReduction reproduces the construction inside Property 2.1's proof:
// a wait-free MIS algorithm on C_n would yield a wait-free strong
// symmetry-breaking algorithm on n shared-memory processes, contradicting
// Attiya & Paz. Each MIS candidate is wrapped onto K_n (our engine's
// shared-memory model) and model-checked against the SSB conditions.
func E15SSBReduction(o Options) *Table {
	t := &Table{
		ID:      "E15",
		Title:   "Property 2.1 reduction: MIS candidates wrapped as shared-memory SSB algorithms",
		Columns: []string{"candidate", "K_n", "states", "wait-free", "SSB conditions hold"},
	}
	sizes := []int{3, 4}
	type cell struct {
		n      int
		greedy bool
	}
	var cells []cell
	for _, n := range sizes {
		cells = append(cells, cell{n: n, greedy: true}, cell{n: n})
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) model.Report {
		alg := "ssb-impatient"
		if c.greedy {
			alg = "ssb-greedy"
		}
		return registryCheck(alg, ids.MustGenerate(ids.Increasing, c.n, 0))
	})
	for i, c := range cells {
		if !done[i] {
			continue
		}
		rep := results[i]
		label := "impatient(2)"
		if c.greedy {
			label = "greedy"
		}
		t.AddRow(label, c.n, rep.States, !rep.CycleFound, len(rep.Violations) == 0)
	}
	t.AddNote("no candidate is simultaneously wait-free and SSB-correct — exactly what the impossibility [6] mandates")
	return t
}

// E16ProgressClasses certifies the paper's §1.3 progress-hierarchy
// discussion on bounded instances: the identifier-reduction component of
// Algorithm 3, run standalone, is starvation-free but neither wait-free
// nor obstruction-free, while the full algorithm (its composition with
// the coloring component) is wait-free — "bootstrapping a wait-free
// algorithm from non-wait-free subcomponents".
func E16ProgressClasses(o Options) *Table {
	t := &Table{
		ID:      "E16",
		Title:   "Progress classes (§1.3): the reduction component alone vs the full Algorithm 3",
		Columns: []string{"algorithm", "wait-free", "obstruction-free", "starvation-free"},
	}
	xs := []int{12, 25, 18} // above the constant-identifier regime
	g := graph.MustCycle(3)
	opt := model.Options{SingletonsOnly: true, MaxStates: 500_000}

	algs := []struct {
		label string
		mk    func() []sim.Node[core.FastVal]
	}{
		{"reduction component only", func() []sim.Node[core.FastVal] { return ablation.NewNodes(xs, ablation.ReducerOnly) }},
		{"full Algorithm 3", func() []sim.Node[core.FastVal] { return core.NewFastNodes(xs) }},
	}
	type cell struct {
		alg   int    // index into algs, or -1 for greedy MIS
		check string // "explore" | "obstruction" | "fair"
	}
	checks := []string{"explore", "obstruction", "fair"}
	var cells []cell
	for ai := range algs {
		for _, ck := range checks {
			cells = append(cells, cell{alg: ai, check: ck})
		}
	}
	for _, ck := range checks {
		cells = append(cells, cell{alg: -1, check: ck})
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) bool {
		if c.alg >= 0 {
			e, _ := sim.NewEngine(g, algs[c.alg].mk())
			switch c.check {
			case "explore":
				return !model.Explore(e, opt, nil).CycleFound
			case "obstruction":
				counter, _ := model.ObstructionFree(e, opt, 25)
				return counter == ""
			default:
				fair, _ := model.FairlyTerminates(e, opt)
				return fair == ""
			}
		}
		e, _ := sim.NewEngine(g, mis.NewGreedyNodes(xs))
		switch c.check {
		case "explore":
			return !model.Explore(e, opt, nil).CycleFound
		case "obstruction":
			counter, _ := model.ObstructionFree(e, opt, 25)
			return counter == ""
		default:
			fair, _ := model.FairlyTerminates(e, opt)
			return fair == ""
		}
	})
	for i := 0; i < len(cells); i += len(checks) {
		if !rowComplete(done, i, i+len(checks)) {
			continue
		}
		label := "greedy MIS"
		if cells[i].alg >= 0 {
			label = algs[cells[i].alg].label
		}
		t.AddRow(label, results[i], results[i+1], results[i+2])
	}
	t.AddNote("paper §1.3: the second component is not wait-free by itself but offers starvation-free progress;")
	t.AddNote("the composition is wait-free — of independent interest. All three cells verified exhaustively on C3.")
	return t
}

// E17Ablations removes each mechanism of Algorithm 3 in turn and records
// what breaks: the green-light handshake guards Lemma 4.5; full
// neighborhood information guards both the invariant (evasion) and the
// O(log* n) bound (extremum freezing); the evasion step is a pure
// accelerator.
func E17Ablations(o Options) *Table {
	t := &Table{
		ID:      "E17",
		Title:   "Ablations: which mechanism of Algorithm 3 guards which property",
		Columns: []string{"variant", "Lemma 4.5 holds", "proper coloring", "max acts (n=512, sequential)"},
	}
	invFor := func(g graph.Graph) model.Invariant[core.FastVal] {
		type xHolder interface{ X() int }
		return func(e *sim.Engine[core.FastVal]) error {
			for _, edge := range g.Edges() {
				p, q := edge[0], edge[1]
				xp := e.NodeState(p).(xHolder).X()
				xq := e.NodeState(q).(xHolder).X()
				if xp == xq {
					return fmt.Errorf("X_%d == X_%d", p, q)
				}
				if rq := e.Register(q); rq.Present && xp == rq.Val.X {
					return fmt.Errorf("X_%d == X̂_%d", p, q)
				}
				if rp := e.Register(p); rp.Present && xq == rp.Val.X {
					return fmt.Errorf("X_%d == X̂_%d", q, p)
				}
			}
			return nil
		}
	}

	// One long monotone run with spread bit patterns: the instance on which
	// the weakened variants' violations are reachable within C4's state
	// space (found by exhaustive search; see ablation tests).
	xs4 := []int{5, 12, 20, 30}
	xs512 := ids.MustGenerate(ids.Increasing, 512, 0)

	type variant struct {
		label      string
		mk4, mk512 func() []sim.Node[core.FastVal]
	}
	variants := []variant{{
		label: "full Algorithm 3",
		mk4:   func() []sim.Node[core.FastVal] { return core.NewFastNodes(xs4) },
		mk512: func() []sim.Node[core.FastVal] { return core.NewFastNodes(xs512) },
	}}
	for _, v := range []ablation.Variant{ablation.NoGreenLight, ablation.NoEvade, ablation.EagerEvade, ablation.EagerInf} {
		v := v
		variants = append(variants, variant{
			label: v.String(),
			mk4:   func() []sim.Node[core.FastVal] { return ablation.NewNodes(xs4, v) },
			mk512: func() []sim.Node[core.FastVal] { return ablation.NewNodes(xs512, v) },
		})
	}

	// Each variant contributes two cells: an exhaustive invariant verdict on
	// a 4-cycle with structured ids, and a performance probe on a 512-cycle.
	type cell struct {
		vi      int
		explore bool
	}
	type result struct {
		lemma45, properViolated bool
		acts                    string
	}
	var cells []cell
	for vi := range variants {
		cells = append(cells, cell{vi: vi, explore: true}, cell{vi: vi})
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) result {
		v := variants[c.vi]
		if c.explore {
			g4 := graph.MustCycle(4)
			e4, _ := sim.NewEngine(g4, v.mk4())
			inv := invFor(g4)
			r := result{}
			combined := func(e *sim.Engine[core.FastVal]) error {
				res := e.Result()
				if err := check.ProperColoring(g4, res); err != nil {
					r.properViolated = true
					return err
				}
				return inv(e)
			}
			rep := model.Explore(e4, model.Options{SingletonsOnly: true, MaxStates: 1_000_000}, combined)
			r.lemma45 = len(rep.Violations) == 0
			return r
		}
		g512 := graph.MustCycle(512)
		e512, _ := sim.NewEngine(g512, v.mk512())
		res, err := e512.Run(schedule.NewRoundRobin(1), 1_000_000)
		r := result{acts: "-"}
		if err == nil {
			r.acts = fmt.Sprintf("%d", res.MaxActivations())
			r.properViolated = check.ProperColoring(g512, res) != nil
		}
		return r
	})
	for i := 0; i < len(cells); i += 2 {
		if !rowComplete(done, i, i+2) {
			continue
		}
		exp, run := results[i], results[i+1]
		t.AddRow(variants[cells[i].vi].label, exp.lemma45, !(exp.properViolated || run.properViolated), run.acts)
	}
	t.AddNote("no-green-light and eager-evade break Lemma 4.5 (coloring safety is guarded separately and survives);")
	t.AddNote("eager-inf keeps all safety but degenerates to Θ(n); no-evade keeps everything — the evasion is a")
	t.AddNote("constant-factor accelerator for local minima, invisible on this workload")
	return t
}

// E18SymmetrySweep is the differential experiment for the symmetry
// reduction of DESIGN.md §6: exhaustive identifier-assignment sweeps of
// Algorithm 2 at every reduction level. Both reduced levels (full names
// the same D_n quotient as assignments) must reproduce the unreduced
// weighted counts, verdicts and worst-activation suprema bit-for-bit
// while performing a fraction of the explorations — n!/(2n) orbit
// representatives instead of n! assignments.
func E18SymmetrySweep(o Options) *Table {
	t := &Table{
		ID:      "E18",
		Title:   "Symmetry reduction (§6): D_n-reduced sweeps reproduce the unreduced results exactly",
		Columns: []string{"n", "symmetry", "assignments", "runs", "states (weighted)", "terminal (weighted)", "violations", "max worst", "all ok", "matches off"},
	}
	sizes := []int{4}
	if !o.Quick {
		sizes = append(sizes, 5)
	}
	five := builtin("five")
	for _, n := range sizes {
		var off model.SweepReport
		var offWorst model.SweepReport
		for _, sym := range []model.Symmetry{model.SymmetryOff, model.SymmetryAssignments, model.SymmetryFull} {
			opt := model.Options{SingletonsOnly: true, Symmetry: sym, Context: o.Context}
			rep, err := five.Sweep(n, sim.ModeInterleaved, opt)
			if err != nil {
				t.AddNote("C%d %s sweep failed: %v", n, sym, err)
				continue
			}
			worst, err := five.SweepWorst(n, sim.ModeInterleaved, opt)
			if err != nil {
				t.AddNote("C%d %s worst sweep failed: %v", n, sym, err)
				continue
			}
			if rep.Partial || worst.Partial {
				t.MarkPartial(rep.StopReason, 0, 0)
				return t
			}
			match := "reference"
			switch sym {
			case model.SymmetryOff:
				off, offWorst = rep, worst
			default:
				// Exact claim: every weighted field agrees bit-for-bit.
				match = yesNo(rep.States == off.States && rep.Terminal == off.Terminal &&
					rep.CycleRuns == off.CycleRuns && rep.Violations == off.Violations &&
					rep.AllOk == off.AllOk && worst.MaxWorst == offWorst.MaxWorst &&
					sliceEq(worst.WorstPerProc, offWorst.WorstPerProc))
			}
			t.AddRow(n, sym.String(), rep.Assignments, rep.Runs, rep.States, rep.Terminal,
				rep.Violations, worst.MaxWorst, rep.AllOk, match)
		}
	}
	t.AddNote("assignments- and full-level rows (full names the same D_n quotient) must equal the off rows on every")
	t.AddNote("weighted column: exact orbit bookkeeping")
	return t
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

func sliceEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
