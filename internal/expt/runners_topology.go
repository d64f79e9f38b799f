package expt

import (
	"fmt"

	"asynccycle/internal/ids"
	"asynccycle/internal/model"
	"asynccycle/internal/protocol"
	"asynccycle/internal/sim"
)

// E22DeltaPlusOne validates the general-graph (Δ+1)-coloring protocol
// (dp1) beyond the cycle, in two legs:
//
//   - an engine sweep over random Δ-bounded graphs (or the -topology
//     override) under the full scheduler battery with adversarial crashes,
//     measuring the largest color actually emitted against the Δ+1
//     palette bound and the proper-coloring verdict;
//   - exhaustive interleaved model-checker certificates at small n on the
//     complete graph, the path, and the cycle — every schedule, every
//     reachable configuration, zero violations, no livelock.
//
// The simultaneous-lockstep livelock (the F1 direction: (Δ+1)-coloring
// K_n is perfect renaming, so no wait-free solution exists) is pinned by
// the dp1 package tests; this table records the safety side.
func E22DeltaPlusOne(o Options) *Table {
	t := &Table{
		ID:      "E22",
		Title:   "(Δ+1)-coloring beyond the cycle: palette bound sweep + exhaustive certificates",
		Columns: []string{"graph", "Δ", "method", "coverage", "max color", "palette {0..Δ}", "violations"},
	}

	// Leg 1: engine sweep. One combo = one row aggregated over the
	// scheduler battery; each cell is a single crash-prone run.
	specs := []string{"random:3:1", "random:4:1", "random:4:2", "random:6:1"}
	ns := []int{16, 32}
	if o.Quick {
		specs = []string{"random:3:1", "random:4:1"}
		ns = []int{16}
	}
	if o.Topology != "" {
		specs = []string{o.Topology}
	}
	type combo struct {
		spec string
		n    int
	}
	var combos []combo
	for _, spec := range specs {
		for _, n := range ns {
			combos = append(combos, combo{spec, n})
		}
	}
	battery := schedSpecs()
	type cell struct {
		c  combo
		sp schedSpec
	}
	var cells []cell
	for _, c := range combos {
		for _, sp := range battery {
			cells = append(cells, cell{c, sp})
		}
	}
	type runResult struct {
		graph    string
		maxDeg   int
		maxColor int
		failed   []string
		err      string
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) runResult {
		d, err := protocol.Lookup("dp1")
		if err == nil {
			d, err = protocol.WithTopology(d, c.c.spec)
		}
		if err != nil {
			return runResult{err: fmt.Sprintf("%s: %v", c.c.spec, err)}
		}
		n := c.c.n
		if d.FixN != nil {
			n = d.FixN(n)
		}
		g, err := d.Topology(n)
		if err != nil {
			return runResult{err: fmt.Sprintf("%s n=%d: %v", c.c.spec, n, err)}
		}
		seed := cellSeed(o.seed(), "E22", c.c.spec, n, c.sp.name)
		xs := ids.MustGenerate(ids.Random, n, seed)
		// The colorcycle CLI's crash plan: 20% of the processes freeze
		// after a few of their own rounds.
		crashes := protocol.CrashPlan(0.2, n, seed)
		res, _, err := d.Run(xs, protocol.RunOptions{
			Scheduler: c.sp.mk(seed),
			Crashes:   crashes,
			MaxSteps:  1000*n + 100_000,
		})
		if err != nil {
			return runResult{err: fmt.Sprintf("%s n=%d %s: %v", c.c.spec, n, c.sp.name, err)}
		}
		r := runResult{graph: g.Name(), maxDeg: g.MaxDegree(), maxColor: -1}
		for i, out := range res.Outputs {
			if res.Done[i] && out > r.maxColor {
				r.maxColor = out
			}
		}
		for _, v := range d.Verdicts(g, res) {
			if v.Err != nil {
				r.failed = append(r.failed, fmt.Sprintf("%s: %v", v.Name, v.Err))
			}
		}
		return r
	})
	for ci, c := range combos {
		from, to := ci*len(battery), (ci+1)*len(battery)
		if !rowComplete(done, from, to) {
			continue
		}
		agg := runResult{maxColor: -1}
		violations := 0
		for i := from; i < to; i++ {
			r := results[i]
			if r.err != "" {
				t.AddNote("%s", r.err)
				continue
			}
			agg.graph, agg.maxDeg = r.graph, r.maxDeg
			if r.maxColor > agg.maxColor {
				agg.maxColor = r.maxColor
			}
			violations += len(r.failed)
			for _, f := range r.failed {
				t.AddNote("%s %s: %s", r.graph, c.spec, f)
			}
		}
		if agg.graph == "" {
			continue
		}
		palette := "within"
		if agg.maxColor > agg.maxDeg {
			palette = fmt.Sprintf("EXCEEDED (%d > %d)", agg.maxColor, agg.maxDeg)
		}
		t.AddRow(agg.graph, agg.maxDeg, "engine sweep",
			fmt.Sprintf("%d schedules, crash-prone", len(battery)),
			agg.maxColor, palette, violations)
	}

	// Leg 2: exhaustive certificates. Each cell is one full interleaved
	// exploration through the descriptor's Check surface.
	type checkCell struct {
		spec string
		n    int
	}
	checks := []checkCell{{"complete", 3}, {"complete", 4}, {"path", 4}, {"", 4}}
	if !o.Quick {
		checks = append(checks, checkCell{"path", 5})
	}
	type checkResult struct {
		graph string
		deg   int
		rep   model.Report
		err   string
	}
	creps, cdone := mapCells(o, t, checks, func(_ int, c checkCell) checkResult {
		d, err := protocol.Lookup("dp1")
		if err == nil {
			d, err = protocol.WithTopology(d, c.spec)
		}
		if err != nil {
			return checkResult{err: fmt.Sprintf("%q: %v", c.spec, err)}
		}
		g, err := d.Topology(c.n)
		if err != nil {
			return checkResult{err: fmt.Sprintf("%q n=%d: %v", c.spec, c.n, err)}
		}
		xs := ids.MustGenerate(ids.Increasing, c.n, 0)
		// Depth 512 covers the deepest acyclic paths (258 on C4), keeping
		// every certificate exhaustive rather than truncated.
		rep, err := d.Check(xs, sim.ModeInterleaved, model.Options{MaxDepth: 512})
		if err != nil {
			return checkResult{err: fmt.Sprintf("%q n=%d: %v", c.spec, c.n, err)}
		}
		return checkResult{graph: g.Name(), deg: g.MaxDegree(), rep: rep}
	})
	for i := range checks {
		if !cdone[i] {
			continue
		}
		r := creps[i]
		if r.err != "" {
			t.AddNote("%s", r.err)
			continue
		}
		coverage := fmt.Sprintf("%d states (exhaustive)", r.rep.States)
		if r.rep.Truncated {
			coverage = fmt.Sprintf("%d states (TRUNCATED)", r.rep.States)
		}
		if r.rep.CycleFound {
			t.AddNote("%s: unexpected interleaved livelock", r.graph)
		}
		t.AddRow(r.graph, r.deg, "model check", coverage, "—", "invariant at every state", len(r.rep.Violations))
	}

	t.AddNote("palette bound: every emitted color lies in {0..Δ} — Δ+1 colors on a Δ-bounded graph (arXiv:2408.10971 direction)")
	t.AddNote("certificates check the (Δ+1) validity invariant at every reachable configuration under every interleaved schedule and crash pattern")
	t.AddNote("wait-freedom does NOT generalize: (Δ+1)-coloring K_n is perfect renaming, and simultaneous lockstep livelocks (descriptor Expectation; F1)")
	return t
}
