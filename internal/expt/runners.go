package expt

import (
	"fmt"
	"time"

	"asynccycle/internal/check"
	"asynccycle/internal/conc"
	"asynccycle/internal/core"
	"asynccycle/internal/cv"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/locale"
	"asynccycle/internal/model"
	"asynccycle/internal/protocol"
	"asynccycle/internal/renaming"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
	"asynccycle/internal/stats"
)

// run executes one instance, returning the result (and the error, recorded
// by callers in table notes rather than aborting the sweep).
func run[V any](g graph.Graph, nodes []sim.Node[V], s schedule.Scheduler, mode sim.Mode, maxSteps int) (sim.Result, error) {
	e, err := sim.NewEngine(g, nodes)
	if err != nil {
		return sim.Result{}, err
	}
	e.SetMode(mode)
	return e.Run(s, maxSteps)
}

// E1Alg1Termination measures Algorithm 1 against Theorem 3.1: every
// process terminates within ⌊3n/2⌋+4 activations, outputs lie in the
// 6-pair palette, and the coloring is proper; for the smallest cycles the
// bound is compared with the exact worst case over all schedules computed
// by the model checker.
func E1Alg1Termination(o Options) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "Algorithm 1 (6-coloring): activations vs Theorem 3.1 bound ⌊3n/2⌋+4",
		Columns: []string{"n", "bound", "sweep max", "exact worst (model)", "proper", "palette"},
	}
	sizes := []int{3, 4, 5, 8, 16, 64, 256}
	if o.Quick {
		sizes = []int{3, 4, 5, 16, 64}
	}
	type cell struct {
		n     int
		a     ids.Assignment
		spec  schedSpec
		exact bool
	}
	type result struct {
		maxActs               int
		properBad, paletteBad bool
		note, exact           string
	}
	var cells []cell
	for _, n := range sizes {
		for _, a := range ids.All() {
			for _, sp := range schedSpecs() {
				cells = append(cells, cell{n: n, a: a, spec: sp})
			}
		}
		if n <= 4 {
			cells = append(cells, cell{n: n, exact: true})
		}
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) result {
		g := graph.MustCycle(c.n)
		if c.exact {
			e, _ := sim.NewEngine(g, core.NewPairNodes(ids.MustGenerate(ids.Increasing, c.n, 0)))
			if vec, ok, _ := model.WorstActivations(e, model.Options{SingletonsOnly: true}); ok {
				return result{exact: fmt.Sprintf("%d", stats.MaxInt(vec))}
			}
			return result{exact: "-"}
		}
		xs := ids.MustGenerate(c.a, c.n, cellSeed(o.seed(), "E1", c.n, c.a))
		seed := cellSeed(o.seed(), "E1", c.n, c.a, c.spec.name)
		res, err := run(g, core.NewPairNodes(xs), c.spec.mk(seed), sim.ModeInterleaved, 100*c.n*c.n+10_000)
		if err != nil {
			return result{note: fmt.Sprintf("n=%d %s/%s: %v", c.n, c.a, c.spec.name, err)}
		}
		r := result{maxActs: res.MaxActivations()}
		r.properBad = check.ProperColoring(g, res) != nil
		r.paletteBad = check.PairPalette(res, 2) != nil
		return r
	})
	i := 0
	for _, n := range sizes {
		rowStart := i
		maxActs := 0
		proper, palette := true, true
		exact := "-"
		for ; i < len(cells) && cells[i].n == n; i++ {
			if !done[i] {
				continue
			}
			r := results[i]
			if cells[i].exact {
				exact = r.exact
				continue
			}
			if r.note != "" {
				t.AddNote("%s", r.note)
				continue
			}
			if r.maxActs > maxActs {
				maxActs = r.maxActs
			}
			proper = proper && !r.properBad
			palette = palette && !r.paletteBad
		}
		if !rowComplete(done, rowStart, i) {
			continue
		}
		t.AddRow(n, 3*n/2+4, maxActs, exact, proper, palette)
	}
	t.AddNote("paper: Theorem 3.1 — termination ≤ ⌊3n/2⌋+4 activations, palette {(a,b): a+b≤2}, proper coloring")
	return t
}

// E2Alg2Linear measures Algorithm 2 against Theorem 3.11: O(n) activations
// with the 5-color palette. The worst case input is the fully increasing
// identifier assignment (one monotone chain of length n−1, Remark 3.10);
// the measured maxima grow linearly in n.
func E2Alg2Linear(o Options) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "Algorithm 2 (5-coloring): activations grow linearly on monotone identifiers",
		Columns: []string{"n", "chain", "max acts (incr ids)", "max acts (random ids)", "proper", "palette≤5"},
	}
	sizes := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	if o.Quick {
		sizes = []int{8, 16, 32, 64, 128, 256}
	}
	type cell struct {
		n    int
		a    ids.Assignment
		spec schedSpec
	}
	type result struct {
		maxActs               int
		properBad, paletteBad bool
		note                  string
	}
	var cells []cell
	for _, n := range sizes {
		for _, a := range []ids.Assignment{ids.Increasing, ids.Random} {
			for _, sp := range schedSpecs() {
				cells = append(cells, cell{n: n, a: a, spec: sp})
			}
		}
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) result {
		g := graph.MustCycle(c.n)
		xs := ids.MustGenerate(c.a, c.n, cellSeed(o.seed(), "E2", c.n, c.a))
		seed := cellSeed(o.seed(), "E2", c.n, c.a, c.spec.name)
		res, err := run(g, core.NewFiveNodes(xs), c.spec.mk(seed), sim.ModeInterleaved, 500*c.n+20_000)
		if err != nil {
			return result{note: fmt.Sprintf("n=%d %s/%s: %v", c.n, c.a, c.spec.name, err)}
		}
		r := result{maxActs: res.MaxActivations()}
		r.properBad = check.ProperColoring(g, res) != nil
		r.paletteBad = check.PaletteRange(res, 5) != nil
		return r
	})
	var xsF, ysF []float64
	i := 0
	for _, n := range sizes {
		rowStart := i
		worstIncr, worstRand := 0, 0
		proper, palette := true, true
		for ; i < len(cells) && cells[i].n == n; i++ {
			if !done[i] {
				continue
			}
			c, r := cells[i], results[i]
			if r.note != "" {
				t.AddNote("%s", r.note)
				continue
			}
			if c.a == ids.Increasing && r.maxActs > worstIncr {
				worstIncr = r.maxActs
			}
			if c.a == ids.Random && r.maxActs > worstRand {
				worstRand = r.maxActs
			}
			proper = proper && !r.properBad
			palette = palette && !r.paletteBad
		}
		if !rowComplete(done, rowStart, i) {
			continue
		}
		chain := ids.LongestMonotoneChain(ids.MustGenerate(ids.Increasing, n, 0))
		t.AddRow(n, chain, worstIncr, worstRand, proper, palette)
		xsF = append(xsF, float64(n))
		ysF = append(ysF, float64(worstIncr))
	}
	fit := stats.LinearFit(xsF, ysF)
	t.AddNote("paper: Theorem 3.11 — termination in O(n) activations; linear fit slope=%.2f R²=%.3f", fit.Slope, fit.R2)
	return t
}

// E3Alg3LogStar measures Algorithm 3 against Theorem 4.4: O(log* n)
// activations. Across three orders of magnitude of n the measured maxima
// stay near-constant while log* n ticks up by one.
func E3Alg3LogStar(o Options) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "Algorithm 3 (fast 5-coloring): activations track log* n",
		Columns: []string{"n", "log* n", "max acts (incr)", "max acts (spaced)", "max acts (random)", "max r", "proper", "palette≤5"},
	}
	sizes := []int{8, 64, 512, 4096, 65_536}
	if !o.Quick {
		sizes = append(sizes, 262_144, 1_048_576)
	}
	e3Specs := func(n int) []schedSpec {
		if n > 10_000 {
			// Sequential schedulers cost Θ(n) steps per sweep of the ring;
			// cap to the parallel ones for the largest sizes.
			return parallelSchedSpecs()
		}
		return schedSpecs()
	}
	type cell struct {
		n     int
		a     ids.Assignment
		spec  schedSpec
		probe bool // the max-r measurement cell
	}
	type result struct {
		maxActs, maxR         int
		properBad, paletteBad bool
		note                  string
	}
	assignments := []ids.Assignment{ids.Increasing, ids.SpacedIncreasing, ids.Random}
	var cells []cell
	for _, n := range sizes {
		for _, a := range assignments {
			for _, sp := range e3Specs(n) {
				cells = append(cells, cell{n: n, a: a, spec: sp})
			}
		}
		cells = append(cells, cell{n: n, probe: true})
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) result {
		g := graph.MustCycle(c.n)
		if c.probe {
			// Measure the reduction effort directly: the r counter counts
			// the Cole–Vishkin attempts a process performed (O(log* n) by
			// Lemma 4.1). Measured on the spaced-increasing input under the
			// synchronous schedule, where reductions are most numerous.
			r := result{}
			e, _ := sim.NewEngine(g, core.NewFastNodes(ids.MustGenerate(ids.SpacedIncreasing, c.n, 0)))
			if _, err := e.Run(schedule.Synchronous{}, 500*c.n+100_000); err == nil {
				for i := 0; i < c.n; i++ {
					if rr, _ := e.NodeState(i).(*core.Fast).R(); rr > r.maxR {
						r.maxR = rr
					}
				}
			}
			return r
		}
		xs := ids.MustGenerate(c.a, c.n, cellSeed(o.seed(), "E3", c.n, c.a))
		seed := cellSeed(o.seed(), "E3", c.n, c.a, c.spec.name)
		res, err := run(g, core.NewFastNodes(xs), c.spec.mk(seed), sim.ModeInterleaved, 500*c.n+100_000)
		if err != nil {
			return result{note: fmt.Sprintf("n=%d %s/%s: %v", c.n, c.a, c.spec.name, err)}
		}
		r := result{maxActs: res.MaxActivations()}
		r.properBad = check.ProperColoring(g, res) != nil
		r.paletteBad = check.PaletteRange(res, 5) != nil
		return r
	})
	i := 0
	for _, n := range sizes {
		rowStart := i
		worst := map[ids.Assignment]int{}
		maxR := 0
		proper, palette := true, true
		for ; i < len(cells) && cells[i].n == n; i++ {
			if !done[i] {
				continue
			}
			c, r := cells[i], results[i]
			if c.probe {
				maxR = r.maxR
				continue
			}
			if r.note != "" {
				t.AddNote("%s", r.note)
				continue
			}
			if r.maxActs > worst[c.a] {
				worst[c.a] = r.maxActs
			}
			proper = proper && !r.properBad
			palette = palette && !r.paletteBad
		}
		if !rowComplete(done, rowStart, i) {
			continue
		}
		t.AddRow(n, cv.LogStar(float64(n)), worst[ids.Increasing], worst[ids.SpacedIncreasing], worst[ids.Random], maxR, proper, palette)
	}
	t.AddNote("paper: Theorem 4.4 — termination in O(log* n) activations; the column should stay near-constant as n grows 5 decades")
	t.AddNote("max r counts per-process Cole–Vishkin reduction attempts (Lemma 4.1: O(log* n) of them suffice)")
	return t
}

// E4Crossover compares Algorithms 2 and 3 head to head on the worst-case
// increasing identifiers: Algorithm 2's per-process activations grow
// linearly while Algorithm 3's stay near-constant, so the speedup factor
// grows without bound (the paper's §4 motivation).
func E4Crossover(o Options) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Algorithm 2 vs Algorithm 3 on increasing identifiers (synchronous schedule)",
		Columns: []string{"n", "alg2 max acts", "alg3 max acts", "speedup"},
	}
	sizes := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	if !o.Quick {
		sizes = append(sizes, 2048, 4096)
	}
	type cell struct {
		n    int
		fast bool
	}
	type result struct {
		maxActs int
		err     error
	}
	var cells []cell
	for _, n := range sizes {
		cells = append(cells, cell{n: n}, cell{n: n, fast: true})
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) result {
		g := graph.MustCycle(c.n)
		xs := ids.MustGenerate(ids.Increasing, c.n, 0)
		var res sim.Result
		var err error
		if c.fast {
			res, err = run(g, core.NewFastNodes(xs), schedule.Synchronous{}, sim.ModeInterleaved, 100*c.n+10_000)
		} else {
			res, err = run(g, core.NewFiveNodes(xs), schedule.Synchronous{}, sim.ModeInterleaved, 100*c.n+10_000)
		}
		if err != nil {
			return result{err: err}
		}
		return result{maxActs: res.MaxActivations()}
	})
	for i, n := range sizes {
		if !done[2*i] || !done[2*i+1] {
			continue
		}
		r2, r3 := results[2*i], results[2*i+1]
		if r2.err != nil || r3.err != nil {
			t.AddNote("n=%d: alg2 err=%v alg3 err=%v", n, r2.err, r3.err)
			continue
		}
		t.AddRow(n, r2.maxActs, r3.maxActs, float64(r2.maxActs)/float64(r3.maxActs))
	}
	t.AddNote("paper: §4 — the identifier-reduction component turns Θ(n) convergence into O(log* n)")
	return t
}

// E5ColeVishkin measures the identifier-reduction machinery of §4.1:
// Lemma 4.1's bound-function iterations and the adversarial single-chain
// iterations both track log* x. (Pure arithmetic: no parallel fan-out.)
func E5ColeVishkin(o Options) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "Cole–Vishkin reduction (Lemmas 4.1–4.3): iterations to reach a constant identifier",
		Columns: []string{"x", "log* x", "bound iterations", "adversarial iterations"},
	}
	values := []int{100, 10_000, 1 << 20, 1 << 40, 1 << 62}
	for _, x := range values {
		t.AddRow(x, cv.LogStar(float64(x)), cv.BoundIterations(x), cv.AdversarialIterations(x))
	}
	t.AddNote("paper: Lemma 4.1 — O(log* x) iterations of F(x)=2⌈log(x+1)⌉+1 reach the constant regime (<10)")
	t.AddNote("Lemmas 4.2 (shrinkage above 10) and 4.3 (no collisions on monotone triples) are property-tested exhaustively in internal/cv")
	return t
}

// E6CrashTolerance crashes a growing fraction of processes at adversarial
// times and verifies the fault-tolerance contract: every survivor still
// terminates, within the wait-free bounds, and the terminated processes
// properly color their induced subgraph.
func E6CrashTolerance(o Options) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "Crash tolerance: survivors always terminate with a proper coloring",
		Columns: []string{"crash %", "alg", "survivors", "survivors done", "max acts", "proper"},
	}
	n := 200
	if o.Quick {
		n = 100
	}
	type cell struct {
		frac float64
		alg  string
	}
	type result struct {
		survivors, maxActs int
		surOK, proper      bool
		note               string
	}
	var cells []cell
	for _, frac := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9} {
		for _, alg := range []string{"five", "fast"} {
			cells = append(cells, cell{frac: frac, alg: alg})
		}
	}
	g := graph.MustCycle(n)
	results, done := mapCells(o, t, cells, func(_ int, c cell) result {
		seed := cellSeed(o.seed(), "E6", n, c.frac, c.alg)
		crashes := crashPlan(n, c.frac, seed)
		xs := ids.MustGenerate(ids.Random, n, seed)
		s := schedule.NewRandomSubset(0.4, seed+1)
		var res sim.Result
		var err error
		if c.alg == "five" {
			e, _ := sim.NewEngine(g, core.NewFiveNodes(xs))
			applyCrashes(e, crashes)
			res, err = e.Run(s, 500*n+20_000)
		} else {
			e, _ := sim.NewEngine(g, core.NewFastNodes(xs))
			applyCrashes(e, crashes)
			res, err = e.Run(s, 500*n+20_000)
		}
		if err != nil {
			return result{note: fmt.Sprintf("crash=%.0f%% %s: %v", c.frac*100, c.alg, err)}
		}
		return result{
			survivors: n - len(crashes),
			maxActs:   res.MaxActivations(),
			surOK:     check.SurvivorsTerminated(res) == nil,
			proper:    check.ProperColoring(g, res) == nil,
		}
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
		t.AddRow(fmt.Sprintf("%.0f", c.frac*100), c.alg, r.survivors, r.surOK, r.maxActs, r.proper)
	}
	t.AddNote("paper: wait-freedom (§2.1) — crashes at arbitrary times never block correct processes")
	return t
}

func crashPlan(n int, frac float64, seed int64) map[int]int {
	count := int(frac * float64(n))
	plan := make(map[int]int, count)
	// Deterministic spread: crash every k-th node with a small round budget
	// varying 0..5 (0 = never wakes).
	if count == 0 {
		return plan
	}
	stride := n / count
	if stride == 0 {
		stride = 1
	}
	r := seed
	for i := 0; i < n && len(plan) < count; i += stride {
		r = r*6364136223846793005 + 1442695040888963407 // LCG step
		budget := int(uint64(r)>>60) % 6
		plan[i] = budget
	}
	return plan
}

func applyCrashes[V any](e *sim.Engine[V], plan map[int]int) {
	for i, k := range plan {
		e.CrashAfter(i, k)
	}
}

// E7MISImpossibility illustrates Property 2.1 (maximal independent set is
// not solvable wait-free) on the two natural candidate algorithms: the
// model checker certifies that Greedy admits executions with unbounded
// activations (a configuration-graph cycle) and that Impatient admits
// executions violating the MIS specification.
func E7MISImpossibility(o Options) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "MIS candidates fail (Property 2.1): livelock or safety violation, certified exhaustively",
		Columns: []string{"candidate", "cycle C_n", "states", "not wait-free (cycle)", "MIS violation found"},
	}
	sizes := []int{3, 4}
	if !o.Quick {
		sizes = append(sizes, 5)
	}
	type cell struct {
		n      int
		greedy bool
	}
	var cells []cell
	for _, n := range sizes {
		cells = append(cells, cell{n: n, greedy: true}, cell{n: n})
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) model.Report {
		alg := "mis-impatient"
		if c.greedy {
			alg = "mis-greedy"
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
		t.AddRow(label, c.n, rep.States, rep.CycleFound, len(rep.Violations) > 0)
	}
	t.AddNote("paper: Property 2.1 — MIS cannot be solved wait-free (reduction to strong symmetry breaking)")
	t.AddNote("greedy waits for higher neighbors: safe but not wait-free; impatient presumes crashes: wait-free but unsafe")
	return t
}

// builtin returns a registered built-in protocol; the experiments name
// only those, so a failed lookup is a programming error.
func builtin(name string) *protocol.Descriptor {
	d, err := protocol.Lookup(name)
	if err != nil {
		panic(err)
	}
	return d
}

// registryCheck exhaustively checks a registered protocol over every
// interleaved singleton schedule against its own contract.
func registryCheck(alg string, xs []int) model.Report {
	rep, err := builtin(alg).Check(xs, sim.ModeInterleaved, model.Options{SingletonsOnly: true})
	if err != nil {
		panic(err)
	}
	return rep
}

// E8PaletteTightness exhaustively explores Algorithm 2 on small cycles and
// reports the largest color any execution can be driven to output. The
// palette fills up with cycle length — color 2 is reachable on C3, color 3
// on C4, and color 4 on C5 — while color 5 is never produced on any cycle
// (the {0..4} palette of Theorem 3.11). Property 2.3's lower bound says no
// algorithm for all cycles can promise fewer than 5 colors, and indeed
// ours genuinely needs all 5.
func E8PaletteTightness(o Options) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Palette tightness (Property 2.3): the largest reachable color grows to 4, never beyond",
		Columns: []string{"cycle C_n", "states", "terminal", "max reachable color", "violations"},
	}
	type result struct {
		rep      model.Report
		maxColor int
	}
	sizes := []int{3, 4, 5}
	five := builtin("five")
	results, done := mapCells(o, t, sizes, func(_ int, n int) result {
		g := graph.MustCycle(n)
		xs := ids.MustGenerate(ids.Increasing, n, 0)
		maxColor := 0
		inv := func(e *sim.Engine[core.FiveVal]) error {
			r := e.Result()
			for i, out := range r.Outputs {
				if r.Done[i] && out > maxColor {
					maxColor = out
				}
			}
			return five.Contract.Safety(g, r)
		}
		e, _ := sim.NewEngine(g, core.NewFiveNodes(xs))
		rep := model.Explore(e, model.Options{SingletonsOnly: true}, inv)
		return result{rep: rep, maxColor: maxColor}
	})
	for i, n := range sizes {
		if !done[i] {
			continue
		}
		r := results[i]
		t.AddRow(n, r.rep.States, r.rep.Terminal, r.maxColor, len(r.rep.Violations))
	}
	t.AddNote("paper: Property 2.3 — wait-free coloring of all cycles needs ≥ 5 colors; color 4 is reached on C5, color 5 never")
	return t
}

// E9GeneralGraphs runs Algorithm 4 (Appendix A) on random bounded-degree
// graphs: outputs stay in the (Δ+1)(Δ+2)/2 pair palette and properly color
// the graph, under crashes and adversarial schedules.
func E9GeneralGraphs(o Options) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Algorithm 4 on general graphs: O(Δ²) palette (Appendix A)",
		Columns: []string{"n", "Δ", "palette size", "max a+b seen", "max acts", "proper", "palette ok"},
	}
	sizes := []int{32, 128}
	if !o.Quick {
		sizes = append(sizes, 512)
	}
	type cell struct {
		n, maxDeg int    // random bounded-degree rows
		dims      [2]int // torus rows (n == 0 then)
		spec      schedSpec
	}
	type result struct {
		delta, maxActs, maxSum int
		properBad, paletteBad  bool
		note, graphErr         string
	}
	var cells []cell
	for _, n := range sizes {
		for _, maxDeg := range []int{3, 4, 6, 8} {
			for _, sp := range schedSpecs() {
				cells = append(cells, cell{n: n, maxDeg: maxDeg, spec: sp})
			}
		}
	}
	toruses := [][2]int{{8, 8}, {16, 16}}
	for _, dims := range toruses {
		for _, sp := range schedSpecs() {
			cells = append(cells, cell{dims: dims, spec: sp})
		}
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) result {
		var g graph.Graph
		var xs []int
		delta := 0
		if c.n > 0 {
			// The graph and identifiers are row-level inputs, derived from
			// row coordinates only so every scheduler cell of the row sees
			// the same instance.
			rowSeed := cellSeed(o.seed(), "E9", c.n, c.maxDeg)
			var err error
			g, err = graph.RandomBoundedDegree(c.n, c.maxDeg, rowSeed)
			if err != nil {
				return result{graphErr: fmt.Sprintf("n=%d Δ=%d: %v", c.n, c.maxDeg, err)}
			}
			delta = g.MaxDegree()
			xs = ids.MustGenerate(ids.Random, c.n, rowSeed)
		} else {
			rowSeed := cellSeed(o.seed(), "E9", "torus", c.dims[0], c.dims[1])
			var err error
			g, err = graph.Torus(c.dims[0], c.dims[1])
			if err != nil {
				return result{graphErr: fmt.Sprintf("torus %v: %v", c.dims, err)}
			}
			delta = 4
			xs = ids.MustGenerate(ids.Random, g.N(), rowSeed)
		}
		seed := cellSeed(o.seed(), "E9", c.n, c.maxDeg, c.dims, c.spec.name)
		res, err := run(g, core.NewPairNodes(xs), c.spec.mk(seed), sim.ModeInterleaved, 500*g.N()+20_000)
		if err != nil {
			return result{delta: delta, note: fmt.Sprintf("n=%d Δ=%d %s: %v", g.N(), delta, c.spec.name, err)}
		}
		r := result{delta: delta, maxActs: res.MaxActivations()}
		for i, out := range res.Outputs {
			if res.Done[i] {
				a, b := core.DecodePair(out)
				if a+b > r.maxSum {
					r.maxSum = a + b
				}
			}
		}
		r.properBad = check.ProperColoring(g, res) != nil
		r.paletteBad = check.PairPalette(res, delta) != nil
		return r
	})
	// Merge scheduler cells row by row (rows are contiguous runs of cells).
	nspecs := len(schedSpecs())
	for base := 0; base < len(cells); base += nspecs {
		c := cells[base]
		delta, maxActs, maxSum := 0, 0, 0
		proper, palette := true, true
		graphErr := ""
		for i := base; i < base+nspecs; i++ {
			if !done[i] {
				continue
			}
			r := results[i]
			if r.graphErr != "" {
				graphErr = r.graphErr
				continue
			}
			if r.note != "" {
				t.AddNote("%s", r.note)
				delta = r.delta
				continue
			}
			delta = r.delta
			if r.maxActs > maxActs {
				maxActs = r.maxActs
			}
			if r.maxSum > maxSum {
				maxSum = r.maxSum
			}
			proper = proper && !r.properBad
			palette = palette && !r.paletteBad
		}
		if graphErr != "" {
			t.AddNote("%s", graphErr)
			continue
		}
		if !rowComplete(done, base, base+nspecs) {
			continue
		}
		label := fmt.Sprintf("%d", c.n)
		if c.n == 0 {
			label = fmt.Sprintf("%d (torus)", c.dims[0]*c.dims[1])
		}
		t.AddRow(label, delta, core.PairPaletteSize(delta), maxSum, maxActs, proper, palette)
	}
	t.AddNote("paper: Appendix A — every output pair satisfies a+b ≤ Δ, i.e. (Δ+1)(Δ+2)/2 = O(Δ²) colors")
	return t
}

// E10SyncBaseline measures the synchronous failure-free LOCAL baseline
// (§1.1): Cole–Vishkin 3-coloring in ½log* n + O(1) rounds, compared to
// Algorithm 3's asynchronous activations on the same inputs.
func E10SyncBaseline(o Options) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "Synchronous LOCAL baseline: Cole–Vishkin 3-coloring rounds vs Algorithm 3 activations",
		Columns: []string{"n", "log* n", "CV rounds (3 colors)", "alg3 max acts (5 colors)", "proper"},
	}
	sizes := []int{8, 64, 4096, 65_536}
	if !o.Quick {
		sizes = append(sizes, 1_048_576)
	}
	type result struct {
		rounds int
		alg3   string
		proper bool
		note   string
	}
	results, done := mapCells(o, t, sizes, func(_ int, n int) result {
		xs := ids.MustGenerate(ids.Random, n, cellSeed(o.seed(), "E10", n))
		colors, rounds, err := locale.ThreeColorCycle(xs)
		if err != nil {
			return result{note: fmt.Sprintf("n=%d: %v", n, err)}
		}
		r := result{
			rounds: rounds,
			proper: locale.ProperCycleColoring(colors) && stats.MaxInt(colors) <= 2,
			alg3:   "-",
		}
		g := graph.MustCycle(n)
		res, err := run(g, core.NewFastNodes(xs), schedule.Synchronous{}, sim.ModeInterleaved, 100*n+100_000)
		if err == nil {
			r.alg3 = fmt.Sprintf("%d", res.MaxActivations())
		}
		return r
	})
	for i, n := range sizes {
		if !done[i] {
			continue
		}
		r := results[i]
		if r.note != "" {
			t.AddNote("%s", r.note)
			continue
		}
		t.AddRow(n, cv.LogStar(float64(n)), r.rounds, r.alg3, r.proper)
	}
	t.AddNote("paper: §1.1 — synchronous 3-coloring takes ½log* n + O(1) rounds [17]; both columns track log* n")
	return t
}

// E11Renaming runs the rank-based renaming baseline on complete graphs
// (where the model is exactly wait-free shared memory): every process
// decides a name in {0, …, 2n−2}, and on K2/K3 the model checker verifies
// wait-freedom and the name bound over every schedule.
func E11Renaming(o Options) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Rank-based (2n−1)-renaming on K_n (shared-memory baseline, §1.3)",
		Columns: []string{"n", "name bound 2n−2", "max name seen", "max acts", "all unique", "exhaustive (n≤3)"},
	}
	sizes := []int{2, 3, 4, 8, 16}
	if !o.Quick {
		sizes = append(sizes, 32, 64)
	}
	type cell struct {
		n     int
		spec  schedSpec
		exact bool
	}
	type result struct {
		maxName, maxActs int
		uniqueBad        bool
		note, exhaustive string
	}
	var cells []cell
	for _, n := range sizes {
		for _, sp := range schedSpecs() {
			cells = append(cells, cell{n: n, spec: sp})
		}
		if n <= 3 {
			cells = append(cells, cell{n: n, exact: true})
		}
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) result {
		g, err := graph.Complete(c.n)
		if err != nil {
			return result{note: fmt.Sprintf("n=%d: %v", c.n, err)}
		}
		xs := ids.MustGenerate(ids.Random, c.n, cellSeed(o.seed(), "E11", c.n))
		if c.exact {
			rep := registryCheck("renaming", xs)
			return result{exhaustive: fmt.Sprintf("ok=%t states=%d", rep.Ok(), rep.States)}
		}
		seed := cellSeed(o.seed(), "E11", c.n, c.spec.name)
		res, err := run(g, renaming.NewNodes(xs), c.spec.mk(seed), sim.ModeInterleaved, 2000*c.n+50_000)
		if err != nil {
			return result{note: fmt.Sprintf("n=%d %s: %v", c.n, c.spec.name, err)}
		}
		r := result{}
		seen := map[int]bool{}
		for i, out := range res.Outputs {
			if !res.Done[i] {
				continue
			}
			if out > r.maxName {
				r.maxName = out
			}
			if seen[out] {
				r.uniqueBad = true
			}
			seen[out] = true
		}
		r.maxActs = res.MaxActivations()
		return r
	})
	i := 0
	for _, n := range sizes {
		rowStart := i
		maxName, worstActs := 0, 0
		unique := true
		exhaustive := "-"
		for ; i < len(cells) && cells[i].n == n; i++ {
			if !done[i] {
				continue
			}
			r := results[i]
			if cells[i].exact {
				exhaustive = r.exhaustive
				continue
			}
			if r.note != "" {
				t.AddNote("%s", r.note)
				continue
			}
			if r.maxName > maxName {
				maxName = r.maxName
			}
			if r.maxActs > worstActs {
				worstActs = r.maxActs
			}
			unique = unique && !r.uniqueBad
		}
		if !rowComplete(done, rowStart, i) {
			continue
		}
		t.AddRow(n, renaming.MaxName(n), maxName, worstActs, unique, exhaustive)
	}
	t.AddNote("paper: §1.1/§1.3 — (2n−1)-renaming is wait-free solvable [3]; names never exceed 2n−2 (0-based)")
	return t
}

// E12IdentifierInvariant checks Lemma 4.5 on live executions: throughout
// every traced run of Algorithm 3, the evolving identifiers (internal and
// published) properly color the cycle at every time step.
func E12IdentifierInvariant(o Options) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "Lemma 4.5: Algorithm 3's evolving identifiers always properly color the cycle",
		Columns: []string{"n", "assignment", "schedulers", "steps checked", "violations"},
	}
	sizes := []int{5, 33, 128}
	assignments := []ids.Assignment{ids.Increasing, ids.Random, ids.Zigzag}
	type cell struct {
		n    int
		a    ids.Assignment
		spec schedSpec
	}
	type result struct {
		steps, violations int
		note              string
	}
	var cells []cell
	for _, n := range sizes {
		for _, a := range assignments {
			for _, sp := range schedSpecs() {
				cells = append(cells, cell{n: n, a: a, spec: sp})
			}
		}
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) result {
		g := graph.MustCycle(c.n)
		xs := ids.MustGenerate(c.a, c.n, cellSeed(o.seed(), "E12", c.n, c.a))
		seed := cellSeed(o.seed(), "E12", c.n, c.a, c.spec.name)
		e, _ := sim.NewEngine(g, core.NewFastNodes(xs))
		rec := &check.FastInvariantRecorder{}
		e.AddHook(rec.Hook())
		res, err := e.Run(c.spec.mk(seed), 500*c.n+20_000)
		if err != nil {
			return result{note: fmt.Sprintf("n=%d %s/%s: %v", c.n, c.a, c.spec.name, err)}
		}
		return result{steps: res.Steps, violations: len(rec.Violations)}
	})
	i := 0
	for _, n := range sizes {
		for _, a := range assignments {
			rowStart := i
			totalSteps, violations, nscheds := 0, 0, 0
			for ; i < len(cells) && cells[i].n == n && cells[i].a == a; i++ {
				if !done[i] {
					continue
				}
				r := results[i]
				if r.note != "" {
					t.AddNote("%s", r.note)
					continue
				}
				totalSteps += r.steps
				violations += r.violations
				nscheds++
			}
			if !rowComplete(done, rowStart, i) {
				continue
			}
			t.AddRow(n, a.String(), nscheds, totalSteps, violations)
		}
	}
	t.AddNote("paper: Lemma 4.5 — X̂_p(t) ≠ X̂_q(t) for every edge (p,q) at every t; checked at every step of every run")
	return t
}

// E13Concurrent exercises the goroutine runtime end to end: real
// concurrency, crash injection, and jitter, with the same correctness
// checks as the deterministic engine. Its cells run real goroutine
// executions, so (unlike every other experiment) the measured round
// statistics are inherently nondeterministic run to run.
func E13Concurrent(o Options) *Table {
	t := &Table{
		ID:      "E13",
		Title:   "Concurrent runtime: goroutine executions with crashes and jitter",
		Columns: []string{"n", "alg", "crashed", "survivors done", "mean rounds", "p90 rounds", "max rounds", "proper"},
	}
	sizes := []int{50, 200}
	if !o.Quick {
		sizes = append(sizes, 1000)
	}
	type cell struct {
		n   int
		alg string
	}
	type result struct {
		crashed       int
		surOK, proper bool
		mean, p90     float64
		maxRounds     int
		note          string
	}
	var cells []cell
	for _, n := range sizes {
		for _, alg := range []string{"five", "fast", "pair"} {
			cells = append(cells, cell{n: n, alg: alg})
		}
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) result {
		g := graph.MustCycle(c.n)
		seed := cellSeed(o.seed(), "E13", c.n, c.alg)
		xs := ids.MustGenerate(ids.Random, c.n, seed)
		crashes := crashPlan(c.n, 0.2, seed)
		opt := conc.Options{CrashAfter: crashes, Yield: true, Jitter: 50 * time.Microsecond, Seed: seed}
		d, err := protocol.Lookup(c.alg)
		if err != nil {
			return result{note: fmt.Sprintf("n=%d %s: %v", c.n, c.alg, err)}
		}
		res, err := d.RunConc(xs, opt)
		if err != nil {
			return result{note: fmt.Sprintf("n=%d %s: %v", c.n, c.alg, err)}
		}
		var rounds []int
		for i, a := range res.Activations {
			if !res.Crashed[i] {
				rounds = append(rounds, a)
			}
		}
		sum := stats.Summarize(stats.Floats(rounds))
		return result{
			crashed:   len(crashes),
			surOK:     check.SurvivorsTerminated(res) == nil,
			proper:    check.ProperColoring(g, res) == nil,
			mean:      sum.Mean,
			p90:       sum.P90,
			maxRounds: res.MaxActivations(),
		}
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
		t.AddRow(c.n, c.alg, r.crashed, r.surOK, r.mean, r.p90, r.maxRounds, r.proper)
	}
	t.AddNote("each node is a goroutine; rounds are atomic local immediate snapshots via ordered neighborhood locking")
	return t
}

// F1Livelock documents the repository's reproduction finding: under the
// paper's literal simultaneous-round semantics (§2.1), Algorithms 2 and 3
// admit livelock — an adversary keeping two adjacent processes in perfect
// lockstep next to an early-terminated neighbor with color 0 frozen in its
// register makes their b-components chase each other forever. Under the
// standard interleaved adversary all three algorithms are wait-free
// (exhaustively verified). Algorithm 1 is immune in both modes.
func F1Livelock(o Options) *Table {
	t := &Table{
		ID:      "F1",
		Title:   "Finding: simultaneous-round semantics break wait-freedom of Algorithms 2/3",
		Columns: []string{"alg", "cycle C_n", "mode", "schedules", "livelock cycle found"},
	}
	type config struct {
		mode   sim.Mode
		single bool
		label  string
	}
	configs := []config{
		{sim.ModeInterleaved, true, "all interleavings"},
		{sim.ModeSimultaneous, false, "all subset schedules"},
	}
	algs := []string{"pair", "five", "fast"}
	type cell struct {
		n   int
		cfg config
		alg string
	}
	var cells []cell
	for _, n := range []int{3, 4} {
		for _, cfg := range configs {
			for _, alg := range algs {
				cells = append(cells, cell{n: n, cfg: cfg, alg: alg})
			}
		}
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) model.Report {
		xs := ids.MustGenerate(ids.Increasing, c.n, 0)
		mopt := model.Options{SingletonsOnly: c.cfg.single}
		d, err := protocol.Lookup(c.alg)
		if err != nil {
			return model.Report{}
		}
		rep, err := d.Check(xs, c.cfg.mode, mopt)
		if err != nil {
			return model.Report{}
		}
		return rep
	})
	for i, c := range cells {
		if !done[i] {
			continue
		}
		t.AddRow(c.alg, c.n, c.cfg.mode.String(), c.cfg.label, results[i].CycleFound)
	}
	t.AddNote("safety (proper coloring, palette) holds in BOTH modes for all three algorithms — only liveness differs")
	t.AddNote("the concrete witness: C5, odd-class-first two-phase lockstep schedule, Algorithm 2 oscillates with period 2 (see TestF1 in the root test suite)")
	return t
}

// E19RegistryProtocols verifies the protocols that the registry made
// reachable from the model checker for the first time — the MIS pair, the
// renaming algorithm, and the DECOUPLED three-coloring — through the same
// descriptor surface the CLIs use: exhaustive state counts, livelock and
// violation verdicts, and (where the protocol is wait-free) the exact
// worst-case activation vector.
func E19RegistryProtocols(o Options) *Table {
	t := &Table{
		ID:      "E19",
		Title:   "Registry-driven verification of the newly reachable protocols",
		Columns: []string{"protocol", "graph", "states", "terminal", "livelock", "violations", "exact worst rounds"},
	}
	type cell struct {
		alg string
		n   int
	}
	var cells []cell
	sizes := []int{4}
	if !o.Quick {
		sizes = append(sizes, 5)
	}
	for _, n := range sizes {
		for _, alg := range []string{"mis-greedy", "mis-impatient", "renaming"} {
			cells = append(cells, cell{alg: alg, n: n})
		}
	}
	// The DECOUPLED tick graph is infinite, so its cell is depth-bounded
	// by the descriptor horizon and kept at C4 (C5 exceeds the state
	// budget even at shallow depth).
	cells = append(cells, cell{alg: "decoupled-three", n: 4})
	type result struct {
		graph   string
		rep     model.Report
		worst   []int
		worstOK bool
		note    string
	}
	results, done := mapCells(o, t, cells, func(_ int, c cell) result {
		d, err := protocol.Lookup(c.alg)
		if err != nil {
			return result{note: fmt.Sprintf("%s: %v", c.alg, err)}
		}
		g, err := d.Topology(c.n)
		if err != nil {
			return result{note: fmt.Sprintf("%s n=%d: %v", c.alg, c.n, err)}
		}
		xs := ids.MustGenerate(ids.Increasing, c.n, 0)
		opt := model.Options{SingletonsOnly: len(d.Modes) > 0, MaxDepth: d.DefaultCheckDepth}
		rep, err := d.Check(xs, sim.ModeInterleaved, opt)
		if err != nil {
			return result{note: fmt.Sprintf("%s n=%d: %v", c.alg, c.n, err)}
		}
		r := result{graph: g.Name(), rep: rep}
		if d.Worst != nil && !rep.CycleFound {
			r.worst, r.worstOK, _, _ = d.Worst(xs, sim.ModeInterleaved, opt)
		}
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
		worst := "—"
		switch {
		case r.rep.CycleFound:
			worst = "unbounded (livelock)"
		case r.worstOK:
			worst = fmt.Sprintf("%v", r.worst)
		case r.rep.Truncated:
			worst = fmt.Sprintf("≤ depth %d (tick horizon)", r.rep.DeepestPath)
		}
		t.AddRow(c.alg, r.graph, r.rep.States, r.rep.Terminal, r.rep.CycleFound, len(r.rep.Violations), worst)
	}
	t.AddNote("every cell dispatches through internal/protocol descriptors — the same surface the four CLIs share")
	t.AddNote("mis-impatient's violations are the expected unsafety (Theorem 4.1 direction: wait-free MIS must give up safety); mis-greedy's livelock is the complementary direction")
	return t
}
