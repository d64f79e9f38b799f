package model

import (
	"fmt"
	"sort"
	"strings"

	"asynccycle/internal/ooc"
	"asynccycle/internal/sim"
)

// The paper's §1.3 discussion rests on the progress hierarchy of Herlihy
// and Shavit [25]: wait-free ⊋ starvation-free (termination under fair
// schedules) and wait-free ⊋ obstruction-free (termination when running
// solo). This file adds exhaustive analyzers for the two weaker classes,
// so the repository can certify statements like "the identifier-reduction
// component is starvation-free but not wait-free" on bounded instances.

// ObstructionFree checks that from every reachable configuration, every
// working process that runs solo terminates within soloBound of its own
// steps. It returns a counterexample description ("" when the property
// holds) and the exploration report.
func ObstructionFree[V any](root *sim.Engine[V], opt Options, soloBound int) (string, Report) {
	opt = opt.withDefaults()
	x := newExplorer[V](opt)
	// Solo-run termination is a rotation-invariant property (the solo
	// clone of position p in one configuration behaves as the solo clone
	// of the rotated position in its rotation image), so checking one
	// orbit representative covers the orbit.
	x.canon = canonApplies(root, opt)
	if x.canon {
		x.report.Symmetry = SymmetryFull
	}
	counterexample := ""
	x.inv = func(e *sim.Engine[V]) error {
		if counterexample != "" {
			return nil
		}
		for p := 0; p < e.N(); p++ {
			if !e.Working(p) {
				continue
			}
			solo := e.Clone()
			terminated := false
			for step := 0; step < soloBound; step++ {
				solo.Step([]int{p})
				if solo.Done(p) {
					terminated = true
					break
				}
			}
			if !terminated {
				counterexample = fmt.Sprintf(
					"process %d runs solo for %d steps without terminating", p, soloBound)
				return fmt.Errorf("%s", counterexample)
			}
		}
		return nil
	}
	return counterexample, x.explore(root)
}

// stateGraph is the explicit reachable configuration graph used by the
// fair-termination analysis. State identity uses the same compact-
// fingerprint table as the explorer. With canon set, states are rotation
// orbits: working sets and edge activation sets are stored in each state's
// canonical frame, and every edge records the frame shift into its target
// — enough to expand the quotient back into the full rotation closure for
// the fairness analysis (see liftQuotient).
type stateGraph struct {
	ids       ooc.Table[int]
	canon     bool
	n         int      // processes; frame arithmetic under canon
	edges     [][]edge // adjacency: edges[s] lists transitions out of s
	working   [][]int  // working processes per state (canonical frame under canon)
	orbit     []int    // exact rotation-orbit size per state (canon only)
	terminal  []bool
	truncated bool

	// Legality analysis (stabilization checking only; empty otherwise):
	// legal[s] records whether state s is legitimate, illegalWhy[s] the
	// first violated legitimacy property's message ("" when legal).
	legal      []bool
	illegalWhy []string
}

type edge struct {
	to        int
	activated []int
	// shift is the rotation from the source's canonical frame to the
	// target's: lifted copy (source, t) steps to (target, (t+shift) mod n).
	// Always 0 when the graph is unreduced.
	shift int
}

// rotateSet returns {(p+by) mod n : p ∈ ps}, sorted — frame conversion for
// working/activation sets.
func rotateSet(ps []int, by, n int) []int {
	if len(ps) == 0 {
		return nil
	}
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = ((p+by)%n + n) % n
	}
	sort.Ints(out)
	return out
}

// FairlyTerminates checks starvation-freedom over the bounded state
// space: it builds the reachable configuration graph and searches for a
// *fair* non-terminating cycle — a strongly connected component with at
// least one edge in which every process that is working throughout the
// component is activated by some internal edge. Such a component is an
// infinite execution in which every live process keeps taking steps yet
// nobody ever terminates.
//
// It returns "" if no fair livelock exists (the algorithm is
// starvation-free on this instance), or a description of the offending
// component, plus the exploration report.
func FairlyTerminates[V any](root *sim.Engine[V], opt Options) (string, Report) {
	opt = opt.withDefaults()
	g := &stateGraph{
		canon: canonApplies(root, opt),
		n:     root.N(),
	}
	rep := Report{}
	if g.canon {
		rep.Symmetry = SymmetryFull
	}
	buildStateGraph(root, opt, g, &rep, 0, nil)
	rep.States = len(g.edges)
	rep.HashCollisions = g.ids.Collisions()
	if g.truncated {
		rep.Truncated = true
	}
	if g.canon {
		for _, o := range g.orbit {
			rep.WeightedStates += int64(o)
		}
	}

	// Fairness is a property of process identities along infinite runs, so
	// the SCC analysis needs consistent identities across each component:
	// under reduction, expand the quotient into the full rotation closure
	// (cheap integer work, no engine stepping or hashing) and analyze that.
	// Every SCC of the closure lies inside one rotated copy of the
	// reachable graph — copies are successor-closed — so a fair livelock
	// exists in the closure exactly when one exists in the unreduced graph.
	ag := g
	if g.canon {
		ag = liftQuotient(g)
	}
	for _, scc := range tarjanSCC(ag) {
		if desc := fairLivelock(ag, scc); desc != "" {
			rep.CycleFound = true
			return desc, rep
		}
	}
	return "", rep
}

// liftQuotient expands a canonical quotient graph into the explicit
// rotation closure: n copies of every orbit representative, one per frame
// offset t, with working/activation sets rotated into each copy's real
// frame and edges following the recorded frame shifts.
func liftQuotient(g *stateGraph) *stateGraph {
	n := g.n
	q := len(g.edges)
	lift := &stateGraph{
		n:        n,
		edges:    make([][]edge, q*n),
		working:  make([][]int, q*n),
		terminal: make([]bool, q*n),
	}
	for id := 0; id < q; id++ {
		for t := 0; t < n; t++ {
			s := id*n + t
			lift.working[s] = rotateSet(g.working[id], t, n)
			lift.terminal[s] = g.terminal[id]
			for _, ed := range g.edges[id] {
				lift.edges[s] = append(lift.edges[s], edge{
					to:        ed.to*n + (t+ed.shift)%n,
					activated: rotateSet(ed.activated, t, n),
				})
			}
		}
	}
	return lift
}

// buildStateGraph interns e's configuration (or its rotation orbit, under
// canon) and recursively explores its successors. It returns the state id
// and the rotation carrying e into the state's canonical frame (0 when
// unreduced) — callers use the rotation to express edge data frame-
// consistently. A non-nil legal predicate turns on the legality analysis
// (stabilization checking): every interned state records whether it is
// legitimate and, when not, the first violation message. legal must not
// be combined with canon — legitimacy need not be rotation-invariant
// (stabilizing protocols may distinguish a root process).
func buildStateGraph[V any](e *sim.Engine[V], opt Options, g *stateGraph, rep *Report, depth int, legal func(*sim.Engine[V]) error) (int, int) {
	var k ooc.Key
	rot, orbit := 0, 1
	if g.canon {
		k.H1, k.H2, rot, orbit = e.CanonicalFingerprintHash128()
	} else {
		k.H1, k.H2 = e.FingerprintHash128()
	}
	if id, ok := g.ids.Get(k); ok {
		return id, rot
	}
	id := len(g.edges)
	g.ids.Put(k, id)
	working := workingSet(e)
	g.edges = append(g.edges, nil)
	if g.canon {
		// Store the working set in the canonical frame (position j of the
		// canonical frame is process (j+rot) of e, so e's process p sits at
		// canonical position p-rot).
		g.working = append(g.working, rotateSet(working, -rot, g.n))
		g.orbit = append(g.orbit, orbit)
	} else {
		g.working = append(g.working, working)
	}
	g.terminal = append(g.terminal, e.AllDone())
	if legal != nil {
		err := legal(e)
		g.legal = append(g.legal, err == nil)
		why := ""
		if err != nil {
			why = err.Error()
		}
		g.illegalWhy = append(g.illegalWhy, why)
	}
	if depth > rep.DeepestPath {
		rep.DeepestPath = depth
	}
	if e.AllDone() {
		rep.Terminal++
		return id, rot
	}
	if depth >= opt.MaxDepth || len(g.edges) >= opt.MaxStates {
		g.truncated = true
		return id, rot
	}
	if len(working) == 0 {
		return id, rot
	}
	for _, subset := range subsets(working, opt.SingletonsOnly) {
		child := e.Clone()
		// Step's result is child-owned scratch; the edge outlives the
		// child, so it keeps a copy.
		performed := append([]int(nil), child.Step(subset)...)
		to, childRot := buildStateGraph(child, opt, g, rep, depth+1, legal)
		ed := edge{to: to, activated: performed}
		if g.canon {
			ed.activated = rotateSet(performed, -rot, g.n)
			ed.shift = ((childRot-rot)%g.n + g.n) % g.n
		}
		g.edges[id] = append(g.edges[id], ed)
	}
	return id, rot
}

// fairLivelock reports whether the given SCC constitutes a fair
// non-terminating execution, returning its description or "".
func fairLivelock(g *stateGraph, scc []int) string {
	inSCC := make(map[int]bool, len(scc))
	for _, s := range scc {
		inSCC[s] = true
	}
	internal := 0
	activated := map[int]bool{}
	for _, s := range scc {
		for _, e := range g.edges[s] {
			if inSCC[e.to] {
				internal++
				for _, p := range e.activated {
					activated[p] = true
				}
			}
		}
	}
	if internal == 0 {
		return "" // trivial SCC: no cycle through it
	}
	// Processes working in *every* state of the component are the ones a
	// fair schedule must keep activating.
	alwaysWorking := map[int]bool{}
	for i, p := range g.working[scc[0]] {
		_ = i
		alwaysWorking[p] = true
	}
	for _, s := range scc[1:] {
		cur := map[int]bool{}
		for _, p := range g.working[s] {
			cur[p] = true
		}
		for p := range alwaysWorking {
			if !cur[p] {
				delete(alwaysWorking, p)
			}
		}
	}
	for p := range alwaysWorking {
		if !activated[p] {
			return "" // p is starved on every internal cycle: unfair
		}
	}
	var procs []int
	for p := range alwaysWorking {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	return fmt.Sprintf("fair livelock: component of %d states keeps processes %s working and active forever",
		len(scc), intsString(procs))
}

func intsString(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// tarjanSCC computes strongly connected components (iteratively, to spare
// the stack on large graphs).
func tarjanSCC(g *stateGraph) [][]int {
	n := len(g.edges)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var sccs [][]int
	next := 0

	type frame struct {
		v, ei int
	}
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		frames := []frame{{v: start}}
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(g.edges[f.v]) {
				w := g.edges[f.v][f.ei].to
				f.ei++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Post-order: pop.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
