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
// fingerprint table as the explorer.
type stateGraph struct {
	ids       ooc.Table[int]
	edges     [][]edge // adjacency: edges[s] lists transitions out of s
	working   [][]int  // working processes per state
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
	g := &stateGraph{}
	rep := Report{}
	buildStateGraph(root, opt, g, &rep, 0, nil)
	rep.States = len(g.edges)
	rep.HashCollisions = g.ids.Collisions()
	if g.truncated {
		rep.Truncated = true
	}
	for _, scc := range tarjanSCC(g) {
		if desc := fairLivelock(g, scc); desc != "" {
			rep.CycleFound = true
			return desc, rep
		}
	}
	return "", rep
}

// buildStateGraph interns e's configuration and recursively explores its
// successors, returning the state id. A non-nil legal predicate turns on
// the legality analysis (stabilization checking): every interned state
// records whether it is legitimate and, when not, the first violation
// message.
func buildStateGraph[V any](e *sim.Engine[V], opt Options, g *stateGraph, rep *Report, depth int, legal func(*sim.Engine[V]) error) int {
	k := key(e)
	if id, ok := g.ids.Get(k); ok {
		return id
	}
	id := len(g.edges)
	g.ids.Put(k, id)
	working := workingSet(e)
	g.edges = append(g.edges, nil)
	g.working = append(g.working, working)
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
		return id
	}
	if depth >= opt.MaxDepth || len(g.edges) >= opt.MaxStates {
		g.truncated = true
		return id
	}
	if len(working) == 0 {
		return id
	}
	for _, subset := range subsets(working, opt.SingletonsOnly) {
		child := e.Clone()
		// Step's result is child-owned scratch; the edge outlives the
		// child, so it keeps a copy.
		performed := append([]int(nil), child.Step(subset)...)
		to := buildStateGraph(child, opt, g, rep, depth+1, legal)
		g.edges[id] = append(g.edges[id], edge{to: to, activated: performed})
	}
	return id
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
