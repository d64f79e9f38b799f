package model

// Exact reference for the compact-fingerprint checker: string-keyed walks
// over Clone/Step/Fingerprint with no hashing at all. The checker's
// 128-bit tables conflate two configurations only when both hash lanes
// collide, so its counts must equal these walks' counts exactly; the
// equivalence tests (equivalence_test.go, audit_test.go) compare against
// them.

import "asynccycle/internal/sim"

// RefReport is the exact walk's summary, field-compatible with Report.
type RefReport struct {
	States, Terminal, DeepestPath int
	CycleFound, Truncated         bool
}

// RefExplore walks every singleton schedule from root in the checker's
// DFS order, keying configurations by their exact fingerprint string, and
// prunes paths at maxDepth.
func RefExplore[V any](root *sim.Engine[V], maxDepth int) RefReport {
	var rep RefReport
	visited := map[string]bool{}
	onStack := map[string]bool{}
	var dfs func(e *sim.Engine[V], depth int)
	dfs = func(e *sim.Engine[V], depth int) {
		rep.DeepestPath = max(rep.DeepestPath, depth)
		fp := e.Fingerprint()
		if onStack[fp] {
			rep.CycleFound = true
			return
		}
		if visited[fp] {
			return
		}
		visited[fp] = true
		rep.States++
		if e.AllDone() {
			rep.Terminal++
			return
		}
		if depth >= maxDepth {
			rep.Truncated = true
			return
		}
		onStack[fp] = true
		for _, p := range workingSet(e) {
			child := e.Clone()
			child.Step([]int{p})
			dfs(child, depth+1)
		}
		delete(onStack, fp)
	}
	dfs(root.Clone(), 0)
	return rep
}

// RefWorst computes the exact per-process worst-case activation counts
// over all singleton schedules from root by a string-memoized
// longest-path walk. states is the number of memoized configurations; ok
// is false when a schedule loop makes some count unbounded.
func RefWorst[V any](root *sim.Engine[V]) (worst []int, states int, ok bool) {
	n := root.N()
	memo := map[string][]int{}
	onStack := map[string]bool{}
	ok = true
	var dfs func(e *sim.Engine[V]) []int
	dfs = func(e *sim.Engine[V]) []int {
		fp := e.Fingerprint()
		if onStack[fp] {
			ok = false
			return make([]int, n)
		}
		if v, hit := memo[fp]; hit {
			return v
		}
		best := make([]int, n)
		onStack[fp] = true
		for _, p := range workingSet(e) {
			child := e.Clone()
			child.Step([]int{p})
			sub := dfs(child)
			for q := range best {
				total := sub[q]
				if q == p {
					total++
				}
				best[q] = max(best[q], total)
			}
		}
		delete(onStack, fp)
		memo[fp] = best
		return best
	}
	worst = dfs(root.Clone())
	return worst, len(memo), ok
}
