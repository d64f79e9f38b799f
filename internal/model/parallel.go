package model

import (
	"sync/atomic"

	"asynccycle/internal/metrics"
	"asynccycle/internal/ooc"
	"asynccycle/internal/par"
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
)

// exploreParallel is Explore's Workers > 1 strategy: the root configuration
// is handled once here, then each of its first-level activation subsets is
// explored by an independent worker DFS with a private visited set, fanned
// out through par.Map (which preserves subset order in its results).
//
// Because workers do not share visited sets, states reachable from several
// first-level subsets are explored once per worker — duplicated wall-clock
// work traded for zero cross-worker synchronization. The merged report
// stays exact: each worker records the key set of its visited (and
// terminal) states, and States/Terminal are the sizes of the set unions,
// so they match the serial DFS exactly. Cycle certificates and violation
// witnesses are taken from the first worker (in subset enumeration order)
// that found one, with violations deduplicated across workers by state
// key. MaxStates is one shared atomic budget on the combined explored
// count across all workers (seeded with the root), so a parallel run
// trips at the same global state count a serial run does instead of
// letting every worker spend the full budget privately.
func exploreParallel[V any](root *sim.Engine[V], opt Options, inv Invariant[V]) Report {
	rep := Report{States: 1}

	// Key the root serially: FingerprintHash128 uses engine-owned scratch,
	// and workers must not touch the shared root. Under within-run
	// symmetry reduction the root is keyed canonically, like every state
	// the workers visit.
	canon := canonApplies(root, opt)
	var rootKey ooc.Key
	rootOrbit := 1
	if canon {
		rootKey.H1, rootKey.H2, _, rootOrbit = root.CanonicalFingerprintHash128()
		rep.Symmetry = SymmetryFull
		rep.WeightedStates = int64(rootOrbit)
	} else {
		rootKey.H1, rootKey.H2 = root.FingerprintHash128()
	}

	if inv != nil {
		if err := inv(root); err != nil {
			rep.ViolationWitness = copySteps(nil)
			rep.Violations = append(rep.Violations, err.Error())
		}
	}
	if root.AllDone() {
		rep.Terminal = 1
		return rep
	}
	working := workingSet(root)
	if len(working) == 0 {
		return rep
	}
	if opt.MaxDepth < 1 || opt.MaxStates <= 1 {
		rep.Truncated = true
		return rep
	}

	// Both run-wide counters start at 1: the root configuration handled
	// above is the first explored state and the first visited-table entry.
	// sharedStates makes MaxStates one budget for the whole run, tripping
	// at the same global count the serial dfs check does; sharedVisited
	// feeds the VisitedSize gauge the merged figure rather than one
	// worker's private table size.
	var sharedStates, sharedVisited atomic.Int64
	sharedStates.Store(1)
	sharedVisited.Store(1)

	subs := subsets(working, opt.SingletonsOnly)
	var ws *metrics.WorkerStats
	if opt.Metrics != nil {
		nw := opt.Workers
		if nw > len(subs) {
			nw = len(subs)
		}
		ws = opt.Metrics.SetWorkers(nw)
	}
	// MapCtx instead of Map: on cancellation the pool stops claiming
	// first-level subsets, and each worker's own checker interrupts its DFS,
	// so both in-flight and queued work stop promptly. Without a context the
	// behavior (and the merged report) is identical to par.Map.
	workers, done := par.MapCtx(opt.Context, opt.Workers, subs, ws, func(i int, subset []int) *explorer[V] {
		x := newExplorer[V](opt)
		x.inv = inv
		x.canon = canon
		x.sharedStates = &sharedStates
		x.sharedVisited = &sharedVisited
		x.collectKeys = true
		x.keys = make(map[ooc.Key]int)
		x.terminalKeys = make(map[ooc.Key]struct{})
		// Pre-seed the path with the first-level step and keep the root on
		// the stack for the whole worker: cycle prefixes and violation
		// witnesses then come out rooted at the initial configuration, and
		// cycles through the root itself are detected.
		x.onStack.Put(rootKey, struct{}{})
		x.path = append(x.path, subset)
		x.pathFPs = append(x.pathFPs, rootKey)
		// Each worker steps its own copy of the root once, then explores
		// in place from it.
		child := root.Clone()
		child.Step(subset)
		x.dfs(child, 1)
		return x
	})

	keys := map[ooc.Key]int{rootKey: rootOrbit}
	terminals := make(map[ooc.Key]struct{})
	vioSeen := make(map[ooc.Key]bool)
	for i, x := range workers {
		if x == nil {
			// Subset never claimed (cancelled before a worker picked it up):
			// its region is entirely unexplored.
			if !done[i] {
				rep.Truncated = true
				rep.noteStop(runctl.Reason(opt.Context))
			}
			continue
		}
		r := &x.report
		if r.Partial {
			rep.noteStop(r.StopReason)
		}
		for k, orbit := range x.keys {
			keys[k] = orbit
		}
		for k := range x.terminalKeys {
			terminals[k] = struct{}{}
		}
		if r.Truncated {
			rep.Truncated = true
		}
		if r.DeepestPath > rep.DeepestPath {
			rep.DeepestPath = r.DeepestPath
		}
		rep.HashCollisions += x.visited.Collisions() + x.onStack.Collisions()
		if r.CycleFound && !rep.CycleFound {
			rep.CycleFound = true
			rep.CyclePrefix = r.CyclePrefix
			rep.CycleLoop = r.CycleLoop
		}
		for i, msg := range r.Violations {
			k := x.vioKeys[i]
			if vioSeen[k] {
				continue
			}
			vioSeen[k] = true
			if len(rep.Violations) == 0 {
				rep.ViolationWitness = r.ViolationWitness
			}
			if len(rep.Violations) < opt.MaxViolations {
				rep.Violations = append(rep.Violations, msg)
			}
		}
	}
	rep.States = len(keys)
	rep.Terminal = len(terminals)
	if canon {
		rep.WeightedStates = 0
		for _, orbit := range keys {
			rep.WeightedStates += int64(orbit)
		}
	}
	if opt.Metrics != nil {
		opt.Metrics.HashCollisions.Add(int64(rep.HashCollisions))
	}
	return rep
}
