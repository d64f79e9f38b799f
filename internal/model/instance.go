package model

import (
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
)

// InstanceInvariant is a per-configuration safety check over a type-erased
// protocol instance; return a non-nil error to record a violation. It must
// not mutate the instance.
type InstanceInvariant func(inst sim.Instance) error

// ExploreInstance is Explore for type-erased protocol instances — engines
// that do not expose the typed *sim.Engine[V] surface, like the DECOUPLED
// communication-layer engine. It runs the same serial depth-first search
// over every schedule within the option bounds, checking inv (which may be
// nil) at every reachable configuration including the initial one, with
// cycle detection, violation witnesses, and budget-aware PARTIAL reports.
//
// Differences from the typed explorer, by design:
//   - state identity uses the full string Fingerprint (exact, no hash
//     lanes, so HashCollisions is always 0);
//   - the visited set stays in RAM: callers refuse Options.SpillDir
//     rather than pass it;
//   - clone recycling is up to the instance's CloneInto.
//
// For models whose configuration includes a monotone global clock (the
// DECOUPLED tick), the reachable graph is infinite and acyclic: bound the
// search with Options.MaxDepth and expect Truncated reports — verdicts
// then cover every schedule of at most MaxDepth steps.
func ExploreInstance(root sim.Instance, opt Options, inv InstanceInvariant) Report {
	opt = opt.withDefaults()
	opt, cancel := opt.withTimeout()
	defer cancel()
	x := &instExplorer{
		opt:     opt,
		inv:     inv,
		visited: make(map[string]struct{}),
		onStack: make(map[string]struct{}),
		ck:      runctl.NewChecker(opt.Context, opt.Budget.Timeout),
	}
	x.dfs(root, 0)
	return x.report
}

type instExplorer struct {
	opt       Options
	inv       InstanceInvariant
	visited   map[string]struct{}
	onStack   map[string]struct{}
	path      [][]int
	pathFPs   []string
	report    Report
	interrupt bool
	ck        *runctl.Checker
	free      []sim.Instance
}

func (x *instExplorer) clone(inst sim.Instance) sim.Instance {
	if n := len(x.free); n > 0 {
		dst := x.free[n-1]
		x.free = x.free[:n-1]
		return inst.CloneInto(dst)
	}
	return inst.Clone()
}

func (x *instExplorer) dfs(inst sim.Instance, depth int) {
	if x.interrupt {
		return
	}
	if reason, stop := x.ck.Check(); stop {
		x.interrupt = true
		x.report.Truncated = true
		x.report.noteStop(reason)
		return
	}
	if depth > x.report.DeepestPath {
		x.report.DeepestPath = depth
	}
	fp := inst.Fingerprint()
	if _, on := x.onStack[fp]; on {
		if !x.report.CycleFound {
			x.report.CycleFound = true
			start := 0
			for i, pfp := range x.pathFPs {
				if pfp == fp {
					start = i
					break
				}
			}
			x.report.CyclePrefix = copySteps(x.path[:start])
			x.report.CycleLoop = copySteps(x.path[start:])
		}
		return
	}
	if _, seen := x.visited[fp]; seen {
		return
	}
	x.visited[fp] = struct{}{}
	x.report.States++
	if m := x.opt.Metrics; m != nil {
		m.States.Inc()
		m.FrontierDepth.SetMax(int64(depth))
		m.VisitedSize.SetMax(int64(len(x.visited)))
	}
	if x.inv != nil {
		if err := x.inv(inst); err != nil {
			if len(x.report.Violations) == 0 {
				x.report.ViolationWitness = copySteps(x.path)
			}
			if len(x.report.Violations) < x.opt.MaxViolations {
				x.report.Violations = append(x.report.Violations, err.Error())
			}
		}
	}
	if inst.AllDone() {
		x.report.Terminal++
		if m := x.opt.Metrics; m != nil {
			m.Terminal.Inc()
		}
		return
	}
	if depth >= x.opt.MaxDepth {
		x.report.Truncated = true
		x.report.noteStop(runctl.StopMaxDepth)
		return
	}
	if x.report.States >= x.opt.MaxStates {
		x.report.Truncated = true
		x.report.noteStop(runctl.StopMaxStates)
		return
	}

	working := instWorkingSet(inst)
	if len(working) == 0 {
		return
	}
	x.onStack[fp] = struct{}{}
	x.pathFPs = append(x.pathFPs, fp)
	for _, subset := range subsets(working, x.opt.SingletonsOnly) {
		child := x.clone(inst)
		child.Step(subset)
		x.path = append(x.path, subset)
		x.dfs(child, depth+1)
		x.free = append(x.free, child)
		x.path = x.path[:len(x.path)-1]
		if x.interrupt {
			break
		}
	}
	x.pathFPs = x.pathFPs[:len(x.pathFPs)-1]
	delete(x.onStack, fp)
}

func instWorkingSet(inst sim.Instance) []int {
	var out []int
	for i := 0; i < inst.N(); i++ {
		if inst.Working(i) {
			out = append(out, i)
		}
	}
	return out
}
