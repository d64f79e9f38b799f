package model

import (
	"fmt"

	"asynccycle/internal/sim"
)

// This file checks the self-stabilization contract (contract.Stabilizing,
// DESIGN.md §15): a legitimacy predicate partitions the configurations,
// and the promise is
//
//   - closure: every step out of a legitimate configuration reaches a
//     legitimate configuration ("once legal, stays legal"), and
//   - convergence: every fair execution reaches a legitimate
//     configuration — equivalently, no fair cycle (fair SCC, as in
//     FairlyTerminates) lies entirely within the illegitimate states.
//
// The two checks together are exhaustive over the reachable bounded state
// graph from the given initial configuration; sweeping them over all
// initial configurations certifies stabilization from arbitrary states.
// Restricting the convergence analysis to the subgraph induced by the
// illegitimate states is essential: legitimate configurations of a
// stabilizing protocol are fixpoints that run forever (nothing
// terminates), so a whole-graph fairness analysis would flag every legal
// self-loop as a livelock. A fair cycle through a legitimate state is not
// a convergence failure — and if such a cycle also visited an
// illegitimate state, some legal→illegal edge on it would already violate
// closure.

// StabReport is the verdict of one stabilization check.
type StabReport struct {
	// Explore carries the exploration statistics (states, truncation,
	// deepest path); CycleFound is set when convergence fails.
	Explore Report
	// Legitimate/Illegitimate count the reachable configurations on each
	// side of the legitimacy predicate.
	Legitimate   int
	Illegitimate int
	// ClosureViolations lists the first few legal→illegal transitions
	// (empty when closure holds on the explored region).
	ClosureViolations []string
	// LivelockWitness describes a fair SCC within the illegitimate states
	// ("" when every fair execution converges on the explored region).
	LivelockWitness string
}

// Closed reports whether no legal→illegal transition was found.
func (r StabReport) Closed() bool { return len(r.ClosureViolations) == 0 }

// Converges reports whether no fair illegitimate livelock was found.
func (r StabReport) Converges() bool { return r.LivelockWitness == "" }

// OK reports a clean exhaustive certificate: closure and convergence both
// hold and the exploration was not truncated.
func (r StabReport) OK() bool { return r.Closed() && r.Converges() && !r.Explore.Truncated }

// String renders a one-line summary.
func (r StabReport) String() string {
	return fmt.Sprintf("stabilization states=%d legit=%d illegit=%d closed=%t converges=%t truncated=%t",
		r.Explore.States, r.Legitimate, r.Illegitimate, r.Closed(), r.Converges(), r.Explore.Truncated)
}

// CheckStabilization explores the reachable configuration graph from root
// and checks closure + convergence against the legitimacy predicate
// (nil error = legitimate). The whole state graph stays in RAM, and of
// opt only the depth, state and violation bounds apply: callers refuse
// SpillDir, and a sweep's Symmetry, rather than pass them.
func CheckStabilization[V any](root *sim.Engine[V], opt Options, legal func(e *sim.Engine[V]) error) StabReport {
	opt = opt.withDefaults()
	g := &stateGraph{}
	rep := Report{}
	buildStateGraph(root, opt, g, &rep, 0, legal)
	rep.States = len(g.edges)
	rep.HashCollisions = g.ids.Collisions()
	if g.truncated {
		rep.Truncated = true
	}

	out := StabReport{}
	for _, ok := range g.legal {
		if ok {
			out.Legitimate++
		} else {
			out.Illegitimate++
		}
	}

	// Closure: scan every edge out of a legitimate state.
	for s, edges := range g.edges {
		if !g.legal[s] {
			continue
		}
		for _, ed := range edges {
			if g.legal[ed.to] {
				continue
			}
			if len(out.ClosureViolations) < opt.MaxViolations {
				out.ClosureViolations = append(out.ClosureViolations, fmt.Sprintf(
					"closure: legitimate state %d steps to illegitimate state %d via %s (%s)",
					s, ed.to, intsString(ed.activated), g.illegalWhy[ed.to]))
			}
		}
	}

	// Convergence: fair-SCC analysis over the illegitimate-induced
	// subgraph (legitimate states become isolated, so they only form
	// trivial SCCs that fairLivelock skips).
	sub := &stateGraph{
		edges:    make([][]edge, len(g.edges)),
		working:  g.working,
		terminal: g.terminal,
	}
	for s, edges := range g.edges {
		if g.legal[s] {
			continue
		}
		for _, ed := range edges {
			if g.legal[ed.to] {
				continue
			}
			sub.edges[s] = append(sub.edges[s], ed)
		}
	}
	for _, scc := range tarjanSCC(sub) {
		if desc := fairLivelock(sub, scc); desc != "" {
			out.LivelockWitness = desc
			rep.CycleFound = true
			break
		}
	}
	out.Explore = rep
	return out
}
