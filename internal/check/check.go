// Package check verifies the paper's correctness properties on execution
// results and on live executions:
//
//   - the outputs properly color the graph induced by terminated processes
//     (the Correctness clause of Theorems 3.1, 3.11 and 4.4);
//   - outputs lie in the claimed palettes;
//   - activation counts respect the claimed wait-free bounds;
//   - Lemma 4.5's invariant that Algorithm 3's evolving identifiers keep
//     properly coloring the cycle at every time step.
package check

import (
	"fmt"

	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/sim"
)

// ProperColoring verifies that every pair of adjacent terminated processes
// output distinct colors. This is exactly the paper's correctness
// condition: crashed or starved processes (Outputs[i] == -1) induce no
// constraint.
func ProperColoring(g graph.Graph, r sim.Result) error {
	if len(r.Outputs) != g.N() {
		return fmt.Errorf("check: result for %d processes on graph %s with %d nodes", len(r.Outputs), g.Name(), g.N())
	}
	// Walk each edge once, as u < v, in Edges' order, without building the
	// edge list: the model checker calls this at every explored state.
	for u := 0; u < g.N(); u++ {
		if !r.Done[u] {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if u < v && r.Done[v] && r.Outputs[u] == r.Outputs[v] {
				return fmt.Errorf("check: improper coloring on %s: nodes %d and %d both output %d", g.Name(), u, v, r.Outputs[u])
			}
		}
	}
	return nil
}

// PaletteRange verifies that every terminated process output a color in
// {0, …, k−1} — with k = 5 this is the palette clause of Theorems 3.11
// and 4.4.
func PaletteRange(r sim.Result, k int) error {
	for i, out := range r.Outputs {
		if r.Done[i] && (out < 0 || out >= k) {
			return fmt.Errorf("check: node %d output %d outside palette {0..%d}", i, out, k-1)
		}
	}
	return nil
}

// PairPalette verifies that every terminated process output an encoded
// color pair (a, b) with a+b ≤ maxDeg — the palette clause of Theorem 3.1
// (maxDeg = 2) and of Algorithm 4 in general.
func PairPalette(r sim.Result, maxDeg int) error {
	for i, out := range r.Outputs {
		if !r.Done[i] {
			continue
		}
		if !core.InPairPalette(out, maxDeg) {
			a, b := core.DecodePair(out)
			return fmt.Errorf("check: node %d output pair (%d,%d) with a+b > %d", i, a, b, maxDeg)
		}
	}
	return nil
}

// ActivationBound verifies that no process performed more than bound
// rounds; this applies to terminated and crashed processes alike, since the
// wait-freedom bounds of the paper cap the activations of *working*
// processes.
func ActivationBound(r sim.Result, bound int) error {
	for i, a := range r.Activations {
		if a > bound {
			return fmt.Errorf("check: node %d performed %d rounds, exceeding bound %d", i, a, bound)
		}
	}
	return nil
}

// AllTerminated verifies that every non-crashed process terminated — the
// termination clause under schedules that never abandon a process.
func AllTerminated(r sim.Result) error {
	for i := range r.Done {
		if !r.Done[i] && !r.Crashed[i] {
			return fmt.Errorf("check: node %d neither terminated nor crashed", i)
		}
	}
	return nil
}

// SurvivorsTerminated verifies that every process that was not crashed
// terminated with an output — the fault-tolerance clause: crashes must not
// prevent correct processes from finishing.
func SurvivorsTerminated(r sim.Result) error {
	for i := range r.Done {
		if r.Crashed[i] {
			continue
		}
		if !r.Done[i] || r.Outputs[i] < 0 {
			return fmt.Errorf("check: surviving node %d did not terminate", i)
		}
	}
	return nil
}

// FastInvariantRecorder accumulates violations of Lemma 4.5's invariant on
// a live Algorithm 3 execution: at every time step, for every edge (p, q)
// of the cycle, the internal identifier X_p must differ from both q's
// internal identifier X_q and q's published identifier X̂_q (when present).
type FastInvariantRecorder struct {
	Violations []string
}

// Hook returns a sim.Hook that checks the invariant after every step.
func (rec *FastInvariantRecorder) Hook() sim.Hook[core.FastVal] {
	return func(e *sim.Engine[core.FastVal], t int, _ []int) {
		g := e.Graph()
		for _, edge := range g.Edges() {
			p, q := edge[0], edge[1]
			fp, okP := e.NodeState(p).(*core.Fast)
			fq, okQ := e.NodeState(q).(*core.Fast)
			if !okP || !okQ {
				rec.Violations = append(rec.Violations, fmt.Sprintf("t=%d: node state is not *core.Fast", t))
				return
			}
			if fp.X() == fq.X() {
				rec.Violations = append(rec.Violations,
					fmt.Sprintf("t=%d: X_%d == X_%d == %d", t, p, q, fp.X()))
			}
			if rq := e.Register(q); rq.Present && fp.X() == rq.Val.X {
				rec.Violations = append(rec.Violations,
					fmt.Sprintf("t=%d: X_%d == X̂_%d == %d", t, p, q, fp.X()))
			}
			if rp := e.Register(p); rp.Present && fq.X() == rp.Val.X {
				rec.Violations = append(rec.Violations,
					fmt.Sprintf("t=%d: X_%d == X̂_%d == %d", t, q, p, fq.X()))
			}
		}
	}
}

// Err returns an error summarizing violations, or nil if none occurred.
func (rec *FastInvariantRecorder) Err() error {
	if len(rec.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d identifier-invariant violations; first: %s", len(rec.Violations), rec.Violations[0])
}
