// Package ssb reproduces the reduction in the proof of Property 2.1: if
// maximal independent set were solvable wait-free on the asynchronous
// cycle C_n, then strong symmetry breaking (SSB) would be solvable
// wait-free in the n-process asynchronous shared-memory model — which is
// impossible (Attiya & Paz [6], Theorem 11).
//
// The construction is implemented literally: shared-memory process p_i
// simulates the cycle algorithm of node i, treating the registers of
// p_{i−1 mod n} and p_{i+1 mod n} as its two cycle neighbors and ignoring
// the rest. Since the engine on the complete graph K_n *is* the
// shared-memory model (paper §2.3), wrapping any cycle algorithm's nodes
// with WrapCycle yields its shared-memory simulation, and SSB's two
// conditions can be checked on the outputs:
//
//  1. if all processes terminate, at least one outputs 0 and at least one
//     outputs 1;
//  2. in every execution in which at least one process terminates, at
//     least one terminated process outputs 1.
//
// Experiment E15 model-checks the wrapped MIS candidates: the safe one is
// not wait-free (so it never yields the SSB algorithm whose existence
// would contradict [6]) and the wait-free one violates the SSB
// conditions — exhibiting on bounded instances exactly the dichotomy the
// impossibility proof predicts.
package ssb

import (
	"fmt"

	"asynccycle/internal/sim"
)

// cycleSim adapts one node of a cycle algorithm to the complete graph:
// Observe receives the full shared-memory view (every other process's
// register, in K_n's ascending order) and forwards only the two cycle
// neighbors' cells.
type cycleSim[V any] struct {
	inner       sim.Node[V]
	left, right int            // slots of the cycle neighbors within the K_n view
	pair        [2]sim.Cell[V] // Observe's forwarded view, kept here so it does not escape per round
}

// WrapCycle wraps the nodes of a cycle algorithm for execution on the
// complete graph K_n, making process i simulate cycle node i with
// neighbors i±1 mod n, exactly as in the Property 2.1 reduction. It
// panics if fewer than three nodes are supplied (no cycle below C3).
func WrapCycle[V any](nodes []sim.Node[V]) []sim.Node[V] {
	n := len(nodes)
	if n < 3 {
		panic(fmt.Sprintf("ssb: cannot wrap %d nodes as a cycle", n))
	}
	wrapped := make([]sim.Node[V], n)
	for i, node := range nodes {
		left := (i + n - 1) % n
		right := (i + 1) % n
		wrapped[i] = &cycleSim[V]{
			inner: node,
			left:  knSlot(i, left),
			right: knSlot(i, right),
		}
	}
	return wrapped
}

// knSlot returns the position of process j in process i's K_n neighbor
// list (all other processes in ascending order).
func knSlot(i, j int) int {
	if j < i {
		return j
	}
	return j - 1
}

// Publish implements sim.Node.
func (c *cycleSim[V]) Publish() V { return c.inner.Publish() }

// Observe implements sim.Node.
func (c *cycleSim[V]) Observe(view []sim.Cell[V]) sim.Decision {
	c.pair = [2]sim.Cell[V]{view[c.left], view[c.right]}
	return c.inner.Observe(c.pair[:])
}

// Clone implements sim.Node.
func (c *cycleSim[V]) Clone() sim.Node[V] {
	return &cycleSim[V]{inner: c.inner.Clone(), left: c.left, right: c.right}
}

// String renders the wrapped node by value. Without it, fmt would print
// the inner interface as a pointer address, which would break the model
// checker's state fingerprinting (every clone would look unique).
func (c *cycleSim[V]) String() string {
	return fmt.Sprintf("sim(%v|%d,%d)", c.inner, c.left, c.right)
}

// HashFingerprint implements sim.Hashable, delegating to the wrapped node
// when it is itself Hashable and falling back to fmt otherwise — mirroring
// String's by-value rendering so hashed and string fingerprints agree.
func (c *cycleSim[V]) HashFingerprint(h *sim.FPHasher) {
	h.HashInt(c.left)
	h.HashInt(c.right)
	if hn, ok := c.inner.(sim.Hashable); ok {
		hn.HashFingerprint(h)
		return
	}
	fmt.Fprintf(h, "%v", c.inner)
}

// Check verifies the SSB conditions on an outcome; it returns a
// description of the first violation, or "".
func Check(outputs []int, done []bool) string {
	terminated := 0
	ones, zeros := 0, 0
	for i, d := range done {
		if !d {
			continue
		}
		terminated++
		switch outputs[i] {
		case 1:
			ones++
		case 0:
			zeros++
		default:
			return fmt.Sprintf("process %d output %d ∉ {0,1}", i, outputs[i])
		}
	}
	if terminated == len(done) && terminated > 0 {
		if ones == 0 {
			return "all processes terminated but none output 1"
		}
		if zeros == 0 {
			return "all processes terminated but none output 0"
		}
	}
	if terminated > 0 && ones == 0 {
		return "some processes terminated but none output 1"
	}
	return ""
}
