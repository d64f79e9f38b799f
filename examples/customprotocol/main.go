// Command customprotocol demonstrates the protocol registry's extension
// contract (DESIGN.md §10) end to end: it defines a toy wait-free
// 2-coloring of even cycles as ordinary sim.Node state machines, registers
// it with protocol.RegisterEngine, and then drives it through every layer
// the builtin algorithms use — the root facade (RunProtocol), the bounded
// model checker, and the schedule fuzzer — without touching any of them.
//
// The protocol: identifiers on an even cycle are promised to alternate in
// parity (the precondition ValidateIDs enforces and FuzzIDs generates), so
// "output my identifier's parity" is a proper 2-coloring. Each process
// publishes once, looks at its neighbors once, and terminates on its
// second activation — wait-free with bound 2, trivially crash-tolerant.
package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"

	"asynccycle"
	"asynccycle/internal/check"
	"asynccycle/internal/contract"
	"asynccycle/internal/fuzzsched"
	"asynccycle/internal/graph"
	"asynccycle/internal/model"
	"asynccycle/internal/protocol"
	"asynccycle/internal/sim"
)

// parityVal is the register content: the process's identifier parity.
type parityVal struct {
	Parity int
}

// HashFingerprint implements sim.Hashable for the model checker.
func (v *parityVal) HashFingerprint(h *sim.FPHasher) { h.HashInt(v.Parity) }

// parityNode outputs its identifier's parity on its second activation.
// The first round publishes; terminating only on the next round keeps the
// published value visible to neighbors forever (rounds write before they
// read), the same idiom the builtin protocols use.
type parityNode struct {
	parity int
	seen   bool
}

func (p *parityNode) Publish() parityVal { return parityVal{Parity: p.parity} }

func (p *parityNode) Observe(view []sim.Cell[parityVal]) sim.Decision {
	if !p.seen {
		p.seen = true
		return sim.Decision{}
	}
	return sim.Decision{Return: true, Output: p.parity}
}

func (p *parityNode) Clone() sim.Node[parityVal] {
	cp := *p
	return &cp
}

// HashFingerprint implements sim.Hashable.
func (p *parityNode) HashFingerprint(h *sim.FPHasher) {
	h.HashInt(p.parity)
	h.HashBool(p.seen)
}

func newParityNodes(xs []int) []sim.Node[parityVal] {
	nodes := make([]sim.Node[parityVal], len(xs))
	for i, x := range xs {
		nodes[i] = &parityNode{parity: x % 2}
	}
	return nodes
}

// validateParityIDs is the protocol's input promise: an even cycle whose
// identifiers alternate in parity around it.
func validateParityIDs(xs []int) error {
	n := len(xs)
	if n < 4 || n%2 != 0 {
		return fmt.Errorf("parity2 needs an even cycle with n ≥ 4, got %d", n)
	}
	for i, x := range xs {
		if x < 0 {
			return fmt.Errorf("negative identifier %d", x)
		}
		if x%2 == xs[(i+1)%n]%2 {
			return fmt.Errorf("identifiers %d and %d share parity across edge %d-%d", x, xs[(i+1)%n], i, (i+1)%n)
		}
	}
	return nil
}

func init() {
	protocol.MustRegisterEngine(protocol.EngineSpec[parityVal]{
		Meta: protocol.Descriptor{
			Name:         "parity2",
			Problem:      "2-coloring of the even cycle from alternating-parity identifiers",
			Source:       "examples/customprotocol (registry extension demo)",
			TopologyName: "even cycle",
			MinN:         4,
			Palette:      "{0,1}",
			BoundDesc:    "2",
			Expectation:  "wait-free and safe: the promise does all the work",
			Bound:        func(n int) int { return 2 },
			Topology: func(n int) (graph.Graph, error) {
				if n%2 != 0 {
					return graph.Graph{}, fmt.Errorf("parity2 needs an even cycle, got n=%d", n)
				}
				return graph.Cycle(n)
			},
			ValidateIDs: validateParityIDs,
			// The contract is the protocol's one property surface: the
			// model checker's invariant, the fuzzer's safety oracle, and
			// the verdict lines of every run.
			Contract: &contract.Terminating{
				Name: "coloring",
				Props: []contract.Property{
					{Name: "proper", Check: check.ProperColoring},
					{Name: "palette", Check: func(_ graph.Graph, r sim.Result) error { return check.PaletteRange(r, 2) }},
				},
			},
			// FixN and FuzzIDs teach the fuzzer the promise: even sizes,
			// alternating parities, otherwise random identifiers.
			FixN: func(n int) int {
				if n < 4 {
					n = 4
				}
				if n%2 != 0 {
					n++
				}
				return n
			},
			FuzzIDs: func(rng *rand.Rand, n int) []int {
				xs := make([]int, n)
				for i := range xs {
					xs[i] = 2*rng.Intn(1000) + i%2
				}
				return xs
			},
		},
		New: newParityNodes,
	})
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "customprotocol:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// 1. The root facade runs it by name like any builtin, crashes included.
	xs := []int{10, 3, 6, 7, 2, 9}
	res, err := asynccycle.RunProtocol("parity2", xs, &asynccycle.Config{
		CrashAfter: map[int]int{4: 1},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "facade: terminated=%d/%d outputs=%v\n", res.TerminatedCount(), len(xs), res.Outputs)

	// 2. The model checker verifies it exhaustively over every schedule.
	d, err := protocol.Lookup("parity2")
	if err != nil {
		return err
	}
	rep, err := d.Check(xs, sim.ModeInterleaved, model.Options{SingletonsOnly: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "modelcheck: states=%d violations=%d livelock=%t\n", rep.States, len(rep.Violations), rep.CycleFound)

	// 3. The schedule fuzzer attacks it with its differential oracle.
	frep, err := fuzzsched.Campaign(context.Background(), fuzzsched.Config{
		Alg: "parity2", Mode: sim.ModeInterleaved, Seed: 7, Campaign: 32, Workers: 2, ConcEvery: 8,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "schedfuzz: schedules=%d violations=%d divergences=%d\n",
		frep.Schedules, len(frep.Violations), len(frep.Divergences))
	if len(rep.Violations) > 0 || rep.CycleFound || len(frep.Violations) > 0 || len(frep.Divergences) > 0 {
		return fmt.Errorf("parity2 failed verification")
	}
	return nil
}
