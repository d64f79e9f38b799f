package protocol

import (
	"fmt"

	"asynccycle/internal/contract"
	"asynccycle/internal/decoupled"
	"asynccycle/internal/graph"
	"asynccycle/internal/model"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

// decoupledInstance adapts the DECOUPLED engine to the type-erased
// sim.Instance surface, making the communication-layer model fuzzable
// through the same registry entry points as the state model. It overrides
// only the methods whose sim.Instance signatures differ from the engine's.
type decoupledInstance struct {
	*decoupled.Engine[decoupled.ThreeColorVal]
}

func (x *decoupledInstance) Step(active []int) []int { return x.Tick(active) }
func (x *decoupledInstance) Clone() sim.Instance     { return &decoupledInstance{x.Engine.Clone()} }

// CloneInto falls back to Clone: the DECOUPLED engine's buffers vary in
// length per configuration, so storage reuse buys nothing measurable.
func (x *decoupledInstance) CloneInto(dst sim.Instance) sim.Instance { return x.Clone() }

// decoupledThreeContract is the ThreeColor specification: a proper
// coloring of the terminated subgraph with only 3 colors — beating the
// state model's 5-color lower bound by exploiting the synchronous layer.
var decoupledThreeContract = bareContract("coloring", contract.Convergence, properColoring, palette(3))

func registerDecoupled() {
	mk := func(xs []int, crashes map[int]int) (*decoupled.Engine[decoupled.ThreeColorVal], graph.Graph, error) {
		g, err := cycleTopology(len(xs))
		if err != nil {
			return nil, graph.Graph{}, err
		}
		e, err := decoupled.NewEngine(g, decoupled.NewThreeColorNodes(xs))
		if err != nil {
			return nil, graph.Graph{}, err
		}
		for i, k := range crashes {
			if i < 0 || i >= g.N() {
				return nil, graph.Graph{}, fmt.Errorf("crash index %d out of range", i)
			}
			e.CrashAfter(i, k)
		}
		return e, g, nil
	}

	MustRegister(&Descriptor{
		Name:         "decoupled-three",
		Aliases:      []string{"three"},
		Problem:      "3-coloring of the cycle in the DECOUPLED model",
		Source:       "ThreeColor over the synchronous layer (§1.4, [13])",
		TopologyName: "cycle (synchronous reliable layer)",
		MinN:         3,
		Palette:      "{0..2}",
		BoundDesc:    "—",
		Expectation:  "safe; 3 colors are impossible in the state model — wake-then-crash still blocks",
		Family:       "cycle",
		Topology:     cycleTopology,
		ValidateIDs:  misIDs,
		Contract:     decoupledThreeContract,

		// The tick counter makes the state graph infinite; without a
		// depth horizon Check runs straight to its state budget.
		DefaultCheckDepth: 6,

		NewInstance: func(xs []int, mode sim.Mode, crashes map[int]int) (sim.Instance, error) {
			e, _, err := mk(xs, crashes)
			if err != nil {
				return nil, err
			}
			return &decoupledInstance{e}, nil
		},

		// Run drives the tick loop. The network clock is part of the
		// model, so MaxSteps bounds communication rounds, not process
		// steps.
		Run: func(xs []int, o RunOptions) (sim.Result, runctl.StopReason, error) {
			e, _, err := mk(xs, o.Crashes)
			if err != nil {
				return sim.Result{}, runctl.StopNone, err
			}
			if o.TraceText != nil {
				return sim.Result{}, runctl.StopNone, fmt.Errorf("decoupled-three does not support trace output")
			}
			sched := o.Scheduler
			if sched == nil {
				sched = schedule.Synchronous{}
			}
			if o.budgeted() {
				b := o.Budget
				b.MaxSteps = runctl.Min(o.MaxSteps, b.MaxSteps)
				res, reason := e.RunBudget(o.Context, sched, b)
				return res, reason, nil
			}
			res, err := e.Run(sched, o.MaxSteps)
			return res, runctl.StopNone, err
		},

		// Check explores the tick-transition system. The clock makes the
		// reachable graph infinite and acyclic, so callers should bound
		// Options.MaxDepth and read Truncated reports as verdicts over all
		// schedules of at most MaxDepth ticks.
		Check: func(xs []int, mode sim.Mode, opt model.Options) (model.Report, error) {
			e, g, err := mk(xs, nil)
			if err != nil {
				return model.Report{}, err
			}
			inv := func(e *decoupled.Engine[decoupled.ThreeColorVal]) error {
				return decoupledThreeContract.Safety(g, e.Result())
			}
			return model.Explore(e, opt, inv), nil
		},
	})
}
