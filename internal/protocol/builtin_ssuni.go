package protocol

import (
	"errors"
	"fmt"
	"math/rand"

	"asynccycle/internal/contract"
	"asynccycle/internal/model"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
	"asynccycle/internal/ssuni"
	"asynccycle/internal/trace"
)

// ssuniContract is the stabilizing correctness contract: the published
// colors properly color the ring within the 3-color palette, checked as
// an invariant on the legal suffix (not at termination — nothing ever
// terminates), with closure+convergence liveness and a crash-free
// convergence horizon for the trace-level oracles.
func ssuniContract() *contract.Stabilizing {
	return &contract.Stabilizing{
		Name: "ss-coloring",
		Props: []contract.Property{
			{Name: "proper-ring", Check: ssuni.ProperRing},
			{Name: "palette", Check: ssuni.PaletteRange},
		},
		ConvergenceBound: ssuni.ConvergenceBound,
	}
}

// registerSSUni hand-wires the self-stabilizing descriptor: the generic
// engine derivation assumes terminating runs (step exhaustion is an
// error, Check explores for terminal verdicts), while a stabilizing run
// ends when its step budget does and is checked for closure+convergence
// instead. Identifiers double as initial colors (id mod 3), so any id
// vector denotes an arbitrary — possibly corrupted — initial state.
func registerSSUni() {
	ct := ssuniContract()

	mk := func(xs []int, mode sim.Mode, crashes map[int]int) (*sim.Engine[int], error) {
		e, err := ssuni.NewEngine(xs)
		if err != nil {
			return nil, err
		}
		e.SetMode(mode)
		for i, k := range crashes {
			if i < 0 || i >= e.N() {
				return nil, fmt.Errorf("crash index %d out of range", i)
			}
			e.CrashAfter(i, k)
		}
		return e, nil
	}

	// stabReport folds a stabilization verdict into the generic checker
	// report shape: closure violations and a livelock witness become
	// contract-labeled violation messages, a livelock marks CycleFound.
	stabReport := func(sr model.StabReport) model.Report {
		rep := sr.Explore
		for _, v := range sr.ClosureViolations {
			rep.Violations = append(rep.Violations, contract.Violation(ct.Name, "closure", errors.New(v)).Error())
		}
		if sr.LivelockWitness != "" {
			rep.Violations = append(rep.Violations, contract.Violation(ct.Name, "convergence", errors.New(sr.LivelockWitness)).Error())
		}
		return rep
	}

	d := &Descriptor{
		Name:         "ssuni",
		Aliases:      []string{"sscolor"},
		Problem:      "self-stabilizing 3-coloring of the unidirectional cycle (ids = initial colors mod 3)",
		Source:       "Bernard–Devismes–Potop-Butucaru–Tixeuil (arXiv:0805.0851)",
		TopologyName: "cycle",
		MinN:         3,
		Palette:      "{0,1,2}",
		BoundDesc:    "conv ≤ n(4n+16)",
		Expectation:  "closure + convergence from every initial state (certified C3–C5, E24)",
		Family:       "cycle",
		Topology:     cycleTopology,
		ValidateIDs: func(xs []int) error {
			if len(xs) < 3 {
				return fmt.Errorf("cycle needs n ≥ 3, got %d", len(xs))
			}
			return nil
		},
		Contract: ct,
		// The stabilization analysis is for the central daemon; the
		// interleaved mode realizes it (DESIGN.md §15).
		Modes: []sim.Mode{sim.ModeInterleaved},
		FuzzIDs: func(rng *rand.Rand, n int) []int {
			xs := make([]int, n)
			for i := range xs {
				xs[i] = rng.Intn(ssuni.K)
			}
			return xs
		},

		NewInstance: func(xs []int, mode sim.Mode, crashes map[int]int) (sim.Instance, error) {
			e, err := mk(xs, mode, crashes)
			if err != nil {
				return nil, err
			}
			return sim.InstanceOf(e), nil
		},

		// Run executes the step budget and stops: a stabilizing protocol
		// has no terminal configuration, so exhausting MaxSteps is the
		// run's natural end, not an error.
		Run: func(xs []int, o RunOptions) (sim.Result, runctl.StopReason, error) {
			e, err := mk(xs, o.Mode, o.Crashes)
			if err != nil {
				return sim.Result{}, runctl.StopNone, err
			}
			var rec *trace.Recorder[int]
			if o.TraceText != nil {
				rec = &trace.Recorder[int]{}
				e.AddHook(rec.Hook())
			}
			sched := o.Scheduler
			if sched == nil {
				sched = schedule.Synchronous{}
			}
			b := o.Budget
			b.MaxSteps = runctl.Min(o.MaxSteps, b.MaxSteps)
			res, reason := e.RunBudget(o.Context, sched, b)
			if reason == runctl.StopMaxSteps {
				reason = runctl.StopNone
			}
			if reason == runctl.StopNone && rec != nil {
				if err := rec.WriteText(o.TraceText); err != nil {
					return res, reason, err
				}
			}
			return res, reason, nil
		},

		// Check certifies stabilization from the given initial state:
		// exhaustive closure + fair-convergence analysis over the
		// reachable configuration graph, which stays in RAM.
		Check: func(xs []int, mode sim.Mode, opt model.Options) (model.Report, error) {
			if opt.SpillDir != "" {
				return model.Report{}, errors.New("ssuni check: spilling (SpillDir) is not supported")
			}
			e, err := mk(xs, mode, nil)
			if err != nil {
				return model.Report{}, err
			}
			return stabReport(model.CheckStabilization(e, opt, ssuni.Legal)), nil
		},

		// Sweep certifies stabilization from ALL 3^n initial states — the
		// stabilizing analogue of the identifier-assignment sweep. It is one
		// serial, unreduced loop over every start, each checked in RAM, with
		// no sharding, checkpoints or resume, so it refuses those options
		// rather than sweep everything and drop them.
		Sweep: func(n int, mode sim.Mode, opt model.Options) (model.SweepReport, error) {
			if n < 3 {
				return model.SweepReport{}, fmt.Errorf("cycle needs n ≥ 3, got %d", n)
			}
			switch {
			case opt.ShardCount > 1:
				return model.SweepReport{}, errors.New("ssuni sweep: sharding (ShardCount > 1) is not supported")
			case opt.OnOrbitDone != nil:
				return model.SweepReport{}, errors.New("ssuni sweep: checkpoints (OnOrbitDone) are not supported")
			case opt.SweepResume != nil:
				return model.SweepReport{}, errors.New("ssuni sweep: resuming (SweepResume) is not supported")
			case opt.Symmetry != model.SymmetryOff:
				return model.SweepReport{}, errors.New("ssuni sweep: symmetry reduction (Symmetry) is not supported")
			case opt.SpillDir != "":
				return model.SweepReport{}, errors.New("ssuni sweep: spilling (SpillDir) is not supported")
			}
			ck := runctl.NewChecker(opt.Context, 0)
			rep := model.SweepReport{N: n, AllOk: true}
			colors := make([]int, n)
			for {
				if reason, stop := ck.CheckNow(); stop {
					rep.Partial = true
					rep.AllOk = false
					if rep.StopReason == runctl.StopNone {
						rep.StopReason = reason
					}
					break
				}
				e, err := mk(colors, mode, nil)
				if err != nil {
					return model.SweepReport{}, err
				}
				sr := model.CheckStabilization(e, opt, ssuni.Legal)
				run := stabReport(sr)
				rep.Assignments++
				rep.Runs++
				rep.States += int64(run.States)
				rep.Violations += int64(len(run.Violations))
				rep.HashCollisions += run.HashCollisions
				if run.CycleFound {
					rep.CycleRuns++
				}
				if !sr.OK() {
					rep.AllOk = false
				}
				// Next color vector in [0,K)^n, lexicographic.
				i := 0
				for ; i < n; i++ {
					colors[i]++
					if colors[i] < ssuni.K {
						break
					}
					colors[i] = 0
				}
				if i == n {
					break
				}
			}
			return rep, nil
		},
	}
	MustRegister(d)
}
