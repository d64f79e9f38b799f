package protocol

import (
	"fmt"
	"runtime"

	"asynccycle/internal/conc"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/model"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
	"asynccycle/internal/trace"
)

// EngineSpec describes a protocol implemented as sim.Node state machines
// over the state-model engine. RegisterEngine derives the full capability
// surface (run, trace, conc, check, worst, optional sweep, fuzz instance)
// from the node constructor, so per-protocol registration is metadata plus
// one factory.
type EngineSpec[V any] struct {
	// Meta carries the descriptor metadata; its capability closures must
	// be nil (RegisterEngine fills them).
	Meta Descriptor
	// New builds the node state machines for the given identifiers.
	New func(xs []int) []sim.Node[V]
	// Sweep enables the all-assignments sweep surface. Unreduced sweeps
	// are sound on any topology; symmetry-reduced sweeps additionally
	// require the standard cycle, which internal/model enforces.
	Sweep bool
}

// RegisterEngine derives a full descriptor from an EngineSpec and
// registers it. The derived Run closure reproduces the facade's historical
// execution semantics byte-for-byte: same engine construction order, same
// budget dispatch condition, same step-limit errors.
func RegisterEngine[V any](s EngineSpec[V]) error {
	d := s.Meta
	if s.New == nil {
		return fmt.Errorf("protocol: engine spec %q without a node factory", d.Name)
	}
	if d.Topology == nil {
		return fmt.Errorf("protocol: engine spec %q without a topology", d.Name)
	}
	deriveEngine(&d, s)
	d.retarget = func(b graph.Builder) (*Descriptor, error) { return retargetEngine(s, b) }
	return Register(&d)
}

// deriveEngine fills in the capability closures over d's current Topology;
// the metadata fields must already be final. It is shared between initial
// registration and WithTopology retargeting.
func deriveEngine[V any](d *Descriptor, s EngineSpec[V]) {
	mk := func(xs []int, mode sim.Mode, crashes map[int]int) (*sim.Engine[V], graph.Graph, error) {
		g, err := d.Topology(len(xs))
		if err != nil {
			return nil, graph.Graph{}, err
		}
		e, err := sim.NewEngine(g, s.New(xs))
		if err != nil {
			return nil, graph.Graph{}, err
		}
		e.SetMode(mode)
		for i, k := range crashes {
			if i < 0 || i >= g.N() {
				return nil, graph.Graph{}, fmt.Errorf("crash index %d out of range", i)
			}
			e.CrashAfter(i, k)
		}
		return e, g, nil
	}

	// Engine-backed protocols support both activation semantics unless the
	// spec restricts them (a stabilizing protocol analyzed for a central
	// daemon declares interleaved only).
	if d.Modes == nil {
		d.Modes = []sim.Mode{sim.ModeInterleaved, sim.ModeSimultaneous}
	}

	d.NewInstance = func(xs []int, mode sim.Mode, crashes map[int]int) (sim.Instance, error) {
		e, _, err := mk(xs, mode, crashes)
		if err != nil {
			return nil, err
		}
		return sim.InstanceOf(e), nil
	}

	d.Run = func(xs []int, o RunOptions) (sim.Result, runctl.StopReason, error) {
		e, _, err := mk(xs, o.Mode, o.Crashes)
		if err != nil {
			return sim.Result{}, runctl.StopNone, err
		}
		var rec *trace.Recorder[V]
		if o.TraceText != nil {
			rec = &trace.Recorder[V]{}
			e.AddHook(rec.Hook())
		}
		sched := o.Scheduler
		if sched == nil {
			sched = schedule.Synchronous{}
		}
		if o.budgeted() {
			b := o.Budget
			b.MaxSteps = runctl.Min(o.MaxSteps, b.MaxSteps)
			res, reason := e.RunBudget(o.Context, sched, b)
			if reason == runctl.StopNone && rec != nil {
				if err := rec.WriteText(o.TraceText); err != nil {
					return res, reason, err
				}
			}
			return res, reason, nil
		}
		res, err := e.Run(sched, o.MaxSteps)
		if err != nil {
			return res, runctl.StopNone, err
		}
		if rec != nil {
			if err := rec.WriteText(o.TraceText); err != nil {
				return res, runctl.StopNone, err
			}
		}
		return res, runctl.StopNone, nil
	}

	d.RunConc = func(xs []int, o conc.Options) (sim.Result, error) {
		g, err := d.Topology(len(xs))
		if err != nil {
			return sim.Result{}, err
		}
		return conc.Run(g, s.New(xs), o)
	}

	// The invariant reads the engine through its no-copy View: Safety
	// returns before the checker steps the engine again and keeps nothing.
	invariant := func(g graph.Graph) model.Invariant[V] {
		safety := d.Contract.Safety
		return func(e *sim.Engine[V]) error { return safety(g, e.View()) }
	}

	d.Check = func(xs []int, mode sim.Mode, opt model.Options) (model.Report, error) {
		e, g, err := mk(xs, mode, nil)
		if err != nil {
			return model.Report{}, err
		}
		return model.Explore(e, opt, invariant(g)), nil
	}

	d.Worst = func(xs []int, mode sim.Mode, opt model.Options) ([]int, bool, model.Report, error) {
		e, _, err := mk(xs, mode, nil)
		if err != nil {
			return nil, false, model.Report{}, err
		}
		worst, ok, rep := model.WorstActivations(e, opt)
		return worst, ok, rep, nil
	}

	if s.Sweep {
		mkN := func(mode sim.Mode) func(xs []int) (*sim.Engine[V], error) {
			return func(xs []int) (*sim.Engine[V], error) {
				e, _, err := mk(xs, mode, nil)
				return e, err
			}
		}
		// A registry sweep explores its orbit representatives on every CPU
		// unless the caller sets Workers: mk builds a fresh engine per call,
		// and the invariant is Contract.Safety over each engine's own View.
		allCPUs := func(opt model.Options) model.Options {
			if opt.Workers <= 0 {
				opt.Workers = runtime.GOMAXPROCS(0)
			}
			return opt
		}
		d.Sweep = func(n int, mode sim.Mode, opt model.Options) (model.SweepReport, error) {
			g, err := d.Topology(n)
			if err != nil {
				return model.SweepReport{}, err
			}
			return model.SweepExplore(n, mkN(mode), allCPUs(opt), invariant(g))
		}
		d.SweepWorst = func(n int, mode sim.Mode, opt model.Options) (model.SweepReport, error) {
			return model.SweepWorstActivations(n, mkN(mode), allCPUs(opt))
		}
	}
}

// retargetEngine rebuilds the spec's descriptor over a different topology
// builder. The returned copy is NOT registered: it is a per-call view for
// the dispatch site that asked for it.
func retargetEngine[V any](s EngineSpec[V], b graph.Builder) (*Descriptor, error) {
	d := s.Meta
	sameFamily := b.Family == d.Family
	d.TopologyName = b.Spec
	d.Topology = b.Build
	if b.MinN > d.MinN {
		d.MinN = b.MinN
	}
	if b.FixN != nil {
		native := d.FixN
		d.FixN = func(n int) int {
			if native != nil {
				n = native(n)
			}
			return b.FixN(n)
		}
	}
	if !sameFamily {
		// The wait-freedom bound, the verified expectation, and the
		// identifier precondition are all statements about the native
		// family. Off-family instances keep only distinctness, and every
		// liveness oracle (the fuzzer's bound leg, -worst round caps)
		// gates on the cleared Bound.
		d.Bound = nil
		d.BoundDesc = ""
		d.Expectation = ""
		minN := d.MinN
		spec := b.Spec
		d.ValidateIDs = func(xs []int) error {
			if len(xs) < minN {
				return fmt.Errorf("topology %s needs n ≥ %d, got %d", spec, minN, len(xs))
			}
			if !ids.Unique(xs) {
				return fmt.Errorf("identifiers must be distinct and non-negative")
			}
			return nil
		}
	}
	if b.Family != "cycle" || b.Shuffled {
		// bigsim kernels index the ring directly (i±1 mod n); any other
		// adjacency — including a shuffled cycle's reordered neighbor
		// reads — would silently compute garbage (see CheckBigTopology).
		d.BigKernel = nil
	}
	deriveEngine(&d, s)
	d.retarget = func(b graph.Builder) (*Descriptor, error) { return retargetEngine(s, b) }
	return &d, nil
}

// MustRegisterEngine is RegisterEngine, panicking on error.
func MustRegisterEngine[V any](s EngineSpec[V]) {
	if err := RegisterEngine(s); err != nil {
		panic(err)
	}
}
