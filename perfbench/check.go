package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/model"
	"asynccycle/internal/protocol"
	"asynccycle/internal/sim"
)

// c7SpillLimit is check-c7-spill's resident visited-set bound: well below
// every checked instance (71460 to 289421 states), so each check seals
// several sorted runs and the larger ones compact.
const c7SpillLimit = 30_000

// checkAlg binds a core protocol's registry descriptor to its node
// constructor, so the traced pass can build engines of the concrete
// register type and install its own invariant hook.
type checkAlg struct {
	name string
	d    *protocol.Descriptor
	// traced runs op through model.SweepExplore or model.Explore with the
	// tracing hook, charging layer calls to lt and probes to ks.
	traced func(op checkOp, opt model.Options, lt *layerTimes, ks *keyStream) (checkOutcome, error)
}

func newCheckAlg[V any](name string, nodes func([]int) []sim.Node[V]) (*checkAlg, error) {
	d, err := protocol.Lookup(name)
	if err != nil {
		return nil, err
	}
	a := &checkAlg{name: name, d: d}
	a.traced = func(op checkOp, opt model.Options, lt *layerTimes, ks *keyStream) (checkOutcome, error) {
		g, err := d.Topology(op.n)
		if err != nil {
			return checkOutcome{}, err
		}
		t := &tracer[V]{g: g, safety: d.Contract.Safety, canon: opt.Symmetry == model.SymmetryFull, lt: lt, ks: ks}
		mk := func(xs []int) (*sim.Engine[V], error) {
			e, err := sim.NewEngine(g, nodes(xs))
			if err != nil {
				return nil, err
			}
			e.SetMode(sim.ModeInterleaved)
			return e, nil
		}
		if op.xs == nil {
			rep, err := model.SweepExplore(op.n, mk, opt, t.hook)
			return sweepOutcome(op.n, rep), err
		}
		e, err := mk(op.xs)
		if err != nil {
			return checkOutcome{}, err
		}
		return reportOutcome(model.Explore(e, opt, t.hook)), nil
	}
	return a, nil
}

// coreAlgs binds six, five and fast, in that order.
func coreAlgs() ([]*checkAlg, error) {
	six, err := newCheckAlg("six", core.NewPairNodes)
	if err != nil {
		return nil, err
	}
	five, err := newCheckAlg("five", core.NewFiveNodes)
	if err != nil {
		return nil, err
	}
	fast, err := newCheckAlg("fast", core.NewFastNodes)
	if err != nil {
		return nil, err
	}
	return []*checkAlg{six, five, fast}, nil
}

// pinned are an operation's expected outputs. certified counts
// symmetry-weighted states (model.SweepReport.States, or Report.States
// for an unreduced single check); explored counts the states the checker
// actually visited (what metrics.Run.States counts).
type pinned struct {
	certified, explored, terminal int64
}

// checkOp is one model-checking operation: a sweep over every identifier
// assignment of C_n (xs == nil) or a single-instance check of xs.
type checkOp struct {
	alg  *checkAlg
	n    int
	xs   []int
	want pinned
}

type checkOutcome struct {
	certified, terminal int64
	collisions          int
	ok                  bool
}

func sweepOutcome(n int, r model.SweepReport) checkOutcome {
	all := 1
	for i := 2; i <= n; i++ {
		all *= i
	}
	return checkOutcome{
		certified:  r.States,
		terminal:   r.Terminal,
		collisions: r.HashCollisions,
		ok:         r.AllOk && !r.Partial && r.Assignments == all,
	}
}

func reportOutcome(r model.Report) checkOutcome {
	return checkOutcome{certified: int64(r.States), terminal: int64(r.Terminal), collisions: r.HashCollisions, ok: r.Ok()}
}

func (op checkOp) String() string {
	if op.xs == nil {
		return fmt.Sprintf("%s sweep C%d", op.alg.name, op.n)
	}
	return fmt.Sprintf("%s check %v", op.alg.name, op.xs)
}

// runUntraced executes op through the registry, as modelcheck does.
func (op checkOp) runUntraced(opt model.Options) (checkOutcome, error) {
	if op.xs == nil {
		rep, err := op.alg.d.Sweep(op.n, sim.ModeInterleaved, opt)
		return sweepOutcome(op.n, rep), err
	}
	rep, err := op.alg.d.Check(op.xs, sim.ModeInterleaved, opt)
	return reportOutcome(rep), err
}

// verify compares an outcome with the pinned counts.
func (op checkOp) verify(out checkOutcome, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", op, err)
	case !out.ok:
		return fmt.Errorf("%s: not exhaustive and clean", op)
	case out.certified != op.want.certified || out.terminal != op.want.terminal:
		return fmt.Errorf("%s: certified=%d terminal=%d, want %d and %d",
			op, out.certified, out.terminal, op.want.certified, op.want.terminal)
	}
	return nil
}

// sweepC5Want pins the C5 sweeps at symmetry=full: every assignment orbit
// of C5 has 10 members, so each certified count is 10× the explored one.
var sweepC5Want = map[string]pinned{
	"six":  {certified: 130880, explored: 13088, terminal: 4690},
	"five": {certified: 321860, explored: 32186, terminal: 17650},
	"fast": {certified: 612310, explored: 61231, terminal: 52520},
}

// runSweepC5 is the sweep-c5 workload: in-RAM exhaustive identifier
// sweeps of six, five and fast on C5 at symmetry=full with serial DFS.
// A sweep covers every assignment, so the seed only picks which protocol
// the cycle starts with.
func runSweepC5(v *env) error {
	algs, err := coreAlgs()
	if err != nil {
		return err
	}
	first := int(uint64(v.seed) % 3)
	var ops []checkOp
	for i := range algs {
		a := algs[(first+i)%len(algs)]
		ops = append(ops, checkOp{alg: a, n: 5, want: sweepC5Want[a.name]})
	}
	return runChecks(v, ops, model.Options{SingletonsOnly: true, Symmetry: model.SymmetryFull})
}

// runCheckC7Spill is the check-c7-spill workload: single-instance C7
// checks at symmetry=off with the visited set out of core. Each instance
// is a fixed identifier assignment mapped by a dihedral automorphism the
// seed picks: the input changes with the seed, the state space only up to
// isomorphism, so the pinned counts hold for every seed.
func runCheckC7Spill(v *env) error {
	algs, err := coreAlgs()
	if err != nil {
		return err
	}
	bases := []struct {
		xs   []int
		want pinned
	}{
		{[]int{1, 2, 3, 4, 5, 6, 7}, pinned{certified: 71460, explored: 71460, terminal: 805}},
		{[]int{1, 2, 3, 4, 5, 6, 7}, pinned{certified: 271326, explored: 271326, terminal: 6986}},
		{[]int{1, 2, 6, 4, 5, 3, 7}, pinned{certified: 289421, explored: 289421, terminal: 9187}},
	}
	rng := rand.New(rand.NewSource(v.seed))
	autos := graph.CycleAutomorphisms(7)
	var ops []checkOp
	for i, a := range algs {
		xs := graph.ApplyPerm(bases[i].xs, autos[rng.Intn(len(autos))])
		ops = append(ops, checkOp{alg: a, n: 7, xs: xs, want: bases[i].want})
	}
	opt := model.Options{
		SingletonsOnly: true,
		SpillDir:       v.scratch,
		SpillMemLimit:  c7SpillLimit,
	}
	return runChecks(v, ops, opt)
}

// runChecks measures a check workload: whole cycles of ops until the
// window has passed.
func runChecks(v *env, ops []checkOp, opt model.Options) error {
	setups, err := checkSetup(ops, opt)
	if err != nil {
		return err
	}
	if v.trace {
		return traceChecks(v, ops, opt, true)
	}
	// Latency is timed per exploration: a single check is one, a sweep makes
	// one per assignment orbit, reported through OnOrbitDone.
	var lat []float64
	var last time.Time
	opt.OnOrbitDone = func([]int, int, model.Report, model.SweepReport) error {
		now := time.Now()
		lat = append(lat, now.Sub(last).Seconds())
		last = now
		return nil
	}
	debug.FreeOSMemory()
	resetPeakRSS()
	var certified float64
	start := time.Now()
	for time.Since(start) < v.seconds {
		for _, op := range ops {
			last = time.Now()
			out, err := op.runUntraced(opt)
			if op.xs != nil {
				lat = append(lat, time.Since(last).Seconds())
			}
			v.rep.op(op.verify(out, err))
			certified += float64(out.certified)
		}
	}
	busy := time.Since(start)
	rss, err := selfPeakRSSMB()
	if err != nil {
		return err
	}
	v.rep.endToEnd(setups, rss, certified, busy, lat)
	return nil
}

// checkSetup is a check workload's set-up, timed setupRepeats times: a warm-up
// check of every protocol in the cycle on C5 with the workload's options.
func checkSetup(ops []checkOp, opt model.Options) ([]float64, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		for _, op := range ops {
			warm := checkOp{alg: op.alg, n: 5, xs: []int{1, 2, 3, 4, 5}}
			out, err := warm.runUntraced(opt)
			if err != nil || !out.ok {
				return nil, fmt.Errorf("set-up: %s failed (%v)", warm, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setups, nil
}

// traceChecks is a check workload's traced run: untraced whole cycles for
// half the window (the reference wall times), then one traced cycle that
// times every layer call and replays the visited-set probes into an
// ooc.Set at the workload's limit. own reports trace.overhead_share,
// which probes leave to the workload.
func traceChecks(v *env, ops []checkOp, opt model.Options, own bool) error {
	untraced := make([][]float64, len(ops))
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < v.seconds/2; cycle++ {
		for i, op := range ops {
			t0 := time.Now()
			out, err := op.runUntraced(opt)
			untraced[i] = append(untraced[i], time.Since(t0).Seconds())
			v.rep.op(op.verify(out, err))
		}
	}

	var all layerTimes
	var parts []attribution
	var tracedWall, untracedWall time.Duration
	var certified int64
	var collisions int
	var rp oocReplay
	for i, op := range ops {
		var lt layerTimes
		var ks keyStream
		t0 := time.Now()
		out, err := op.alg.traced(op, opt, &lt, &ks)
		tracedWall += time.Since(t0)
		untracedWall += time.Duration(median(untraced[i]) * float64(time.Second))
		err = op.verify(out, err)
		if err == nil && lt.explored != op.want.explored {
			err = fmt.Errorf("%s: explored %d states, want %d", op, lt.explored, op.want.explored)
		}
		if err == nil {
			var opRP oocReplay
			opRP, err = replayOOC(v.scratch, opt.SpillMemLimit, ks.runs)
			if err == nil && opRP.added != lt.explored {
				err = fmt.Errorf("%s: replayed probes added %d keys, the checker explored %d", op, opRP.added, lt.explored)
			}
			rp.merge(opRP)
			entries := lt.children + lt.roots
			key := lt.fp
			if opt.Symmetry == model.SymmetryFull {
				key = lt.canon
			}
			parts = append(parts,
				attribution{lt.safety.perCall(), lt.explored},
				attribution{lt.clone.perCall(), lt.children},
				attribution{lt.step.perCall(), lt.children},
				attribution{key.perCall(), entries})
			if opt.SpillDir != "" {
				parts = append(parts, attribution{opRP.cost.perCall(), entries})
			}
		}
		v.rep.op(err)
		all.merge(lt)
		certified += out.certified
		collisions += out.collisions
	}

	r := v.rep
	r.set("sim.step_ns", all.step.perCall(), "ns")
	r.set("sim.clone_ns", all.clone.perCall(), "ns")
	r.set("sim.fp128_ns", all.fp.perCall(), "ns")
	r.set("sim.canon_fp128_ns", all.canon.perCall(), "ns")
	r.set("contract.safety_ns", all.safety.perCall(), "ns")
	r.set("model.explored_states", float64(all.explored), "count")
	r.set("model.certified_states", float64(certified), "count")
	r.set("model.certified_per_explored", float64(certified)/float64(all.explored), "ratio")
	r.set("model.hash_collisions", float64(collisions), "count")
	r.set("model.attributed_share", attributedShare(parts, untracedWall), "ratio")
	r.set("ooc.add_ns", rp.cost.perCall(), "ns")
	r.set("ooc.spilled_keys", float64(rp.spilled), "count")
	r.set("ooc.runs", float64(rp.runs), "count")
	r.set("ooc.compactions", float64(rp.compactions), "count")
	r.set("ooc.page_reads_per_add", float64(rp.pageReads)/float64(rp.cost.calls), "ratio")
	if own {
		r.set("trace.overhead_share", overheadShare(tracedWall, untracedWall), "ratio")
	}
	return nil
}
