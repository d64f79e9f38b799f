// Package fuzzsched is the schedule-fuzzing and cross-engine differential
// layer: deterministic, seed-reproducible campaigns of randomized
// adversarial schedules, each checked against the paper's correctness
// oracle (internal/check) and cross-validated between independent
// execution paths of the repository.
//
// A campaign is a fixed number of cells. Each cell derives every random
// decision (instance size, identifiers, crash plan, schedule) from the
// campaign seed and its own index through an avalanche mix (internal/rnd),
// runs the generated schedule on the protocol's engine under the primary
// semantics while a liveness oracle watches per-process activation bounds
// (protocols whose descriptor carries no wait-freedom bound run without
// the oracle), and then cross-checks the recorded schedule along the
// independent legs the descriptor supports:
//
//   - replay: a fresh engine replaying the recorded steps must reproduce
//     the primary run bit-exactly (scheduler/replay round-trip fidelity);
//   - clone-step: an engine advanced via Clone-then-Step at every step —
//     the model checker's branching primitive — must match the directly
//     stepped engine fingerprint-for-fingerprint (CloneInto fidelity);
//   - secondary mode (engine protocols): the same schedule under the
//     other activation semantics must stay safe (liveness is not compared
//     across modes, where finding F1 shows they legitimately differ);
//   - conc (sampled, protocols with a concurrent surface): the
//     real-concurrency runtime must solve the same instance and satisfy
//     the same safety and fault-tolerance oracle.
//
// The algorithm under test is any protocol registered in
// internal/protocol that exposes an instance surface; the oracles derive
// from the descriptor's correctness contract (internal/contract): safety
// is Contract.Safety (bare contracts keep the pre-contract violation text
// byte-for-byte) and the liveness bound is the descriptor's Bound.
// Stabilizing contracts (liveness closure+convergence) replace the
// end-state safety check — transiently illegal configurations are the
// whole point of self-stabilization — with a convergence oracle: after
// the adversarial prefix, a fair crash-free round-robin suffix of the
// contract's ConvergenceBound activations must reach a configuration
// that satisfies Safety and is a fixpoint across one further full pass
// (everyone publishes, nothing changes — closure). The suffix needs every
// process to keep moving, so cells with a crash plan skip it: a crashed
// process frozen in conflict legitimately stalls convergence forever.
//
// Oracle failures on the primary run are violations: the recorded schedule
// is shrunk (see shrink.go) to a minimal replayable witness. Leg
// mismatches are divergences: two layers that must agree disagreed. The
// distinction matters — under the paper-literal simultaneous semantics,
// livelock violations are expected findings (F1), while divergences are
// always repository bugs.
//
// Cells are dispatched through par.MapCtx and merged in cell order, so a
// campaign's report is byte-identical for a given seed at every worker
// count; a tripped runctl budget yields a report explicitly marked
// [PARTIAL: reason] covering exactly the completed cells.
package fuzzsched

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"asynccycle/internal/check"
	"asynccycle/internal/conc"
	"asynccycle/internal/contract"
	"asynccycle/internal/metrics"
	"asynccycle/internal/par"
	"asynccycle/internal/protocol"
	"asynccycle/internal/rnd"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

// Config parameterizes a campaign.
type Config struct {
	// Alg selects the algorithm under test: any protocol registered in
	// internal/protocol whose descriptor exposes an instance surface
	// (NewInstance), by name or alias.
	Alg string
	// N fixes the cycle size; N <= 0 varies it per cell in [3, 12].
	N int
	// Topology retargets the campaign onto a named topology spec (see
	// graph.ParseTopology); empty means the protocol's native topology.
	// Off-family retargeting clears the descriptor's wait-freedom bound,
	// so the liveness oracle is disabled automatically — the paper's
	// cycle bounds must never be asserted against another graph.
	Topology string
	// Mode is the primary activation semantics the oracle runs under.
	Mode sim.Mode
	// Seed determines the entire campaign: every cell derives its
	// randomness from (Seed, cell index) via rnd.Derive.
	Seed int64
	// Campaign is the number of schedules to fuzz (cells); <= 0 means 128.
	Campaign int
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// ConcEvery runs the real-concurrency leg on every k-th cell; 0 = off.
	ConcEvery int
	// Budget bounds the campaign: Timeout caps wall clock (the report goes
	// PARTIAL), MaxSteps caps each generated schedule's length.
	Budget runctl.Budget
	// Metrics, when non-nil, receives live campaign counters.
	Metrics *metrics.Run
}

// Finding is one oracle violation, with its shrunk replayable witness.
type Finding struct {
	Cell    int
	Kind    string // "liveness" | "safety"
	Detail  string
	N       int
	IDs     []int
	Crashes map[int]int
	Mode    string
	// Witness is the shrunk schedule; WitnessJSON its MarshalSteps form.
	Witness     [][]int
	WitnessJSON string
	OriginalLen int
	WitnessLen  int
}

// String renders the finding on one line (witness serialized separately).
func (f Finding) String() string {
	return fmt.Sprintf("cell=%d kind=%s n=%d mode=%s ids=%v crashes=%s witness=%d→%d steps: %s",
		f.Cell, f.Kind, f.N, f.Mode, f.IDs, crashString(f.Crashes), f.OriginalLen, f.WitnessLen, f.Detail)
}

// Divergence is a disagreement between two execution layers that must
// agree — always a repository bug, never an expected finding.
type Divergence struct {
	Cell   int
	Leg    string // "replay" | "clone-step" | "secondary-mode" | "conc"
	Detail string
}

// String renders the divergence on one line.
func (d Divergence) String() string {
	return fmt.Sprintf("cell=%d leg=%s: %s", d.Cell, d.Leg, d.Detail)
}

// Report aggregates a campaign. For a fixed Config (and no budget trip) it
// is byte-identical across runs and worker counts.
type Report struct {
	Alg      string
	N        int
	Topology string // empty = the protocol's native topology
	Contract string // contract label; empty = bare contract
	Mode     string
	Seed     int64
	Campaign int

	Schedules   int // cells completed
	Violations  []Finding
	Divergences []Divergence
	StatesSeen  int64 // clone-step fingerprints compared
	ShrinkIters int64 // shrinking replay attempts
	ConcRuns    int

	Partial    bool
	StopReason runctl.StopReason
}

// String renders the one-line summary.
func (r Report) String() string {
	nStr := fmt.Sprintf("%d", r.N)
	if r.N <= 0 {
		nStr = "3..12"
	}
	topo := ""
	if r.Topology != "" {
		// Printed only when set, so native-topology reports stay
		// byte-identical to the historical format.
		topo = fmt.Sprintf(" topology=%s", r.Topology)
	}
	if r.Contract != "" {
		// Same only-when-set rule: bare contracts carry no label, so
		// pre-contract reports keep their exact historical header.
		topo += fmt.Sprintf(" contract=%s", r.Contract)
	}
	s := fmt.Sprintf("alg=%s n=%s%s mode=%s seed=%d campaign=%d: schedules=%d violations=%d divergences=%d states=%d shrink-iters=%d conc-runs=%d",
		r.Alg, nStr, topo, r.Mode, r.Seed, r.Campaign, r.Schedules,
		len(r.Violations), len(r.Divergences), r.StatesSeen, r.ShrinkIters, r.ConcRuns)
	if r.Partial {
		s += fmt.Sprintf(" [PARTIAL: %s]", r.StopReason)
	}
	return s
}

// Write renders the full report: summary line, then each violation with
// its witness schedule, each divergence, and the PARTIAL marker.
func (r Report) Write(w io.Writer) {
	fmt.Fprintln(w, r.String())
	for i, f := range r.Violations {
		fmt.Fprintf(w, "violation[%d]: %s\n", i, f)
		fmt.Fprintf(w, "witness schedule: %s\n", f.WitnessJSON)
	}
	for i, d := range r.Divergences {
		fmt.Fprintf(w, "divergence[%d]: %s\n", i, d)
	}
	if r.Partial {
		fmt.Fprintf(w, "PARTIAL (%s): %d of %d cells unexplored; the report covers completed cells only\n",
			r.StopReason, r.Campaign-r.Schedules, r.Campaign)
	}
}

// cellResult is one cell's contribution, merged in cell order.
type cellResult struct {
	states      int64
	shrinkIters int64
	concRan     bool
	finding     *Finding
	divs        []Divergence
}

// Campaign runs a full fuzzing campaign and returns its report. The error
// is non-nil only for invalid configuration; oracle violations and layer
// divergences are reported in the Report, not as errors.
func Campaign(ctx context.Context, cfg Config) (Report, error) {
	run, d, err := cellRunner(cfg)
	if err != nil {
		return Report{}, err
	}
	if cfg.Campaign <= 0 {
		cfg.Campaign = 128
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Budget.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Budget.Timeout)
		defer cancel()
	}

	cells := make([]int, cfg.Campaign)
	for i := range cells {
		cells[i] = i
	}
	var ws *metrics.WorkerStats
	if cfg.Metrics != nil {
		w := cfg.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		ws = cfg.Metrics.SetWorkers(w)
	}
	results, done := par.MapCtx(ctx, cfg.Workers, cells, ws, func(_ int, cell int) cellResult {
		r := run(cell)
		if m := cfg.Metrics; m != nil {
			m.Schedules.Inc()
			m.States.Add(r.states)
			m.ShrinkIters.Add(r.shrinkIters)
		}
		return r
	})

	rep := Report{
		Alg: cfg.Alg, N: cfg.N, Topology: cfg.Topology, Contract: d.ContractLabel(),
		Mode: cfg.Mode.String(), Seed: cfg.Seed, Campaign: cfg.Campaign,
	}
	for i, r := range results {
		if !done[i] {
			continue
		}
		rep.Schedules++
		rep.StatesSeen += r.states
		rep.ShrinkIters += r.shrinkIters
		if r.concRan {
			rep.ConcRuns++
		}
		if r.finding != nil {
			rep.Violations = append(rep.Violations, *r.finding)
		}
		rep.Divergences = append(rep.Divergences, r.divs...)
	}
	if !par.AllDone(done) {
		rep.Partial = true
		if rep.StopReason = runctl.Reason(ctx); rep.StopReason == runctl.StopNone {
			rep.StopReason = runctl.StopTimeout
		}
	}
	return rep, nil
}

// cellRunner resolves the protocol descriptor and returns the per-cell
// worker plus the (possibly retargeted) descriptor. Any registered
// protocol with an instance surface is fuzzable; the oracles derive from
// the descriptor's contract and bound.
func cellRunner(cfg Config) (func(cell int) cellResult, *protocol.Descriptor, error) {
	d, err := protocol.Lookup(cfg.Alg)
	if err != nil {
		return nil, nil, fmt.Errorf("fuzzsched: %w", err)
	}
	if cfg.Topology != "" {
		// Retargeting replaces the capability closures wholesale: the
		// topology builder, the (possibly cleared) wait-freedom bound, the
		// identifier precondition, and the FixN size normalizer all come
		// from the retargeted copy, so every oracle below is consistent
		// with the graph actually being fuzzed.
		d, err = protocol.WithTopology(d, cfg.Topology)
		if err != nil {
			return nil, nil, fmt.Errorf("fuzzsched: %w", err)
		}
	}
	if d.NewInstance == nil {
		return nil, nil, fmt.Errorf("fuzzsched: algorithm %q has no branchable instance surface", cfg.Alg)
	}
	if !d.SupportsMode(cfg.Mode) {
		return nil, nil, fmt.Errorf("fuzzsched: algorithm %q does not support %s semantics", cfg.Alg, cfg.Mode)
	}
	return func(cell int) cellResult { return runCell(cfg, cell, d) }, d, nil
}

// runCell executes one cell: generate, run with the oracle watching,
// cross-check the recorded schedule along the differential legs the
// descriptor supports, and shrink any violation to a minimal witness.
func runCell(cfg Config, cell int, d *protocol.Descriptor) cellResult {
	rng := rand.New(rand.NewSource(rnd.Derive(cfg.Seed, cell)))
	n := cfg.N
	if n <= 0 {
		n = 3 + rng.Intn(10)
	}
	if d.FixN != nil {
		n = d.FixN(n)
	}
	if n < d.MinN {
		n = d.MinN
	}
	g, err := d.Topology(n)
	if err != nil {
		panic(fmt.Sprintf("fuzzsched: topology for %q at n=%d: %v", d.Name, n, err))
	}
	var xs []int
	if d.FuzzIDs != nil {
		xs = d.FuzzIDs(rng, n)
	} else {
		xs = rng.Perm(4 * n)[:n]
	}
	// The safety oracle is the contract's Safety; a bare contract's
	// violation text is byte-identical to the pre-contract oracle's.
	safety := func(r sim.Result) error { return d.Contract.Safety(g, r) }
	stabilizing := d.Contract.Liveness() == contract.ClosureConvergence
	bound := 0
	if d.Bound != nil {
		bound = d.Bound(n)
	}
	// capB stands in for the wait-freedom bound wherever one is needed for
	// pacing (schedule-length caps, long fuzz phases, conc round limits)
	// when the protocol carries none; the liveness oracle itself stays off.
	capB := bound
	if capB <= 0 {
		capB = 4*n + 16
	}

	// Crash plan: occasionally crash a few processes after a small number
	// of rounds (0 = never wakes, its register stays ⊥).
	crashes := map[int]int{}
	if rng.Float64() < 0.25 {
		k := 1 + rng.Intn(1+n/3)
		for j := 0; j < k; j++ {
			crashes[rng.Intn(n)] = rng.Intn(4)
		}
	}

	// Primary run: generate adversarially, record, and watch the liveness
	// oracle after every step so a bound breach stops the schedule at the
	// first offending activation (keeping the raw witness short). A
	// protocol without a wait-freedom bound runs without the oracle.
	maxSteps := runctl.Min(3*n*capB+64, cfg.Budget.MaxSteps)
	e := newInstance(d, xs, cfg.Mode, crashes)
	rec := schedule.NewRecording(newGen(rng, capB))
	vioKind, vioDetail := "", ""
	var set []int
	for t := 0; !e.AllSettled() && t < maxSteps; t++ {
		set = rec.Next(e, set[:0])
		e.Step(set)
		if bound > 0 {
			if i := overBound(e, n, bound); i >= 0 {
				vioKind = "liveness"
				vioDetail = fmt.Sprintf("process %d performed %d rounds without returning, exceeding the wait-freedom bound %d",
					i, e.Activations(i), bound)
				break
			}
		}
	}
	res := e.Result()
	if vioKind == "" {
		if stabilizing {
			// The adversarial prefix may legitimately end illegal; the
			// promise is convergence under a fair crash-free suffix.
			if len(crashes) == 0 {
				vioKind, vioDetail = stabilizationOracle(e, safety, n, stabilizationHorizon(d, n))
			}
		} else if err := safety(res); err != nil {
			vioKind, vioDetail = "safety", err.Error()
		}
	}
	steps := rec.Steps()

	out := cellResult{}

	// Leg 1: scheduler-driven replay under the primary mode must reproduce
	// the run bit-exactly.
	if res1 := playSteps(newInstance(d, xs, cfg.Mode, crashes), steps); !sameResult(res, res1) {
		out.divs = append(out.divs, Divergence{cell, "replay",
			fmt.Sprintf("replayed result differs from recorded run (steps %d vs %d)", res1.Steps, res.Steps)})
	}

	// Leg 2: clone-per-step replay — the model checker's branching
	// primitive. Instance b advances only through CloneInto copies; its
	// compact fingerprint must match the directly stepped instance a after
	// every step.
	{
		a := newInstance(d, xs, cfg.Mode, crashes)
		b := newInstance(d, xs, cfg.Mode, crashes)
		var scratch sim.Instance
		for _, s := range steps {
			if a.AllSettled() {
				break
			}
			a.Step(s)
			b2 := b.CloneInto(scratch)
			scratch = b
			b = b2
			b.Step(s)
			out.states++
			a1, a2 := a.FingerprintHash128()
			b1, b2h := b.FingerprintHash128()
			if a1 != b1 || a2 != b2h {
				out.divs = append(out.divs, Divergence{cell, "clone-step",
					fmt.Sprintf("fingerprints diverge at step %d of %d", a.Result().Steps, len(steps))})
				break
			}
		}
	}

	// Leg 3: the same schedule under the other activation semantics must
	// stay safe — for protocols that have one. Liveness is deliberately not
	// compared across modes: finding F1 shows the two semantics
	// legitimately disagree on it.
	if len(d.Modes) == 2 {
		other := sim.ModeSimultaneous
		if cfg.Mode == sim.ModeSimultaneous {
			other = sim.ModeInterleaved
		}
		if res3 := playSteps(newInstance(d, xs, other, crashes), steps); safety(res3) != nil {
			out.divs = append(out.divs, Divergence{cell, "secondary-mode",
				fmt.Sprintf("schedule safe under %s but unsafe under %s: %v", cfg.Mode, other, safety(res3))})
		}
	}

	// Leg 4 (sampled): the real-concurrency runtime on the same instance,
	// for protocols with a concurrent surface. Its interleaving comes from
	// the Go scheduler, so only the oracle verdict feeds the report — a
	// failure is a layer disagreement.
	if cfg.ConcEvery > 0 && cell%cfg.ConcEvery == 0 && d.RunConc != nil {
		out.concRan = true
		cres, err := d.RunConc(xs, conc.Options{
			CrashAfter: crashes,
			MaxRounds:  2*capB + 16,
			Yield:      true,
			Jitter:     20 * time.Microsecond,
			Seed:       rnd.Derive(cfg.Seed, cell),
		})
		switch {
		case err != nil:
			out.divs = append(out.divs, Divergence{cell, "conc", err.Error()})
		case safety(cres) != nil:
			out.divs = append(out.divs, Divergence{cell, "conc", safety(cres).Error()})
		case check.SurvivorsTerminated(cres) != nil:
			out.divs = append(out.divs, Divergence{cell, "conc", check.SurvivorsTerminated(cres).Error()})
		}
	}

	// Shrink the violation, if any, to a minimal replayable witness.
	if vioKind != "" {
		test := func(cand [][]int) bool {
			inst := newInstance(d, xs, cfg.Mode, crashes)
			resT := playSteps(inst, cand)
			if vioKind == "liveness" {
				return overBoundResult(resT, bound) >= 0
			}
			if stabilizing {
				// A candidate prefix still witnesses the violation when the
				// deterministic fair suffix after it still fails to stabilize.
				k, _ := stabilizationOracle(inst, safety, n, stabilizationHorizon(d, n))
				return k != ""
			}
			return safety(resT) != nil
		}
		shrunk, iters := shrink(steps, test, 4000)
		out.shrinkIters = int64(iters)
		data, _ := schedule.MarshalSteps(shrunk)
		out.finding = &Finding{
			Cell: cell, Kind: vioKind, Detail: vioDetail,
			N: n, IDs: xs, Crashes: crashes, Mode: cfg.Mode.String(),
			Witness: shrunk, WitnessJSON: string(data),
			OriginalLen: len(steps), WitnessLen: len(shrunk),
		}
	}
	return out
}

// stabilizationHorizon is the convergence budget the stabilization oracle
// grants: the contract's ConvergenceBound when the protocol states one, a
// generous quadratic default otherwise.
func stabilizationHorizon(d *protocol.Descriptor, n int) int {
	if st, ok := d.Contract.(*contract.Stabilizing); ok && st.ConvergenceBound != nil {
		return st.ConvergenceBound(n)
	}
	return n * (4*n + 16)
}

// stabilizationOracle drives the instance from wherever the adversarial
// prefix left it: a fair round-robin suffix of `horizon` singleton
// activations (the central-daemon schedule the stabilization analysis is
// stated for), then two full confirmation passes. After the first pass
// every process has published, so the visible registers are the complete
// configuration; Safety must hold there (convergence). The second pass
// must leave both the verdict and the configuration fingerprint unchanged
// — a legitimate configuration is a fixpoint, so any motion or regression
// is a closure violation. Requires a crash-free instance.
func stabilizationOracle(e sim.Instance, safety func(sim.Result) error, n, horizon int) (kind, detail string) {
	for t := 0; t < horizon; t++ {
		e.Step([]int{t % n})
	}
	pass := func() {
		for i := 0; i < n; i++ {
			e.Step([]int{i})
		}
	}
	pass()
	if err := safety(e.Result()); err != nil {
		return "convergence", fmt.Sprintf("not stabilized after %d fair activations: %v", horizon, err)
	}
	h1a, h1b := e.FingerprintHash128()
	pass()
	if err := safety(e.Result()); err != nil {
		return "closure", fmt.Sprintf("legitimate configuration regressed within one fair pass: %v", err)
	}
	if h2a, h2b := e.FingerprintHash128(); h2a != h1a || h2b != h1b {
		return "closure", "legitimate configuration is not a fixpoint: state changed across a fair pass"
	}
	return "", ""
}

// newInstance builds a fresh protocol instance with the given mode and
// crash plan. The inputs are generated to satisfy the descriptor's
// preconditions, so errors are programming bugs.
func newInstance(d *protocol.Descriptor, xs []int, mode sim.Mode, crashes map[int]int) sim.Instance {
	inst, err := d.NewInstance(xs, mode, crashes)
	if err != nil {
		panic(fmt.Sprintf("fuzzsched: instance for %q: %v", d.Name, err))
	}
	return inst
}

// playSteps replays a fixed schedule on a fresh instance and returns the
// final result.
func playSteps(e sim.Instance, steps [][]int) sim.Result {
	for _, s := range steps {
		if e.AllSettled() {
			break
		}
		e.Step(s)
	}
	return e.Result()
}

// overBound returns the first process whose activation count exceeds the
// wait-freedom bound, or -1. It counts terminated and crashed processes
// too, matching check.ActivationBound (crash limits are below the bound by
// construction, so in practice only working processes can trip it).
func overBound(e sim.Instance, n, bound int) int {
	for i := 0; i < n; i++ {
		if e.Activations(i) > bound {
			return i
		}
	}
	return -1
}

// overBoundResult is overBound on a finished result.
func overBoundResult(r sim.Result, bound int) int {
	for i, a := range r.Activations {
		if a > bound {
			return i
		}
	}
	return -1
}

// sameResult compares two results field by field.
func sameResult(a, b sim.Result) bool {
	return a.Steps == b.Steps &&
		reflect.DeepEqual(a.Outputs, b.Outputs) &&
		reflect.DeepEqual(a.Done, b.Done) &&
		reflect.DeepEqual(a.Crashed, b.Crashed) &&
		reflect.DeepEqual(a.Activations, b.Activations)
}

// crashString renders a crash plan deterministically (sorted by node).
func crashString(crashes map[int]int) string {
	if len(crashes) == 0 {
		return "none"
	}
	keys := make([]int, 0, len(crashes))
	for k := range crashes {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%d@%d", k, crashes[k])
	}
	return strings.Join(parts, ",")
}
