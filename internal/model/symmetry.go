package model

// Sweep reduction under the cycle's automorphism group (see DESIGN.md §6
// for the soundness argument): an exhaustive sweep over all n!
// identifier-rank assignments of C_n keeps one representative per orbit of
// the dihedral group D_n (2n rotations/reflections) and weights its counts
// by the exact orbit size. Running the image assignment is isomorphic to
// running the original — rotations preserve the engine's fixed
// neighbor-list order outright, and reflections reverse it, which the
// algorithms cannot observe (they are neighbor-order-insensitive; the repo
// pins this with ShuffledNeighbors tests). Reduced sweep totals therefore
// multiply back to the unreduced totals exactly; the differential tests
// assert bit-exact equality.
//
// Every exploration keys its states by the plain fingerprint: on the
// registry's instances, whose identifiers are distinct, a rotation-minimal
// key merged no states.

import (
	"fmt"

	"asynccycle/internal/graph"
	"asynccycle/internal/metrics"
	"asynccycle/internal/par"
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
)

// Symmetry selects a sweep's reduction level.
type Symmetry int

const (
	// SymmetryOff disables all reduction (the default): a sweep explores
	// every assignment.
	SymmetryOff Symmetry = iota
	// SymmetryAssignments quotients sweep-level identifier assignments by
	// D_n with exact orbit weighting; each representative run is itself
	// unreduced.
	SymmetryAssignments
	// SymmetryFull is the assignment quotient too: it reduces a sweep
	// exactly as SymmetryAssignments does, and reports and checkpoints
	// keep its own name.
	SymmetryFull
)

// String returns "off", "assignments" or "full".
func (s Symmetry) String() string {
	switch s {
	case SymmetryAssignments:
		return "assignments"
	case SymmetryFull:
		return "full"
	default:
		return "off"
	}
}

// ParseSymmetry parses the -symmetry flag values off|assignments|full.
func ParseSymmetry(s string) (Symmetry, error) {
	switch s {
	case "off", "":
		return SymmetryOff, nil
	case "assignments":
		return SymmetryAssignments, nil
	case "full":
		return SymmetryFull, nil
	}
	return SymmetryOff, fmt.Errorf("model: unknown symmetry level %q (want off|assignments|full)", s)
}

// SweepReport aggregates an exhaustive identifier-assignment sweep.
// Weighted totals count every assignment (each orbit representative's
// contribution multiplied by its exact orbit size), so they are directly
// comparable across symmetry levels: a SymmetryOff sweep and a
// SymmetryAssignments sweep of the same instance must agree bit-for-bit on
// every weighted field, which the equivalence tests assert.
type SweepReport struct {
	// N is the cycle length; Symmetry the reduction level the sweep ran at.
	N        int
	Symmetry Symmetry
	// Assignments counts identifier assignments covered (n! when complete,
	// whether or not reduction was on); Runs counts explorations actually
	// performed (orbit representatives under reduction).
	Assignments int
	Runs        int
	// States/Terminal are weighted sums of per-run report counts.
	States   int64
	Terminal int64
	// CycleRuns counts assignments (weighted) whose exploration found a
	// non-termination cycle; Violations the weighted total of violation
	// messages recorded.
	CycleRuns  int64
	Violations int64
	// WorstPerProc is the supremum over assignments of the per-process
	// worst-case activation vector (index = cycle position of the run's own
	// frame, folded over the whole orbit); MaxWorst its maximum entry.
	// Only set by SweepWorstActivations.
	WorstPerProc []int
	MaxWorst     int
	// AllOk reports every per-run analysis was exhaustive and clean (no
	// cycles, violations, truncation).
	AllOk bool
	// HashCollisions sums lane-A collisions across runs.
	HashCollisions int
	// Partial/StopReason mark an interrupted sweep (budget or context);
	// counts then cover exactly the assignments processed.
	Partial    bool
	StopReason runctl.StopReason
}

// String renders a one-line summary.
func (r SweepReport) String() string {
	s := fmt.Sprintf("sweep n=%d symmetry=%s assignments=%d runs=%d states=%d terminal=%d cycles=%d violations=%d allok=%t",
		r.N, r.Symmetry, r.Assignments, r.Runs, r.States, r.Terminal, r.CycleRuns, r.Violations, r.AllOk)
	if r.WorstPerProc != nil {
		s += fmt.Sprintf(" worst=%v max=%d", r.WorstPerProc, r.MaxWorst)
	}
	if r.Partial {
		s += fmt.Sprintf(" [PARTIAL: %s]", r.StopReason)
	}
	return s
}

// maxSweepN bounds sweep sizes: n! assignments (or n!/(2n) representatives)
// beyond 8 processes is out of reach for exhaustive exploration anyway.
const maxSweepN = 8

// ErrSymmetryTopology is the sentinel wrapped by reduced sweeps on
// non-cycle topologies. The assignment quotient weights orbits by D_n
// (dihedral) orbit sizes, which are only the automorphisms of the standard
// cycle — on any other graph (or a cycle with shuffled neighbor lists,
// which reflections no longer map to themselves) the weighted totals would
// be silently wrong, so the sweep refuses instead of degrading.
var ErrSymmetryTopology = fmt.Errorf("model: symmetry-reduced sweeps require the standard cycle topology")

// SweepExplore runs Explore over every identifier-rank assignment of C_n
// (all permutations of {1..n}; only relative identifier order is observable
// by the algorithms, so ranks cover all real identifier inputs). mk builds
// the engine for one assignment. Under opt.Symmetry ≥ SymmetryAssignments
// only canonical orbit representatives are explored and their counts are
// weighted by exact orbit size; verdict-bearing fields (cycles, violations,
// AllOk) cover all assignments either way, because every assignment is
// isomorphic to its representative.
//
// opt.Workers > 1 explores that many representatives at once, each on a
// worker's own serial explorer, and commits them in enumeration order (see
// sweep), so the report and every OnOrbitDone call equal the serial
// sweep's; mk and inv must then be safe for concurrent use. Workers <= 1
// runs the serial loop.
func SweepExplore[V any](n int, mk func(xs []int) (*sim.Engine[V], error), opt Options, inv Invariant[V]) (SweepReport, error) {
	return sweep(n, mk, opt, inv, false)
}

// SweepWorstActivations runs WorstActivations over every identifier-rank
// assignment of C_n, reducing as SweepExplore does, and folds the
// per-assignment worst-activation vectors into a per-position supremum.
// Because an orbit representative's vector is, position-wise, the relabeled
// vector of every assignment in its orbit, the representative's vector is
// folded under all 2n automorphisms — the reduced supremum equals the
// unreduced one exactly (asserted by the differential tests). opt.Workers
// counts orbit workers as in SweepExplore.
func SweepWorstActivations[V any](n int, mk func(xs []int) (*sim.Engine[V], error), opt Options) (SweepReport, error) {
	return sweep[V](n, mk, opt, nil, true)
}

// orbit is one representative a sweep explores: its assignment and orbit
// weight, then the outcome a worker stores until the in-order commit
// folds it.
type orbit struct {
	xs     []int
	weight int
	run    Report
	vec    []int // worst mode: the representative's activation supremum
	ok     bool  // worst mode: the analysis was conclusive
	err    error // mk refused the assignment
}

// sweep enumerates the representatives up front, then runs them through
// par.Run: each worker explores on its own serial explorer (its tables
// reset, not reallocated, between orbits) and stores the outcome, and the
// commits fold outcomes into the report and call OnOrbitDone strictly in
// enumeration order. One worker is the serial loop. A commit stops the
// sweep at the first orbit that ended non-deterministically (it is folded,
// as the serial loop folds it, but passed to no OnOrbitDone), or when
// OnOrbitDone or mk fails; deterministic stops (max-states, depth) fold and
// the sweep goes on.
func sweep[V any](n int, mk func(xs []int) (*sim.Engine[V], error), opt Options, inv Invariant[V], worstMode bool) (SweepReport, error) {
	if n < 3 || n > maxSweepN {
		return SweepReport{}, fmt.Errorf("model: sweep over C%d: need 3 ≤ n ≤ %d", n, maxSweepN)
	}
	if opt.Symmetry != SymmetryOff {
		// Reduced sweeps weight orbit representatives by dihedral orbit
		// sizes, a standard-cycle-only argument; probe the engine factory's
		// topology with the identity assignment and refuse loudly on
		// anything else: the weighting has no sound fallback short of
		// SymmetryOff.
		probe, err := mk(identityAssignment(n))
		if err != nil {
			return SweepReport{}, fmt.Errorf("model: sweep topology probe: %w", err)
		}
		if !graph.IsStandardCycle(probe.Graph()) {
			return SweepReport{}, fmt.Errorf("%w (got %s; rerun with -symmetry off)", ErrSymmetryTopology, probe.Graph().Name())
		}
	}
	opt = opt.withDefaults()
	opt, cancel := opt.withTimeout()
	defer cancel()
	shards := opt.ShardCount
	if shards < 1 {
		shards = 1
	}
	if shards > 1 && (opt.ShardIndex < 0 || opt.ShardIndex >= shards) {
		return SweepReport{}, fmt.Errorf("model: sweep shard %d/%d: index out of range", opt.ShardIndex, shards)
	}
	rep := SweepReport{N: n, Symmetry: opt.Symmetry, AllOk: true}
	var cursor []int
	if opt.SweepResume != nil {
		// Seed the cumulative report with the completed prefix's totals; the
		// enumeration below skips every assignment ≤ Cursor. The caller
		// (cmd/modelcheck) has already validated that the checkpoint's
		// configuration matches this sweep's, so the deterministic
		// enumeration continues exactly where the interrupted run stopped.
		rep = opt.SweepResume.Totals
		rep.N, rep.Symmetry = n, opt.Symmetry
		rep.Partial, rep.StopReason = false, runctl.StopNone
		rep.WorstPerProc = append([]int(nil), rep.WorstPerProc...)
		cursor = opt.SweepResume.Cursor
	}
	if worstMode && rep.WorstPerProc == nil {
		rep.WorstPerProc = make([]int, n)
	}
	reduce := opt.Symmetry != SymmetryOff
	orbits := sweepOrbits(n, reduce, shards, opt.ShardIndex, cursor)
	workers := min(max(opt.Workers, 1), max(len(orbits), 1))
	var ws *metrics.WorkerStats
	if opt.Metrics != nil {
		ws = opt.Metrics.SetWorkers(workers)
	}
	explorers := make([]*explorer[V], workers)
	work := func(w, i int) {
		o := &orbits[i]
		e, err := mk(o.xs)
		if err != nil {
			o.err = err
			return
		}
		if worstMode {
			o.vec, o.ok, o.run = WorstActivations(e, opt)
			return
		}
		if explorers[w] == nil {
			explorers[w] = newExplorer[V](opt)
			explorers[w].inv = inv
		}
		o.run = explorers[w].explore(e)
	}
	var loopErr error
	commit := func(i int) bool {
		o := &orbits[i]
		if o.err != nil {
			loopErr = fmt.Errorf("model: sweep assignment %v: %w", o.xs, o.err)
			return false
		}
		// Take the outcome out of the list: once folded, only the orbits
		// in flight keep a report (its certificates, its witness) alive.
		run, vec := o.run, o.vec
		o.run, o.vec = Report{}, nil
		rep.Runs++
		rep.Assignments += o.weight
		foldRun(&rep, run, o.weight)
		if worstMode {
			if !o.ok {
				rep.AllOk = false
			}
			foldWorst(rep.WorstPerProc, vec, reduce)
		} else if !run.Ok() {
			rep.AllOk = false
		}
		if !deterministicStop(run.StopReason) {
			// A cancelled/timed-out (or I/O-failed) run's counts depend on
			// wall-clock, so it reaches no checkpoint, and nothing after it
			// is folded: a resumed sweep re-explores it from scratch,
			// keeping the final report bit-identical to an uninterrupted one.
			return false
		}
		if opt.OnOrbitDone != nil {
			if err := opt.OnOrbitDone(o.xs, o.weight, run, rep); err != nil {
				loopErr = fmt.Errorf("model: sweep orbit callback at %v: %w", o.xs, err)
				return false
			}
		}
		return true
	}
	done := par.Run(opt.Context, workers, len(orbits), ws, work, commit)
	if loopErr != nil {
		return SweepReport{}, loopErr
	}
	if done < len(orbits) {
		// Stopped early: by a non-deterministic orbit (already folded
		// PARTIAL) or by the context before every orbit was claimed.
		rep.Partial = true
		rep.AllOk = false
		if rep.StopReason == runctl.StopNone {
			rep.StopReason = runctl.Reason(opt.Context)
		}
	}
	rep.MaxWorst = 0
	for _, w := range rep.WorstPerProc {
		if w > rep.MaxWorst {
			rep.MaxWorst = w
		}
	}
	return rep, nil
}

// sweepOrbits lists, in enumeration order, the representatives a sweep
// explores: every assignment (unreduced) or every canonical one with its
// orbit weight, restricted to this shard and to the assignments after the
// resume cursor.
func sweepOrbits(n int, reduce bool, shards, shard int, cursor []int) []orbit {
	var out []orbit
	repIdx := 0 // enumeration index over representatives (shard key)
	graph.Permutations(n, func(xs []int) bool {
		weight := 1
		if reduce {
			if !graph.IsCanonicalAssignment(xs) {
				return true // covered by its orbit representative
			}
			_, weight = graph.CanonicalAssignment(xs)
		}
		// The shard key counts every representative — including ones the
		// resume cursor skips — so a representative's owning shard never
		// depends on where a previous run was interrupted.
		idx := repIdx
		repIdx++
		if shards > 1 && idx%shards != shard {
			return true // another shard's representative
		}
		if cursor != nil && lexLE(xs, cursor) {
			return true // completed before the interruption; already in rep
		}
		out = append(out, orbit{xs: append([]int(nil), xs...), weight: weight})
		return true
	})
	return out
}

// identityAssignment returns the first assignment the sweep would
// enumerate, {1..n} — the topology probe builds a throwaway engine with it.
func identityAssignment(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i + 1
	}
	return xs
}

// deterministicStop reports whether a run ending with this reason is
// reproducible: complete runs and runs truncated by explicit size bounds
// re-run identically, while cancellation, deadlines, and I/O failures cut
// exploration at a wall-clock-dependent point.
func deterministicStop(r runctl.StopReason) bool {
	switch r {
	case runctl.StopNone, runctl.StopMaxStates, runctl.StopMaxDepth, runctl.StopMaxSteps, runctl.StopActivations:
		return true
	}
	return false
}

// lexLE reports xs ≤ cursor in lexicographic order (both are permutations
// of the same length in practice; a shorter cursor prefix-compares).
func lexLE(xs, cursor []int) bool {
	for i, x := range xs {
		if i >= len(cursor) {
			return false
		}
		if x != cursor[i] {
			return x < cursor[i]
		}
	}
	return true
}

// MergeSweepReports folds the per-shard reports of a sharded sweep into
// the report the unsharded sweep would have produced. Shards partition the
// orbit representatives, so counts add exactly; verdict fields combine
// (AllOk ANDs, Partial ORs with the first StopReason kept) and the
// worst-activation supremum merges position-wise. Shards must agree on N
// and Symmetry.
func MergeSweepReports(parts []SweepReport) (SweepReport, error) {
	if len(parts) == 0 {
		return SweepReport{}, fmt.Errorf("model: merge sweep reports: no shards")
	}
	out := parts[0]
	out.WorstPerProc = append([]int(nil), out.WorstPerProc...)
	for _, p := range parts[1:] {
		if p.N != out.N || p.Symmetry != out.Symmetry {
			return SweepReport{}, fmt.Errorf("model: merge sweep reports: shard mismatch (n=%d/%d symmetry=%s/%s)",
				out.N, p.N, out.Symmetry, p.Symmetry)
		}
		out.Assignments += p.Assignments
		out.Runs += p.Runs
		out.States += p.States
		out.Terminal += p.Terminal
		out.CycleRuns += p.CycleRuns
		out.Violations += p.Violations
		out.HashCollisions += p.HashCollisions
		out.AllOk = out.AllOk && p.AllOk
		if p.Partial {
			out.Partial = true
			if out.StopReason == runctl.StopNone {
				out.StopReason = p.StopReason
			}
		}
		if p.WorstPerProc != nil {
			if out.WorstPerProc == nil {
				out.WorstPerProc = make([]int, len(p.WorstPerProc))
			}
			for i, v := range p.WorstPerProc {
				if v > out.WorstPerProc[i] {
					out.WorstPerProc[i] = v
				}
			}
		}
	}
	out.MaxWorst = 0
	for _, w := range out.WorstPerProc {
		if w > out.MaxWorst {
			out.MaxWorst = w
		}
	}
	return out, nil
}

// foldRun accumulates one per-assignment report, weighted by orbit size.
func foldRun(rep *SweepReport, r Report, weight int) {
	rep.States += int64(weight) * int64(r.States)
	rep.Terminal += int64(weight) * int64(r.Terminal)
	if r.CycleFound {
		rep.CycleRuns += int64(weight)
	}
	rep.Violations += int64(weight) * int64(len(r.Violations))
	rep.HashCollisions += r.HashCollisions
	if r.Partial {
		rep.Partial = true
		if rep.StopReason == runctl.StopNone {
			rep.StopReason = r.StopReason
		}
	}
}

// foldWorst merges one assignment's worst-activation vector into the
// per-position supremum. Under reduction the representative's vector
// stands for every assignment in its orbit, whose vectors are its images
// under the orbit's automorphisms: fold all 2n images. (Unreduced, each
// assignment contributes its own frame directly.)
func foldWorst(acc, vec []int, reduce bool) {
	if vec == nil {
		return
	}
	if !reduce {
		for i, v := range vec {
			if v > acc[i] {
				acc[i] = v
			}
		}
		return
	}
	n := len(vec)
	for _, p := range graph.CycleAutomorphisms(n) {
		for i := 0; i < n; i++ {
			if v := vec[p[i]]; v > acc[i] {
				acc[i] = v
			}
		}
	}
}
