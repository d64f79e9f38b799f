// Command modelcheck exhaustively verifies a registered protocol on a
// small instance over every schedule, reporting safety violations,
// livelock cycles (non-wait-freedom certificates), and — when feasible —
// the exact worst-case per-process round counts.
//
// Usage:
//
//	modelcheck [-alg fast|five|six|mis-greedy|...] [-list]
//	           [-n 3] [-topology cycle|path|complete|torus|random:Δ:seed]
//	           [-mode interleaved|simultaneous] [-worst] [-workers N]
//	           [-sweep] [-symmetry off|assignments|full] [-depth N]
//	           [-timeout 30s] [-max-states N] [-progress 1s] [-metrics-json -]
//	           [-spill-dir DIR] [-mem-limit N]
//	           [-checkpoint FILE] [-resume] [-shard I/M] [-json]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// -list prints the table of registered protocols and exits. -topology
// retargets the protocol onto another registered graph family the
// descriptor declares (sizes round via the family's normalizer). -sweep
// checks every identifier-rank assignment instead of just the increasing
// one; on any topology other than the standard cycle the reduced sweeps
// refuse (the dihedral orbit weighting is cycle-specific) — use
// -symmetry off there. -symmetry=assignments quotients that sweep by the
// dihedral group with exact orbit weighting; -symmetry=full is the same
// quotient under its own name. Both require -sweep. Verdicts and weighted
// counts are identical at every level (see DESIGN.md §6).
//
// -depth bounds schedule length. Protocols with an infinite state graph
// (decoupled-three: the network clock never repeats a value) default to
// their descriptor's depth horizon and report PARTIAL — the verdict then
// covers every schedule of at most that many ticks.
//
// -workers N sets a -sweep's orbit workers: the sweep explores N orbit
// representatives at once and commits them in enumeration order, so its
// report and checkpoints equal the serial sweep's; the default 0 uses
// every CPU. A single check is serial at any -workers.
//
// Out-of-core and resumable sweeps (see DESIGN.md §13): -spill-dir makes
// each exploration's visited set disk-backed once it outgrows -mem-limit
// resident fingerprints (per worker in a sweep); the -worst analysis keeps
// its memo in RAM, so it refuses -spill-dir. -checkpoint makes a
// -sweep write a checksummed checkpoint after every completed assignment
// orbit; an interrupted sweep (Ctrl-C, SIGTERM, -timeout) restarted with
// -resume continues from the checkpoint and finishes with counts
// bit-identical to an uninterrupted run, at any -workers. -shard I/M
// explores only every M-th orbit representative (shard I, zero-based), and
// -json prints the final sweep report as JSON: shard reports of a sweep
// split across machines merge exactly with model.MergeSweepReports.
//
// A run stopped by -timeout or -max-states exits 0 with a report explicitly
// marked PARTIAL: the verdicts cover exactly the explored region. Safety
// violations always exit 1, partial or not.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"asynccycle/internal/contract"
	"asynccycle/internal/ids"
	"asynccycle/internal/metrics"
	"asynccycle/internal/model"
	"asynccycle/internal/ooc"
	"asynccycle/internal/prof"
	"asynccycle/internal/protocol"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
	"asynccycle/internal/stats"
)

func main() {
	// Ctrl-C / SIGTERM cancel the root context: the exploration stops
	// between expansions and the report comes back [PARTIAL: cancelled]
	// with exit 0 — interrupted work is reported, not discarded.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runContext(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "modelcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, w, ew io.Writer) error {
	return runContext(context.Background(), args, w, ew)
}

func runContext(ctx context.Context, args []string, w, ew io.Writer) error {
	fs := flag.NewFlagSet("modelcheck", flag.ContinueOnError)
	alg := fs.String("alg", "fast", "algorithm to verify (see -list)")
	list := fs.Bool("list", false, "print the registered protocols and exit")
	n := fs.Int("n", 3, "instance size (3–5 recommended)")
	topology := fs.String("topology", "", "graph family to verify on (a family the protocol declares); empty = the protocol's native topology")
	modeStr := fs.String("mode", "interleaved", "activation semantics: interleaved|simultaneous")
	worst := fs.Bool("worst", false, "also compute exact worst-case per-process rounds")
	symmetryStr := fs.String("symmetry", "off", "a -sweep's reduction: off|assignments|full (full is the assignments quotient; both require -sweep)")
	sweep := fs.Bool("sweep", false, "check every identifier-rank assignment, not just the increasing one (protocols with the sweep capability, see -list)")
	depth := fs.Int("depth", 0, "schedule-depth bound (0 = protocol default); deeper states are reported PARTIAL")
	maxStates := fs.Int("max-states", 5_000_000, "state budget; a tripped budget yields a PARTIAL report")
	workers := fs.Int("workers", 0, "a -sweep's orbit workers (0 = all CPUs); a single check is serial")
	timeout := fs.Duration("timeout", 0, "wall-clock budget (0 = none); a tripped budget yields a PARTIAL report, exit 0")
	progress := fs.Duration("progress", 0, "print a progress line to stderr every interval (0 = off)")
	metricsJSON := fs.String("metrics-json", "", "write the final metrics snapshot as JSON to this file (\"-\" = stderr)")
	spillDir := fs.String("spill-dir", "", "spill the visited set to sorted fingerprint runs under this directory once it outgrows -mem-limit")
	memLimit := fs.Int("mem-limit", ooc.DefaultMemLimit, "resident visited fingerprints before spilling (with -spill-dir)")
	checkpoint := fs.String("checkpoint", "", "write a resumable sweep checkpoint to this file after every completed assignment orbit (requires -sweep)")
	resume := fs.Bool("resume", false, "continue an interrupted sweep from -checkpoint instead of restarting")
	shardStr := fs.String("shard", "", "explore only shard I of M orbit representatives, as I/M (requires -sweep)")
	jsonOut := fs.Bool("json", false, "print the final sweep report as JSON (requires -sweep)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return protocol.WriteList(w)
	}
	if !*sweep {
		switch {
		case *checkpoint != "":
			return fmt.Errorf("-checkpoint records an assignment-sweep cursor: add -sweep")
		case *resume:
			return fmt.Errorf("-resume continues a checkpointed sweep: add -sweep")
		case *shardStr != "":
			return fmt.Errorf("-shard splits an assignment sweep: add -sweep")
		case *jsonOut:
			return fmt.Errorf("-json renders a sweep report: add -sweep")
		}
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume needs the checkpoint file: add -checkpoint FILE")
	}
	if (*checkpoint != "" || *resume || *jsonOut || *shardStr != "") && *worst {
		// A shard's worst-case vector is a supremum over its own orbits
		// only, and no report carries it to a merge.
		return fmt.Errorf("-checkpoint/-resume/-json/-shard cover the exploration sweep only, not -worst")
	}
	if *spillDir != "" && *worst {
		return fmt.Errorf("-spill-dir bounds the exploration's visited set; the -worst memo stays in RAM: drop one")
	}
	shardIndex, shardCount, err := parseShard(*shardStr)
	if err != nil {
		return err
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(ew, "modelcheck: profile:", err)
		}
	}()

	met, finishMetrics := metrics.StartCLI(ew, "modelcheck", *progress, *metricsJSON)
	defer finishMetrics()

	var mode sim.Mode
	switch *modeStr {
	case "interleaved":
		mode = sim.ModeInterleaved
	case "simultaneous":
		mode = sim.ModeSimultaneous
	default:
		return fmt.Errorf("unknown mode %q", *modeStr)
	}
	symmetry, err := model.ParseSymmetry(*symmetryStr)
	if err != nil {
		return err
	}
	if symmetry != model.SymmetryOff && !*sweep {
		return fmt.Errorf("-symmetry=%s reduces the identifier-assignment sweep: add -sweep", symmetry)
	}

	d, err := protocol.Lookup(*alg)
	if err != nil {
		return err
	}
	d, err = protocol.WithTopology(d, *topology)
	if err != nil {
		return err
	}
	if d.FixN != nil {
		*n = d.FixN(*n)
	}
	if d.Check == nil {
		return fmt.Errorf("algorithm %q has no branchable instance surface to model-check", *alg)
	}
	if len(d.Modes) > 0 && !d.SupportsMode(mode) {
		return fmt.Errorf("algorithm %q does not support %s semantics", *alg, mode)
	}
	if *worst && d.Worst == nil {
		return fmt.Errorf("algorithm %q does not support -worst (no exact round analysis)", *alg)
	}

	// Under interleaved semantics, subset schedules are equivalent to
	// sequences of singleton activations; explore singletons only. The
	// reduction needs the protocol to actually have interleaved semantics
	// — for native-semantics protocols (empty Modes, e.g. the DECOUPLED
	// tick model, where simultaneity is observable) subsets stay.
	single := mode == sim.ModeInterleaved && len(d.Modes) > 0
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := model.Options{
		SingletonsOnly: single,
		MaxStates:      *maxStates,
		Workers:        *workers,
		Symmetry:       symmetry,
		Context:        ctx,
		Metrics:        met,
		SpillDir:       *spillDir,
		SpillMemLimit:  *memLimit,
		ShardIndex:     shardIndex,
		ShardCount:     shardCount,
	}
	if *depth > 0 {
		opt.MaxDepth = *depth
	} else if d.DefaultCheckDepth > 0 {
		opt.MaxDepth = d.DefaultCheckDepth
	}
	xs := ids.MustGenerate(ids.Increasing, *n, 0)

	if *sweep {
		if d.Sweep == nil {
			return fmt.Errorf("-sweep needs a protocol with the sweep capability (see -list), not %q", *alg)
		}
		cfg := sweepCfg{
			checkpoint: *checkpoint,
			resume:     *resume,
			jsonOut:    *jsonOut,
			ew:         ew,
			meta: ooc.SweepMeta{
				Alg:        *alg,
				N:          *n,
				Topology:   *topology,
				Mode:       mode.String(),
				Symmetry:   symmetry.String(),
				Singletons: single,
				MaxDepth:   opt.MaxDepth,
				MaxStates:  opt.MaxStates,
				ShardIndex: shardIndex,
				ShardCount: shardCount,
			},
		}
		return sweepAlg(w, d, *n, mode, opt, *worst, cfg)
	}
	return checkAlg(w, d, xs, mode, opt, *worst)
}

// contractField renders the " contract=NAME" header fragment for
// protocols with a labeled contract; bare contracts get "" so
// pre-contract report lines stay byte-identical.
func contractField(d *protocol.Descriptor) string {
	if label := d.ContractLabel(); label != "" {
		return " contract=" + label
	}
	return ""
}

// parseShard parses -shard's "I/M" form (zero-based I < M). The empty
// string means unsharded (0/1).
func parseShard(s string) (int, int, error) {
	if s == "" {
		return 0, 1, nil
	}
	var i, m int
	if n, err := fmt.Sscanf(s, "%d/%d", &i, &m); n != 2 || err != nil {
		return 0, 0, fmt.Errorf("-shard %q: want I/M (e.g. 0/2)", s)
	}
	if m < 1 || i < 0 || i >= m {
		return 0, 0, fmt.Errorf("-shard %q: need 0 ≤ I < M", s)
	}
	return i, m, nil
}

// totalsFromReport projects the cumulative sweep report onto the
// checkpoint's numeric totals (N/Symmetry/WorstPerProc are reconstructed
// from the sweep configuration on resume).
func totalsFromReport(rep model.SweepReport) ooc.Totals {
	return ooc.Totals{
		Assignments:    rep.Assignments,
		Runs:           rep.Runs,
		States:         rep.States,
		Terminal:       rep.Terminal,
		CycleRuns:      rep.CycleRuns,
		Violations:     rep.Violations,
		HashCollisions: rep.HashCollisions,
		AllOk:          rep.AllOk,
	}
}

// totalsToReport is the inverse: the seed report a resumed sweep folds new
// orbits into.
func totalsToReport(tt ooc.Totals) model.SweepReport {
	return model.SweepReport{
		Assignments:    tt.Assignments,
		Runs:           tt.Runs,
		States:         tt.States,
		Terminal:       tt.Terminal,
		CycleRuns:      tt.CycleRuns,
		Violations:     tt.Violations,
		HashCollisions: tt.HashCollisions,
		AllOk:          tt.AllOk,
	}
}

// sweepCfg carries the resumable-sweep plumbing into sweepAlg: the
// checkpoint file (written after every completed orbit), whether to seed
// the sweep from it, and the output format.
type sweepCfg struct {
	checkpoint string
	resume     bool
	jsonOut    bool
	meta       ooc.SweepMeta
	ew         io.Writer
}

// sweepAlg verifies every identifier-rank assignment via the descriptor's
// sweep surface (and, with -worst, its worst-case sweep): only relative
// identifier order is observable, so ranks cover all real inputs.
func sweepAlg(w io.Writer, d *protocol.Descriptor, n int, mode sim.Mode, opt model.Options, worst bool, cfg sweepCfg) error {
	g, err := d.Topology(n)
	if err != nil {
		return err
	}
	if cfg.resume {
		cp, fromPrev, err := ooc.Load(cfg.checkpoint)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		if cp.Meta != cfg.meta {
			return fmt.Errorf("resume: %s was written by a different sweep configuration:\n  checkpoint %+v\n  this run   %+v",
				cfg.checkpoint, cp.Meta, cfg.meta)
		}
		if fromPrev {
			fmt.Fprintf(cfg.ew, "modelcheck: primary checkpoint unreadable (torn write?); resumed from %s.prev\n", cfg.checkpoint)
		}
		opt.SweepResume = &model.SweepResume{
			Cursor: cp.Cursor,
			Totals: totalsToReport(cp.Totals),
		}
	}
	if cfg.checkpoint != "" {
		opt.OnOrbitDone = func(xs []int, _ int, _ model.Report, cum model.SweepReport) error {
			return ooc.Save(cfg.checkpoint, &ooc.Checkpoint{
				Version: ooc.CheckpointVersion,
				Meta:    cfg.meta,
				Cursor:  xs,
				Totals:  totalsFromReport(cum),
			})
		}
	}
	rep, err := d.Sweep(n, mode, opt)
	if err != nil {
		return err
	}
	if cfg.jsonOut {
		// Nothing but the report object, for MergeSweepReports.
		enc := json.NewEncoder(w)
		if err := enc.Encode(rep); err != nil {
			return err
		}
		if rep.Violations > 0 {
			return fmt.Errorf("verification failed")
		}
		return nil
	}
	fmt.Fprintf(w, "graph=%s mode=%s%s %s\n", g.Name(), mode, contractField(d), rep)
	if rep.Partial {
		fmt.Fprintf(w, "PARTIAL (%s): sweep stopped early; counts cover the processed assignments only\n", rep.StopReason)
		if cfg.checkpoint != "" {
			fmt.Fprintf(w, "checkpoint saved: rerun with -resume to continue from the last completed orbit\n")
		}
	}
	if worst {
		wrep, err := d.SweepWorst(n, mode, opt)
		if err != nil {
			return err
		}
		if wrep.AllOk {
			fmt.Fprintf(w, "exact worst-case rounds per position over all assignments: %v (max %d)\n", wrep.WorstPerProc, wrep.MaxWorst)
		} else {
			fmt.Fprintf(w, "worst-case sweep inconclusive: %s\n", wrep)
		}
	}
	if rep.Violations > 0 {
		return fmt.Errorf("verification failed")
	}
	return nil
}

func checkAlg(w io.Writer, d *protocol.Descriptor, xs []int, mode sim.Mode, opt model.Options, worst bool) error {
	g, err := d.Topology(len(xs))
	if err != nil {
		return err
	}
	rep, err := d.Check(xs, mode, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "graph=%s mode=%s%s %s\n", g.Name(), mode, contractField(d), rep)
	for _, v := range rep.Violations {
		fmt.Fprintln(w, "violation:", v)
	}
	if rep.ViolationWitness != nil {
		if data, err := schedule.MarshalSteps(rep.ViolationWitness); err == nil {
			fmt.Fprintf(w, "violation witness schedule: %s\n", data)
		}
	}
	if rep.CycleFound {
		if d.Contract != nil && d.Contract.Liveness() == contract.ClosureConvergence {
			// A stabilizing protocol never terminates by design; the cycle
			// certificate here is a fair loop within the illegitimate states
			// (the convergence violation above carries the witness detail).
			fmt.Fprintln(w, "NOT SELF-STABILIZING: a fair schedule loop stays within illegitimate configurations forever")
		} else {
			fmt.Fprintln(w, "NOT WAIT-FREE: a schedule loop keeps working processes active forever")
			prefix, errP := schedule.MarshalSteps(rep.CyclePrefix)
			loop, errL := schedule.MarshalSteps(rep.CycleLoop)
			if errP == nil && errL == nil {
				fmt.Fprintf(w, "livelock witness: prefix=%s loop=%s\n", prefix, loop)
			}
		}
	}
	if rep.Partial {
		fmt.Fprintf(w, "PARTIAL (%s): exploration stopped early; verdicts cover the explored region only\n", rep.StopReason)
	}
	if worst {
		vec, ok, wrep, err := d.Worst(xs, mode, opt)
		if err != nil {
			return err
		}
		if ok {
			fmt.Fprintf(w, "exact worst-case rounds per process: %v (max %d)\n", vec, stats.MaxInt(vec))
		} else {
			fmt.Fprintf(w, "worst-case analysis inconclusive: %s\n", wrep)
		}
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("verification failed")
	}
	return nil
}
