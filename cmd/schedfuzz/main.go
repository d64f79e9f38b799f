// Command schedfuzz runs a deterministic schedule-fuzzing campaign: seeded
// randomized adversarial schedules executed on the simulation engine with
// the paper's correctness oracle watching, cross-checked against the
// replay, clone-step, secondary-semantics, and (sampled) real-concurrency
// execution paths, with any violating schedule shrunk to a minimal
// replayable witness.
//
// Usage:
//
//	schedfuzz [-alg fast|five|six|mis-greedy|...] [-list] [-n 0]
//	          [-topology cycle|path|complete|torus|random:Δ:seed]
//	          [-mode interleaved|simultaneous]
//	          [-seed 1] [-campaign-size 128] [-parallel N] [-conc-every 16]
//	          [-timeout 30s] [-progress 1s] [-metrics-json -]
//
// Any registered protocol with an instance surface is fuzzable; -list
// prints the registry table (the "fuzz" capability marks eligibility).
// The oracle legs adapt to the descriptor: the wait-freedom bound leg is
// skipped for protocols documented as not wait-free, and protocols whose
// expectation is "unsafe" report their own violations by design.
//
// The report is byte-reproducible: for a fixed seed it is identical at
// every -parallel setting. A run stopped by -timeout exits 0 with a report
// explicitly marked [PARTIAL: reason] covering the completed cells only.
// Oracle violations and cross-engine divergences exit 1, partial or not.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"asynccycle/internal/fuzzsched"
	"asynccycle/internal/metrics"
	"asynccycle/internal/protocol"
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
)

func main() {
	// Ctrl-C / SIGTERM cancel the root context: the campaign stops after
	// the in-flight cells and the report comes back [PARTIAL: cancelled]
	// with exit 0 — interrupted work is reported, not discarded.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runContext(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "schedfuzz:", err)
		os.Exit(1)
	}
}

func run(args []string, w, ew io.Writer) error {
	return runContext(context.Background(), args, w, ew)
}

func runContext(ctx context.Context, args []string, w, ew io.Writer) error {
	fs := flag.NewFlagSet("schedfuzz", flag.ContinueOnError)
	fs.SetOutput(ew)
	alg := fs.String("alg", "fast", "algorithm to fuzz (see -list)")
	list := fs.Bool("list", false, "print the registered protocols and exit")
	n := fs.Int("n", 0, "cycle size; 0 varies it per schedule in [3, 12]")
	topology := fs.String("topology", "", "graph family to fuzz on (a family the protocol declares); off-family campaigns run with the cycle round-bound oracle off")
	modeStr := fs.String("mode", "interleaved", "primary activation semantics: interleaved|simultaneous")
	seed := fs.Int64("seed", 1, "campaign seed; the full report is a deterministic function of it")
	campaign := fs.Int("campaign-size", 128, "number of schedules to fuzz")
	parallel := fs.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS); does not affect the report")
	concEvery := fs.Int("conc-every", 16, "run the real-concurrency leg on every k-th schedule (0 = off)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget (0 = none); a tripped budget yields a PARTIAL report, exit 0")
	progress := fs.Duration("progress", 0, "print a progress line to stderr every interval (0 = off)")
	metricsJSON := fs.String("metrics-json", "", "write the final metrics snapshot as JSON to this file (\"-\" = stderr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return protocol.WriteList(w)
	}

	var mode sim.Mode
	switch *modeStr {
	case "interleaved":
		mode = sim.ModeInterleaved
	case "simultaneous":
		mode = sim.ModeSimultaneous
	default:
		return fmt.Errorf("unknown mode %q", *modeStr)
	}

	met, finishMetrics := metrics.StartCLI(ew, "schedfuzz", *progress, *metricsJSON)
	defer finishMetrics()

	rep, err := fuzzsched.Campaign(ctx, fuzzsched.Config{
		Alg:       *alg,
		N:         *n,
		Topology:  *topology,
		Mode:      mode,
		Seed:      *seed,
		Campaign:  *campaign,
		Workers:   *parallel,
		ConcEvery: *concEvery,
		Budget:    runctl.Budget{Timeout: *timeout},
		Metrics:   met,
	})
	if err != nil {
		return err
	}
	rep.Write(w)
	if len(rep.Violations) > 0 || len(rep.Divergences) > 0 {
		return fmt.Errorf("%d violations, %d divergences", len(rep.Violations), len(rep.Divergences))
	}
	return nil
}
