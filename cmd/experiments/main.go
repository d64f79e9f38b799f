// Command experiments regenerates every reproduction experiment of
// DESIGN.md (E1–E24 and finding F1) and prints the tables recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-quick] [-list] [-seed N] [-only E3,E4] [-format text|markdown|csv]
//	            [-parallel N] [-topology torus] [-timeout 5m] [-progress 1s]
//	            [-metrics-json -] [-cpuprofile FILE] [-memprofile FILE]
//
// A run stopped by -timeout still prints every requested table: sweeps cut
// short come back marked [PARTIAL: reason] with only their completed cells
// aggregated, and experiments that never started are stubbed, so truncation
// is never silent.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"asynccycle/internal/expt"
	"asynccycle/internal/metrics"
	"asynccycle/internal/prof"
	"asynccycle/internal/protocol"
	"asynccycle/internal/runctl"
)

func main() {
	// Ctrl-C / SIGTERM cancel the root context: cut-short sweeps print
	// [PARTIAL: cancelled] tables, unstarted experiments are stubbed, and
	// the process exits 0 — interrupted work is reported, not discarded.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runContext(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, w, ew io.Writer) error {
	return runContext(context.Background(), args, w, ew)
}

func runContext(root context.Context, args []string, w, ew io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shrink parameter sweeps for a fast run")
	list := fs.Bool("list", false, "print the registered protocols the experiments draw on and exit")
	seed := fs.Int64("seed", 1, "random seed for workloads and schedulers")
	only := fs.String("only", "", "comma-separated experiment IDs to run (e.g. E3,E4,F1)")
	format := fs.String("format", "text", "output format: text, markdown, or csv")
	parallel := fs.Int("parallel", 0, "sweep-cell workers per experiment (0 = GOMAXPROCS, 1 = serial); tables are byte-identical at every setting")
	topology := fs.String("topology", "", "graph family for the topology-generic experiments (E22), e.g. torus or random:6:3; the cycle experiments ignore it")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); cut-short tables are marked PARTIAL")
	progress := fs.Duration("progress", 0, "print a progress line to stderr every interval (0 = off)")
	metricsJSON := fs.String("metrics-json", "", "write the final metrics snapshot as JSON to this file (\"-\" = stderr)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return protocol.WriteList(w)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(ew, "experiments: profile:", err)
		}
	}()

	ctx := root
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(root, *timeout)
		defer cancel()
	}
	met, finishMetrics := metrics.StartCLI(ew, "experiments", *progress, *metricsJSON)
	defer finishMetrics()

	var render func(*expt.Table) error
	switch *format {
	case "text":
		render = func(t *expt.Table) error {
			_, err := t.WriteTo(w)
			return err
		}
	case "markdown":
		render = func(t *expt.Table) error { return t.WriteMarkdown(w) }
	case "csv":
		render = func(t *expt.Table) error { return t.WriteCSV(w) }
	default:
		return fmt.Errorf("unknown format %q", *format)
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}

	opt := expt.Options{Quick: *quick, Seed: *seed, Parallelism: *parallel, Context: ctx, Metrics: met, Topology: *topology}
	ran := 0
	for _, r := range expt.Runners() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		var tb *expt.Table
		if ctx != nil && ctx.Err() != nil {
			// Budget exhausted before this experiment started: stub it so the
			// output still lists everything that was asked for.
			tb = &expt.Table{ID: r.ID, Title: "not run"}
			tb.MarkPartial(runctl.Reason(ctx), 0, 0)
		} else {
			tb = r.Run(opt)
		}
		if err := render(tb); err != nil {
			return err
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched -only=%q", *only)
	}
	return nil
}
