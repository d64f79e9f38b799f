// Command colorcycle runs one registered protocol on its topology and
// prints the resulting outputs, per-process round counts, and the
// protocol's verification verdicts.
//
// Usage:
//
//	colorcycle [-alg fast|five|six|...] [-list] [-n 100]
//	           [-topology cycle|path|complete|torus|random:Δ:seed]
//	           [-ids random|increasing|zigzag|...]
//	           [-sched sync|rr|random|one|alt|burst] [-seed 1]
//	           [-crash 0.2] [-trace] [-concurrent]
//	           [-big] [-workers 1]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// -list prints the table of registered protocols and exits. With
// -concurrent the run uses one goroutine per node (the -sched and -trace
// flags do not apply: scheduling comes from the Go runtime); protocols
// without a concurrent runtime reject it.
//
// -topology retargets the protocol onto another registered graph family
// (append "+shuffled:SEED" to permute neighbor orders). Only families the
// protocol declares are accepted; off-family runs drop cycle-specific
// round bounds and the "big" engine, which is ring-indexed.
//
// -big selects the struct-of-arrays engine for protocols with the "big"
// capability — the path for large cycles (n up to 10⁶ and beyond), with
// incremental safety checking instead of a final O(n) scan per verdict
// line. -workers k > 1 additionally runs the sharded parallel executor
// under its canonical sharded round-robin schedule (-sched is then
// ignored). -trace and -concurrent do not combine with -big.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"asynccycle/internal/bigsim"
	"asynccycle/internal/conc"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/prof"
	"asynccycle/internal/protocol"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "colorcycle:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("colorcycle", flag.ContinueOnError)
	alg := fs.String("alg", "fast", "protocol to run (see -list)")
	list := fs.Bool("list", false, "print the registered protocols and exit")
	n := fs.Int("n", 100, "instance size (cycle length for the cycle protocols)")
	topology := fs.String("topology", "", "graph family to run on (cycle|path|complete|torus|random:Δ[:seed][+shuffled:SEED]); empty = the protocol's native topology")
	assign := fs.String("ids", "random", "identifier assignment: random|increasing|decreasing|zigzag|spaced-increasing")
	sched := fs.String("sched", "random", "scheduler: sync|rr|random|one|alt|burst")
	seed := fs.Int64("seed", 1, "random seed")
	crash := fs.Float64("crash", 0, "fraction of processes to crash at adversarial times")
	withTrace := fs.Bool("trace", false, "print the execution trace")
	concurrent := fs.Bool("concurrent", false, "run with one goroutine per node instead of the deterministic engine")
	big := fs.Bool("big", false, "run on the struct-of-arrays large-cycle engine")
	workers := fs.Int("workers", 1, "with -big: >1 runs the sharded parallel executor")
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
			fmt.Fprintln(os.Stderr, "colorcycle: profile:", err)
		}
	}()

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
	g, err := d.Topology(*n)
	if err != nil {
		return err
	}
	assignment, err := ids.Parse(*assign)
	if err != nil {
		return err
	}
	xs, err := ids.Generate(assignment, *n, *seed)
	if err != nil {
		return err
	}
	s, err := schedule.Parse(*sched, *seed)
	if err != nil {
		return err
	}

	crashes := protocol.CrashPlan(*crash, g.N(), *seed)

	verdict := func(res sim.Result) {
		for _, v := range d.Verdicts(g, res) {
			report(w, v.Name, v.Err)
		}
	}

	if *big {
		if *withTrace || *concurrent {
			return fmt.Errorf("-big does not combine with -trace or -concurrent")
		}
		if err := protocol.CheckBigTopology(*topology); err != nil {
			return err
		}
		return runBig(w, d, xs, *sched, *seed, *workers, crashes, g, verdict)
	}

	if *concurrent {
		if d.RunConc == nil {
			return fmt.Errorf("algorithm %q has no concurrent runtime", *alg)
		}
		res, err := d.RunConc(xs, conc.Options{CrashAfter: crashes, Yield: true, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "graph=%s runtime=goroutines\n", g.Name())
		fmt.Fprintf(w, "terminated=%d/%d crashed=%d max-rounds=%d\n",
			res.TerminatedCount(), g.N(), crashedCount(res), res.MaxActivations())
		printColors(w, res)
		verdict(res)
		return nil
	}

	var traceTo io.Writer
	if *withTrace {
		traceTo = w
	}
	res, _, err := d.Run(xs, protocol.RunOptions{
		Scheduler: s,
		Crashes:   crashes,
		MaxSteps:  1000*g.N() + 100_000,
		TraceText: traceTo,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "graph=%s scheduler=%s steps=%d\n", g.Name(), s.Name(), res.Steps)
	fmt.Fprintf(w, "terminated=%d/%d crashed=%d max-rounds=%d\n",
		res.TerminatedCount(), g.N(), crashedCount(res), res.MaxActivations())
	printColors(w, res)
	verdict(res)
	return nil
}

// runBig executes on the struct-of-arrays engine: the same schedulers
// read through its bitset frontier, incremental safety checking during
// the run, and optionally the sharded parallel executor. The printed surface matches the
// deterministic path so existing tooling parses both.
func runBig(w io.Writer, d *protocol.Descriptor, xs []int, sched string, seed int64, workers int,
	crashes map[int]int, g graph.Graph, verdict func(sim.Result)) error {
	if d.BigKernel == nil {
		return fmt.Errorf("algorithm %q has no big-run surface (capability \"big\")", d.Name)
	}
	k, err := d.BigKernel(xs)
	if err != nil {
		return err
	}
	e := bigsim.New(k)
	e.SetIncremental(true)
	for i, c := range crashes {
		if i < 0 || i >= g.N() {
			return fmt.Errorf("crash index %d out of range", i)
		}
		e.CrashAfter(i, c)
	}
	maxSteps := int64(1000*g.N() + 100_000)

	var schedName string
	if workers > 1 {
		schedName = fmt.Sprintf("sharded-rr(%d)", workers)
		reason, err := e.RunSharded(nil, workers, runctl.Budget{MaxSteps: int(maxSteps)})
		if err != nil {
			return err
		}
		if reason != runctl.StopNone {
			return fmt.Errorf("sharded run stopped early: %s", reason)
		}
	} else {
		s, err := bigsim.ParseSched(sched, seed)
		if err != nil {
			return err
		}
		schedName = s.Name()
		if err := e.Run(s, maxSteps); err != nil {
			return err
		}
	}

	res := e.Result()
	sum := e.Summarize()
	fmt.Fprintf(w, "graph=%s scheduler=%s steps=%d engine=big workers=%d bytes/node=%d\n",
		g.Name(), schedName, res.Steps, workers, sum.BytesPerNode)
	fmt.Fprintf(w, "terminated=%d/%d crashed=%d max-rounds=%d\n",
		sum.Terminated, g.N(), sum.Crashed, sum.MaxRounds)
	printColors(w, res)
	verdict(res)
	return nil
}

func crashedCount(res sim.Result) int {
	c := 0
	for _, b := range res.Crashed {
		if b {
			c++
		}
	}
	return c
}

func printColors(w io.Writer, res sim.Result) {
	limit := len(res.Outputs)
	if limit > 32 {
		limit = 32
	}
	fmt.Fprint(w, "colors: ")
	for i := 0; i < limit; i++ {
		switch {
		case res.Done[i]:
			fmt.Fprintf(w, "%d ", res.Outputs[i])
		case res.Values != nil:
			// Stabilizing protocols never terminate: the published register
			// value is the process's current color.
			fmt.Fprintf(w, "%d ", res.Values[i])
		default:
			fmt.Fprint(w, "× ")
		}
	}
	if limit < len(res.Outputs) {
		fmt.Fprintf(w, "… (%d more)", len(res.Outputs)-limit)
	}
	fmt.Fprintln(w)
}

func report(w io.Writer, what string, err error) {
	if err != nil {
		fmt.Fprintf(w, "FAIL %s: %v\n", what, err)
	} else {
		fmt.Fprintf(w, "ok   %s\n", what)
	}
}
