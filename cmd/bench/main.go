// Command bench runs the repository's core benchmarks in-process and
// writes the results as JSON (BENCH_core.json), so perf baselines can be
// recorded and diffed without parsing `go test -bench` text output.
//
// Usage:
//
//	bench [-out BENCH_core.json] [-quick] [-cpuprofile FILE] [-memprofile FILE]
//
// The suite pairs each optimized path with its baseline so the file
// documents the speedups directly: the parallel experiment harness vs its
// serial setting, and the compact-fingerprint model checker vs the exact
// string-fingerprint tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"asynccycle/internal/atomicio"
	"asynccycle/internal/bigsim"
	"asynccycle/internal/check"
	"asynccycle/internal/core"
	"asynccycle/internal/expt"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/model"
	"asynccycle/internal/prof"
	"asynccycle/internal/protocol"
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
)

type entry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// bigRun records one large-cycle execution on the struct-of-arrays engine:
// throughput (rounds/sec), per-node memory footprint, and the observed
// round complexity against the paper's bound.
type bigRun struct {
	Alg          string  `json:"alg"`
	N            int     `json:"n"`
	Sched        string  `json:"sched"`
	Workers      int     `json:"workers"`
	Steps        int64   `json:"steps"`
	Rounds       int64   `json:"rounds"`
	MaxRounds    int     `json:"max_rounds"`
	Bound        int     `json:"bound"`
	Seconds      float64 `json:"seconds"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	BytesPerNode int     `json:"bytes_per_node"`
}

type report struct {
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is the value at entry; the parallel benchmarks raise it to
	// NumCPU for their duration (GOMAXPROCSParallel) so the file actually
	// demonstrates the parallel paths even when launched with GOMAXPROCS=1.
	GOMAXPROCS         int      `json:"gomaxprocs"`
	GOMAXPROCSParallel int      `json:"gomaxprocs_parallel"`
	NumCPU             int      `json:"num_cpu"`
	Quick              bool     `json:"quick"`
	Benchmarks         []entry  `json:"benchmarks"`
	BigRuns            []bigRun `json:"big_runs"`
}

func main() {
	out := flag.String("out", "BENCH_core.json", "output file")
	quick := flag.Bool("quick", false, "shrink workloads for a smoke run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	err = run(*out, *quick)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(out string, quick bool) error {
	rep := report{
		GoVersion:          runtime.Version(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		GOMAXPROCSParallel: runtime.NumCPU(),
		NumCPU:             runtime.NumCPU(),
		Quick:              quick,
	}

	// atRealProcs runs f with GOMAXPROCS raised to the machine's CPU count
	// and restores the entry value after — the serial benchmarks keep their
	// historical single-P environment, the parallel ones get real cores.
	atRealProcs := func(f func()) {
		prev := runtime.GOMAXPROCS(runtime.NumCPU())
		defer runtime.GOMAXPROCS(prev)
		f()
	}

	n := 4096
	if quick {
		n = 512
	}
	g := graph.MustCycle(n)
	xs := ids.MustGenerate(ids.Random, n, 1)

	add := func(name string, f func(b *testing.B)) {
		r := testing.Benchmark(f)
		rep.Benchmarks = append(rep.Benchmarks, entry{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Printf("%-28s %12.0f ns/op %8d allocs/op\n", name, rep.Benchmarks[len(rep.Benchmarks)-1].NsPerOp, r.AllocsPerOp())
	}

	// The tentpole pair #1: the experiment harness, serial vs parallel.
	// Tables are byte-identical between the two; only wall-clock differs.
	add("e2_table_serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			expt.E2Alg2Linear(expt.Options{Quick: true, Seed: 1, Parallelism: 1})
		}
	})
	atRealProcs(func() {
		add("e2_table_parallel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				expt.E2Alg2Linear(expt.Options{Quick: true, Seed: 1, Parallelism: 0})
			}
		})
	})

	// The model checker on C4 with its compact 128-bit state tables.
	add("modelcheck_c4_hash", func(b *testing.B) {
		b.ReportAllocs()
		cg := graph.MustCycle(4)
		cxs := ids.MustGenerate(ids.Increasing, 4, 0)
		for i := 0; i < b.N; i++ {
			e, _ := sim.NewEngine(cg, core.NewFiveNodes(cxs))
			r := model.Explore(e, model.Options{SingletonsOnly: true}, nil)
			if !r.Ok() {
				b.Fatal("verification failed")
			}
		}
	})

	// The symmetry-reduction pair: exhaustive identifier-assignment sweep
	// of Algorithm 2, unreduced vs quotiented by the dihedral group with
	// exact orbit weighting. Weighted counts are bit-identical; the reduced
	// sweep explores n!/(2n) orbit representatives instead of n!
	// assignments. Quick uses C4 (24 -> 3 runs), the full suite C5
	// (120 -> 12) — large enough that the reduced sweep clears the >= 3x
	// wall-clock bar recorded in EXPERIMENTS.md.
	sweepN := 5
	if quick {
		sweepN = 4
	}
	for _, c := range []struct {
		name string
		sym  model.Symmetry
	}{
		{fmt.Sprintf("sweep_c%d_off", sweepN), model.SymmetryOff},
		{fmt.Sprintf("sweep_c%d_assignments", sweepN), model.SymmetryAssignments},
	} {
		c := c
		add(c.name, func(b *testing.B) {
			b.ReportAllocs()
			cg := graph.MustCycle(sweepN)
			mk := func(axs []int) (*sim.Engine[core.FiveVal], error) {
				return sim.NewEngine(cg, core.NewFiveNodes(axs))
			}
			for i := 0; i < b.N; i++ {
				r, err := model.SweepExplore(sweepN, mk, model.Options{SingletonsOnly: true, Symmetry: c.sym}, nil)
				if err != nil || !r.AllOk {
					b.Fatalf("sweep failed: %v %v", err, r)
				}
			}
		})
	}

	// The contract-overhead pair: the same exhaustive C5 sweep with the
	// per-state invariant calling five's property checks directly vs
	// routed through the descriptor's Contract.Safety surface. The pair
	// pins that the pluggable contract layer is free: one interface call
	// and a property loop per state, identical verdicts, within noise.
	{
		d, err := protocol.Lookup("five")
		if err != nil {
			return err
		}
		coN := sweepN
		cog := graph.MustCycle(coN)
		mkFive := func(axs []int) (*sim.Engine[core.FiveVal], error) {
			return sim.NewEngine(cog, core.NewFiveNodes(axs))
		}
		for _, c := range []struct {
			name string
			inv  func(e *sim.Engine[core.FiveVal]) error
		}{
			{"check_contract_overhead_legacy", func(e *sim.Engine[core.FiveVal]) error {
				r := e.Result()
				if err := check.ProperColoring(cog, r); err != nil {
					return err
				}
				return check.PaletteRange(r, 5)
			}},
			{"check_contract_overhead_contract", func(e *sim.Engine[core.FiveVal]) error { return d.Contract.Safety(cog, e.Result()) }},
		} {
			c := c
			add(c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r, err := model.SweepExplore(coN, mkFive, model.Options{SingletonsOnly: true, Symmetry: model.SymmetryAssignments}, c.inv)
					if err != nil || !r.AllOk {
						b.Fatalf("sweep failed: %v %v", err, r)
					}
				}
			})
		}
	}

	// The fingerprint primitives themselves.
	add("fingerprint_string", func(b *testing.B) {
		b.ReportAllocs()
		e, _ := sim.NewEngine(g, core.NewFastNodes(xs))
		e.Step([]int{0, 1, 2})
		for i := 0; i < b.N; i++ {
			_ = e.Fingerprint()
		}
	})
	add("fingerprint_hash", func(b *testing.B) {
		b.ReportAllocs()
		e, _ := sim.NewEngine(g, core.NewFastNodes(xs))
		e.Step([]int{0, 1, 2})
		for i := 0; i < b.N; i++ {
			_, _ = e.FingerprintHash128()
		}
	})

	// The engine hot path (warm Step, singleton activations).
	add("engine_step", func(b *testing.B) {
		b.ReportAllocs()
		e, _ := sim.NewEngine(g, core.NewFastNodes(xs))
		subset := make([]int, 1)
		e.Step(subset)
		for i := 0; i < b.N; i++ {
			subset[0] = i % n
			e.Step(subset)
		}
	})

	// Large-cycle scenarios on the struct-of-arrays engine: six/five/fast
	// on C_10^5 (plus C_10^6 in full mode), once under the batched serial
	// round-robin schedule and once under the sharded parallel executor at
	// real core count, incremental safety checking on throughout. These are
	// single timed executions, not testing.Benchmark loops: one run already
	// performs millions of rounds, and the recorded quantity is throughput.
	bigNs := []int{100_000}
	if !quick {
		bigNs = append(bigNs, 1_000_000)
	}
	addBig := func(alg string, bound int, e *bigsim.Engine, sched string, workers int, secs float64) {
		s := e.Summarize()
		br := bigRun{
			Alg:          alg,
			N:            s.N,
			Sched:        sched,
			Workers:      workers,
			Steps:        s.Steps,
			Rounds:       s.Rounds,
			MaxRounds:    s.MaxRounds,
			Bound:        bound,
			Seconds:      secs,
			RoundsPerSec: float64(s.Rounds) / secs,
			BytesPerNode: s.BytesPerNode,
		}
		rep.BigRuns = append(rep.BigRuns, br)
		fmt.Printf("big %-5s n=%-8d %-16s %10.0f rounds/sec  %6.2fs  %2d bytes/node  max-rounds %d/%d\n",
			alg, s.N, sched, br.RoundsPerSec, secs, s.BytesPerNode, s.MaxRounds, bound)
	}
	bigBudget := runctl.Budget{Timeout: 300 * time.Second}
	for _, alg := range []string{"six", "five", "fast"} {
		d, err := protocol.Lookup(alg)
		if err != nil {
			return err
		}
		for _, bn := range bigNs {
			bxs := ids.MustGenerate(ids.Random, bn, 1)
			k, err := d.BigKernel(bxs)
			if err != nil {
				return err
			}
			e := bigsim.New(k)
			e.SetIncremental(true)

			start := time.Now()
			reason, err := e.RunBudget(nil, bigsim.NewRR(1), bigBudget)
			secs := time.Since(start).Seconds()
			if err != nil {
				return fmt.Errorf("big %s n=%d rr: %w", alg, bn, err)
			}
			if reason != runctl.StopNone {
				return fmt.Errorf("big %s n=%d rr stopped early: %s", alg, bn, reason)
			}
			if err := e.VerifyFull(); err != nil {
				return fmt.Errorf("big %s n=%d rr: %w", alg, bn, err)
			}
			addBig(alg, d.Bound(bn), e, "round-robin(1)", 1, secs)

			if err := e.Reset(bxs); err != nil {
				return err
			}
			e.SetIncremental(true)
			workers := runtime.NumCPU()
			atRealProcs(func() {
				start = time.Now()
				reason, err = e.RunSharded(nil, workers, bigBudget)
				secs = time.Since(start).Seconds()
			})
			if err != nil {
				return fmt.Errorf("big %s n=%d sharded: %w", alg, bn, err)
			}
			if reason != runctl.StopNone {
				return fmt.Errorf("big %s n=%d sharded stopped early: %s", alg, bn, reason)
			}
			if err := e.VerifyFull(); err != nil {
				return fmt.Errorf("big %s n=%d sharded: %w", alg, bn, err)
			}
			addBig(alg, d.Bound(bn), e, fmt.Sprintf("sharded-rr(%d)", workers), workers, secs)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	// Atomic replace: an interrupted or crashed bench must not truncate the
	// committed baseline.
	if err := atomicio.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}
