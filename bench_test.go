// Benchmarks regenerating every experiment of DESIGN.md §3 — one bench per
// table (BenchmarkE1…BenchmarkE13, BenchmarkF1) plus micro-benchmarks of
// the hot paths. The experiment benches print their table once (the same
// rows recorded in EXPERIMENTS.md) and then measure the cost of
// regenerating it.
//
// Run with:
//
//	go test -bench=. -benchmem
package asynccycle_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"asynccycle"
	"asynccycle/internal/bigsim"
	"asynccycle/internal/check"
	"asynccycle/internal/conc"
	"asynccycle/internal/core"
	"asynccycle/internal/cv"
	"asynccycle/internal/expt"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/model"
	"asynccycle/internal/protocol"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

// benchTable runs one experiment per iteration, printing its rows once so
// the bench output doubles as the reproduction artifact.
func benchTable(b *testing.B, run func(expt.Options) *expt.Table) {
	var once sync.Once
	for i := 0; i < b.N; i++ {
		t := run(expt.Options{Quick: true, Seed: int64(i + 1)})
		once.Do(func() { b.Log("\n" + t.String()) })
	}
}

func BenchmarkE1Alg1Termination(b *testing.B)  { benchTable(b, expt.E1Alg1Termination) }
func BenchmarkE2Alg2Linear(b *testing.B)       { benchTable(b, expt.E2Alg2Linear) }
func BenchmarkE3Alg3LogStar(b *testing.B)      { benchTable(b, expt.E3Alg3LogStar) }
func BenchmarkE4Crossover(b *testing.B)        { benchTable(b, expt.E4Crossover) }
func BenchmarkE5ColeVishkin(b *testing.B)      { benchTable(b, expt.E5ColeVishkin) }
func BenchmarkE6CrashTolerance(b *testing.B)   { benchTable(b, expt.E6CrashTolerance) }
func BenchmarkE7MISImpossibility(b *testing.B) { benchTable(b, expt.E7MISImpossibility) }
func BenchmarkE8PaletteTightness(b *testing.B) { benchTable(b, expt.E8PaletteTightness) }
func BenchmarkE9GeneralGraphs(b *testing.B)    { benchTable(b, expt.E9GeneralGraphs) }
func BenchmarkE10SyncBaseline(b *testing.B)    { benchTable(b, expt.E10SyncBaseline) }
func BenchmarkE11Renaming(b *testing.B)        { benchTable(b, expt.E11Renaming) }
func BenchmarkE12IdentifierInvariant(b *testing.B) {
	benchTable(b, expt.E12IdentifierInvariant)
}
func BenchmarkE13Concurrent(b *testing.B)      { benchTable(b, expt.E13Concurrent) }
func BenchmarkE14Decoupled(b *testing.B)       { benchTable(b, expt.E14Decoupled) }
func BenchmarkE15SSBReduction(b *testing.B)    { benchTable(b, expt.E15SSBReduction) }
func BenchmarkE16ProgressClasses(b *testing.B) { benchTable(b, expt.E16ProgressClasses) }
func BenchmarkE17Ablations(b *testing.B)       { benchTable(b, expt.E17Ablations) }
func BenchmarkF1Livelock(b *testing.B)         { benchTable(b, expt.F1Livelock) }

// BenchmarkE2Alg2LinearSerial pins Parallelism to 1 — the baseline for the
// default BenchmarkE2Alg2Linear, which fans sweep cells across GOMAXPROCS
// workers. The two produce byte-identical tables; only wall-clock differs.
func BenchmarkE2Alg2LinearSerial(b *testing.B) {
	var once sync.Once
	for i := 0; i < b.N; i++ {
		t := expt.E2Alg2Linear(expt.Options{Quick: true, Seed: int64(i + 1), Parallelism: 1})
		once.Do(func() { b.Log("\n" + t.String()) })
	}
}

// --- micro-benchmarks of the primitives the experiments are built on ----

// BenchmarkEngineRound measures one engine time step (write + local
// immediate snapshot + state update) per node at n=1024 under the
// synchronous schedule, Algorithm 3 payload.
func BenchmarkEngineRound(b *testing.B) {
	n := 1024
	g := graph.MustCycle(n)
	xs := ids.MustGenerate(ids.Random, n, 1)
	e, err := sim.NewEngine(g, core.NewFastNodes(xs))
	if err != nil {
		b.Fatal(err)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.AllSettled() {
			b.StopTimer()
			e, _ = sim.NewEngine(g, core.NewFastNodes(xs))
			b.StartTimer()
		}
		e.Step(all)
	}
}

// BenchmarkFastFullRun measures a complete Algorithm 3 execution
// (n = 4096, synchronous, worst-case increasing identifiers).
func BenchmarkFastFullRun(b *testing.B) {
	n := 4096
	g := graph.MustCycle(n)
	xs := ids.MustGenerate(ids.Increasing, n, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := sim.NewEngine(g, core.NewFastNodes(xs))
		if _, err := e.Run(schedule.Synchronous{}, 100*n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFiveFullRun is the Algorithm 2 counterpart of
// BenchmarkFastFullRun — the Θ(n) vs O(log* n) gap shows up directly in
// ns/op.
func BenchmarkFiveFullRun(b *testing.B) {
	n := 4096
	g := graph.MustCycle(n)
	xs := ids.MustGenerate(ids.Increasing, n, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := sim.NewEngine(g, core.NewFiveNodes(xs))
		if _, err := e.Run(schedule.Synchronous{}, 100*n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunBudgetMaxActivations times a full Algorithm 2 run on C_20000
// under round-robin(1), unbudgeted and with an activation budget the run
// never reaches: the budget must cost nothing per step, because the run
// loop keeps a running activation count instead of re-summing every
// process's count.
func BenchmarkRunBudgetMaxActivations(b *testing.B) {
	const n = 20_000
	g := graph.MustCycle(n)
	xs := ids.MustGenerate(ids.Random, n, 1)
	for _, bc := range []struct {
		name   string
		budget runctl.Budget
	}{
		{"unbudgeted", runctl.Budget{}},
		{"unreachable", runctl.Budget{MaxActivations: n * n}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, _ := sim.NewEngine(g, core.NewFiveNodes(xs))
				b.StartTimer()
				if _, reason := e.RunBudget(nil, schedule.NewRoundRobin(1), bc.budget); reason != runctl.StopNone {
					b.Fatalf("run stopped early: %s", reason)
				}
			}
		})
	}
}

// BenchmarkConcurrentRun measures the goroutine runtime end to end
// (n = 512, Algorithm 3).
func BenchmarkConcurrentRun(b *testing.B) {
	n := 512
	g := graph.MustCycle(n)
	xs := ids.MustGenerate(ids.Random, n, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conc.Run(g, core.NewFastNodes(xs), conc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadeFastColorCycle measures the public API path.
func BenchmarkFacadeFastColorCycle(b *testing.B) {
	xs := asynccycle.GenerateIDs(1000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asynccycle.FastColorCycle(xs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCVReduction measures the Cole–Vishkin reduction function.
func BenchmarkCVReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = cv.F(i|1<<40, (i>>1)|1<<39)
	}
}

// BenchmarkModelCheckC4 measures exhaustive verification throughput: one
// full exploration of Algorithm 2 on C4 over every interleaved schedule
// (~400 configurations) per iteration.
func BenchmarkModelCheckC4(b *testing.B) {
	g := graph.MustCycle(4)
	xs := ids.MustGenerate(ids.Increasing, 4, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := sim.NewEngine(g, core.NewFiveNodes(xs))
		rep := model.Explore(e, model.Options{SingletonsOnly: true}, nil)
		if !rep.Ok() {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkFingerprintString and BenchmarkFingerprintHash compare the two
// configuration-identity encodings on a warmed n=1024 Algorithm 3 engine.
func BenchmarkFingerprintString(b *testing.B) {
	n := 1024
	e, _ := sim.NewEngine(graph.MustCycle(n), core.NewFastNodes(ids.MustGenerate(ids.Random, n, 1)))
	e.Step([]int{0, 1, 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Fingerprint()
	}
}

func BenchmarkFingerprintHash(b *testing.B) {
	n := 1024
	e, _ := sim.NewEngine(graph.MustCycle(n), core.NewFastNodes(ids.MustGenerate(ids.Random, n, 1)))
	e.Step([]int{0, 1, 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = e.FingerprintHash128()
	}
}

// BenchmarkCanonicalFingerprint measures the model checker's state key
// under SymmetryFull on warm Algorithm 3 engines on C5 and C7: the least
// rotation of the cached node digests and its fold (a checker child also
// re-digests the one node its step touched).
func BenchmarkCanonicalFingerprint(b *testing.B) {
	for _, n := range []int{5, 7} {
		b.Run(fmt.Sprintf("C%d", n), func(b *testing.B) {
			e, _ := sim.NewEngine(graph.MustCycle(n), core.NewFastNodes(ids.MustGenerate(ids.Random, n, 1)))
			e.Step([]int{0, 2})
			e.CanonicalFingerprintHash128()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, _, _ = e.CanonicalFingerprintHash128()
			}
		})
	}
}

// BenchmarkSweepC5 measures one exhaustive identifier sweep of Algorithm 2
// on C5 — every assignment, singleton schedules — through the registry, as
// sweep-c5 in perfbench and modelcheck -sweep run it: workers=1 is the
// serial loop, default the registry's one orbit worker per CPU, both at
// SymmetryFull; symmetry=off,workers=1 explores all 120 assignments
// unreduced, the baseline of E18's timing table. The weighted counts are
// the same in every row.
func BenchmarkSweepC5(b *testing.B) {
	d, err := protocol.Lookup("five")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name     string
		symmetry model.Symmetry
		workers  int
	}{
		{"workers=1", model.SymmetryFull, 1},
		{"default", model.SymmetryFull, 0},
		{"symmetry=off,workers=1", model.SymmetryOff, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opt := model.Options{SingletonsOnly: true, Symmetry: bc.symmetry, Workers: bc.workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := d.Sweep(5, sim.ModeInterleaved, opt)
				if err != nil || !rep.AllOk || rep.States != 321860 || rep.Terminal != 17650 {
					b.Fatalf("sweep: %v states=%d terminal=%d allok=%t", err, rep.States, rep.Terminal, rep.AllOk)
				}
			}
		})
	}
}

// BenchmarkContractOverhead pins the cost of the pluggable contract layer:
// the same serial C5 sweep of Algorithm 2 (SymmetryAssignments) with the
// per-state invariant calling five's property checks directly and routed
// through the descriptor's Contract.Safety. Both read the no-copy
// Engine.View, as the registry invariant does; the two rows should be
// within noise.
func BenchmarkContractOverhead(b *testing.B) {
	d, err := protocol.Lookup("five")
	if err != nil {
		b.Fatal(err)
	}
	g := graph.MustCycle(5)
	mk := func(xs []int) (*sim.Engine[core.FiveVal], error) {
		return sim.NewEngine(g, core.NewFiveNodes(xs))
	}
	for _, bc := range []struct {
		name string
		inv  model.Invariant[core.FiveVal]
	}{
		{"direct", func(e *sim.Engine[core.FiveVal]) error {
			r := e.View()
			if err := check.ProperColoring(g, r); err != nil {
				return err
			}
			return check.PaletteRange(r, 5)
		}},
		{"contract", func(e *sim.Engine[core.FiveVal]) error { return d.Contract.Safety(g, e.View()) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opt := model.Options{SingletonsOnly: true, Symmetry: model.SymmetryAssignments, Workers: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := model.SweepExplore(5, mk, opt, bc.inv)
				if err != nil || !rep.AllOk || rep.States != 321860 || rep.Terminal != 17650 {
					b.Fatalf("sweep: %v states=%d terminal=%d allok=%t", err, rep.States, rep.Terminal, rep.AllOk)
				}
			}
		})
	}
}

// BenchmarkWorstActivationsC4 measures the exact worst-case longest-path
// analysis on the same instance.
func BenchmarkWorstActivationsC4(b *testing.B) {
	g := graph.MustCycle(4)
	xs := ids.MustGenerate(ids.Increasing, 4, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := sim.NewEngine(g, core.NewFiveNodes(xs))
		if _, ok, _ := model.WorstActivations(e, model.Options{SingletonsOnly: true}); !ok {
			b.Fatal("analysis inconclusive")
		}
	}
}

// BenchmarkBigRun times full Algorithm 2 runs on the big engine at
// n = 10⁵ under bigcurve's three drivers — batched round-robin(1),
// random-subset(p=0.40) and the sharded executor at GOMAXPROCS workers —
// with incremental checking on, and reports the wall time per activation.
// Reset and scheduler construction stay outside the timer.
func BenchmarkBigRun(b *testing.B) {
	const n = 100_000
	d, err := protocol.Lookup("five")
	if err != nil {
		b.Fatal(err)
	}
	xs := ids.MustGenerate(ids.Random, n, 1)
	k, err := d.BigKernel(xs)
	if err != nil {
		b.Fatal(err)
	}
	e := bigsim.New(k)
	e.SetIncremental(true)
	for _, bc := range []struct {
		name  string
		sched func() bigsim.Sched // nil: the sharded executor
	}{
		{"rr", func() bigsim.Sched { return bigsim.NewRR(1) }},
		{"random", func() bigsim.Sched { return bigsim.NewRandomSubset(0.4, 1) }},
		{"sharded", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var activations int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := e.Reset(xs); err != nil {
					b.Fatal(err)
				}
				var s bigsim.Sched
				if bc.sched != nil {
					s = bc.sched()
				}
				b.StartTimer()
				var reason runctl.StopReason
				if s != nil {
					reason, err = e.RunBudget(nil, s, runctl.Budget{})
				} else {
					reason, err = e.RunSharded(nil, runtime.GOMAXPROCS(0), runctl.Budget{})
				}
				if err != nil || reason != runctl.StopNone {
					b.Fatalf("run: reason=%q err=%v", reason, err)
				}
				activations += e.TotalActivations()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(activations), "ns/activation")
		})
	}
}
