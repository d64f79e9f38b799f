package bigsim

import (
	"runtime"
	"testing"

	"asynccycle/internal/ids"
	"asynccycle/internal/sim"
)

// TestStepAllocs pins the warm path at zero allocations per step: after
// one warm-up step the engine's scratch (decode buffer, performed buffer,
// scheduler work buffers) has reached steady-state size, and Reset reuses
// every buffer — so even full restart cycles allocate nothing.
func TestStepAllocs(t *testing.T) {
	const n = 1024
	xs := ids.RandomIDs(n, 1)
	for _, mk := range []struct {
		name string
		k    func([]int) (Kernel, error)
	}{
		{"six", NewSixKernel},
		{"five", NewFiveKernel},
		{"fast", NewFastKernel},
	} {
		t.Run(mk.name, func(t *testing.T) {
			k, err := mk.k(xs)
			if err != nil {
				t.Fatal(err)
			}
			e := New(k)
			e.SetIncremental(true)
			sy := NewSync()
			step := func() {
				if e.AllSettled() {
					if err := e.Reset(xs); err != nil {
						t.Fatal(err)
					}
				}
				e.schedBuf = sy.Next(e, e.schedBuf[:0])
				e.Step(e.schedBuf)
			}
			step() // warm: grows perfBuf to steady state
			if avg := testing.AllocsPerRun(200, step); avg != 0 {
				t.Errorf("warm synchronous step: %.2f allocs/op, want 0", avg)
			}
		})
	}
}

// TestRunAllocs pins the full-run paths, Reset included, at zero
// allocations once warm, for every kernel: batched round-robin, and
// random-subset decoded from the frontier words with one scheduler reused
// across runs (its draws continue, so each run is a different schedule).
func TestRunAllocs(t *testing.T) {
	const n = 1024
	xs := ids.RandomIDs(n, 2)
	for _, mk := range []struct {
		name string
		k    func([]int) (Kernel, error)
	}{
		{"six", NewSixKernel},
		{"five", NewFiveKernel},
		{"fast", NewFastKernel},
	} {
		for _, sc := range []struct {
			name string
			s    Sched
		}{
			{"rr", NewRR(1)},
			{"random", NewRandomSubset(0.4, 3)},
		} {
			t.Run(mk.name+"/"+sc.name, func(t *testing.T) {
				k, err := mk.k(xs)
				if err != nil {
					t.Fatal(err)
				}
				e := New(k)
				e.SetIncremental(true)
				run := func() {
					if err := e.Reset(xs); err != nil {
						t.Fatal(err)
					}
					if err := e.Run(sc.s, 1<<40); err != nil {
						t.Fatal(err)
					}
					if e.nWork != 0 || e.total < n {
						t.Fatalf("run ended with %d working nodes after %d activations", e.nWork, e.total)
					}
				}
				run() // warm
				if avg := testing.AllocsPerRun(10, run); avg != 0 {
					t.Errorf("warm full run: %.2f allocs/op, want 0", avg)
				}
			})
		}
	}
}

// allocated returns the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEngineFootprint holds BytesPerNode to what it describes: at
// n = 2¹⁶ each kernel constructor allocates its BytesPerNode()·n, and New
// the engine's share of Engine.BytesPerNode()·n (less up to half a byte a
// node, as the four bitsets round up to one), each within a small
// constant. Result allocates its 18 bytes/node of snapshot storage on its
// first call at a size and never again at that size, Reset included. The
// bounds are in bytes with a slack far below any per-node array, since
// other goroutines of the test binary may allocate a few bytes meanwhile;
// TestRunAllocs pins the warm paths at zero allocations.
func TestEngineFootprint(t *testing.T) {
	const n = 1 << 16
	const slack = 64 << 10            // struct headers and the engine's fixed scratch buffers
	const resultBytes = 8 + 1 + 1 + 8 // Outputs, Done, Crashed, Activations
	xs := ids.RandomIDs(n, 9)
	within := func(t *testing.T, what string, got uint64, lo, hi int) {
		t.Helper()
		if got < uint64(lo) || got > uint64(hi) {
			t.Errorf("%s allocated %d bytes (%.2f/node at n=%d), want %d..%d", what, got, float64(got)/n, n, lo, hi)
		}
	}
	for _, mk := range []struct {
		name string
		k    func([]int) (Kernel, error)
	}{
		{"six", NewSixKernel},
		{"five", NewFiveKernel},
		{"fast", NewFastKernel},
	} {
		t.Run(mk.name, func(t *testing.T) {
			var k Kernel
			var err error
			kb := allocated(func() { k, err = mk.k(xs) })
			if err != nil {
				t.Fatal(err)
			}
			kn := k.BytesPerNode() * n
			within(t, "kernel constructor", kb, kn, kn+slack)

			var e *Engine
			eb := allocated(func() { e = New(k) })
			en := e.BytesPerNode()*n - kn
			within(t, "New", eb, en-n/2, en+slack)
			within(t, "Reset at the same n", allocated(func() { err = e.Reset(xs) }), 0, slack)
			if err != nil {
				t.Fatal(err)
			}

			if err := e.Run(NewRR(1), 1<<40); err != nil {
				t.Fatal(err)
			}
			var res sim.Result
			within(t, "first Result", allocated(func() { res = e.Result() }), resultBytes*n, resultBytes*n+slack)
			if len(res.Outputs) != n || res.Steps != int(e.Steps()) {
				t.Fatalf("Result sized %d after %d steps, want %d after %d", len(res.Outputs), res.Steps, n, e.Steps())
			}
			within(t, "second Result", allocated(func() { e.Result() }), 0, slack)
			within(t, "Reset and Result at the same n", allocated(func() { err = e.Reset(xs); e.Result() }), 0, slack)
			if err != nil {
				t.Fatal(err)
			}

			// A new size drops the old snapshot; the next Result allocates
			// once at the new size.
			const m = n / 4
			if err := e.Reset(xs[:m]); err != nil {
				t.Fatal(err)
			}
			within(t, "first Result after a resize", allocated(func() { res = e.Result() }), resultBytes*m, resultBytes*m+slack)
			if len(res.Outputs) != m {
				t.Fatalf("Result sized %d after a resize, want %d", len(res.Outputs), m)
			}
			within(t, "second Result after a resize", allocated(func() { e.Result() }), 0, slack)
		})
	}
}
