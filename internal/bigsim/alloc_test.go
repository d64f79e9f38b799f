package bigsim

import (
	"testing"

	"asynccycle/internal/ids"
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
