package bigsim

import (
	"context"
	"strings"
	"testing"
	"time"

	"asynccycle/internal/ids"
	"asynccycle/internal/runctl"
)

// constKernel terminates every node on its first round with a fixed color —
// an intentionally broken protocol for exercising the safety checkers.
type constKernel struct {
	n     int
	color int32
	valid bool // whether color is inside the declared palette
}

func (k *constKernel) Name() string                { return "const" }
func (k *constKernel) N() int                      { return k.n }
func (k *constKernel) Reset(xs []int) error        { k.n = len(xs); return nil }
func (k *constKernel) Publish(int32)               {}
func (k *constKernel) Observe(int32) (bool, int32) { return true, k.color }
func (k *constKernel) Round(int32) (bool, int32)   { return true, k.color }
func (k *constKernel) ValidOutput(c int32) bool {
	return k.valid && c == k.color
}
func (k *constKernel) BytesPerNode() int { return 0 }

// spinKernel never terminates — for driving budget and step-limit paths.
type spinKernel struct{ n int }

func (k *spinKernel) Name() string                { return "spin" }
func (k *spinKernel) N() int                      { return k.n }
func (k *spinKernel) Reset(xs []int) error        { k.n = len(xs); return nil }
func (k *spinKernel) Publish(int32)               {}
func (k *spinKernel) Observe(int32) (bool, int32) { return false, 0 }
func (k *spinKernel) Round(int32) (bool, int32)   { return false, 0 }
func (k *spinKernel) ValidOutput(int32) bool      { return true }
func (k *spinKernel) BytesPerNode() int           { return 0 }

// emptySched never activates anyone — for the empty-streak rule.
type emptySched struct{}

func (emptySched) Name() string                  { return "empty" }
func (emptySched) Next(*Engine, []int32) []int32 { return nil }

// TestIncrementalCatchesImproperColoring: adjacent equal outputs must trip
// the incremental checker at the moment the second endpoint terminates,
// and the O(n) reference check must agree.
func TestIncrementalCatchesImproperColoring(t *testing.T) {
	e := New(&constKernel{n: 8, color: 0, valid: true})
	e.SetIncremental(true)
	err := e.Run(NewSync(), 100)
	if err == nil || !strings.Contains(err.Error(), "improper coloring") {
		t.Fatalf("incremental checker missed the violation, err = %v", err)
	}
	if full := e.VerifyFull(); full == nil {
		t.Fatal("VerifyFull disagrees with the incremental checker")
	}
	if e.CheckErr() == nil {
		t.Fatal("CheckErr not recorded")
	}
}

// TestIncrementalCatchesPaletteViolation: an out-of-palette output trips
// the checker on the very first termination.
func TestIncrementalCatchesPaletteViolation(t *testing.T) {
	e := New(&constKernel{n: 8, color: 7, valid: false})
	e.SetIncremental(true)
	err := e.Run(NewSync(), 100)
	if err == nil || !strings.Contains(err.Error(), "palette") {
		t.Fatalf("incremental checker missed the palette violation, err = %v", err)
	}
	if full := e.VerifyFull(); full == nil {
		t.Fatal("VerifyFull disagrees with the incremental checker")
	}
}

// TestIncrementalOffIgnoresViolation: with checking off the run completes
// and only VerifyFull reports the problem.
func TestIncrementalOffIgnoresViolation(t *testing.T) {
	e := New(&constKernel{n: 8, color: 0, valid: true})
	if err := e.Run(NewSync(), 100); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.VerifyFull() == nil {
		t.Fatal("VerifyFull missed the violation")
	}
}

// TestBudgetStops drives every stop axis on both the per-step and the
// batched run paths, plus the sharded executor.
func TestBudgetStops(t *testing.T) {
	mk := func(n int) *Engine { return New(&spinKernel{n: n}) }

	t.Run("max-steps", func(t *testing.T) {
		e := mk(64)
		reason, err := e.RunBudget(nil, NewSync(), runctl.Budget{MaxSteps: 5})
		if err != nil || reason != runctl.StopMaxSteps {
			t.Fatalf("reason=%s err=%v, want %s", reason, err, runctl.StopMaxSteps)
		}
		if e.Steps() != 5 {
			t.Fatalf("steps = %d, want 5", e.Steps())
		}
	})

	t.Run("max-steps-batched", func(t *testing.T) {
		e := mk(64)
		reason, err := e.RunBudget(nil, NewRR(1), runctl.Budget{MaxSteps: 100})
		if err != nil || reason != runctl.StopMaxSteps {
			t.Fatalf("reason=%s err=%v, want %s", reason, err, runctl.StopMaxSteps)
		}
		if e.Steps() != 100 {
			t.Fatalf("steps = %d, want exactly 100 (batch must be trimmed)", e.Steps())
		}
	})

	t.Run("max-activations", func(t *testing.T) {
		e := mk(64)
		reason, err := e.RunBudget(nil, NewRR(1), runctl.Budget{MaxActivations: 70})
		if err != nil || reason != runctl.StopActivations {
			t.Fatalf("reason=%s err=%v, want %s", reason, err, runctl.StopActivations)
		}
		if e.TotalActivations() != 70 {
			t.Fatalf("activations = %d, want exactly 70", e.TotalActivations())
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		e := mk(64)
		reason, err := e.RunBudget(ctx, NewSync(), runctl.Budget{})
		if err != nil || reason != runctl.StopCancelled {
			t.Fatalf("reason=%s err=%v, want %s", reason, err, runctl.StopCancelled)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		e := mk(64)
		reason, err := e.RunBudget(nil, NewSync(), runctl.Budget{Timeout: time.Nanosecond})
		if err != nil || reason != runctl.StopTimeout {
			t.Fatalf("reason=%s err=%v, want %s", reason, err, runctl.StopTimeout)
		}
	})

	t.Run("sharded-max-steps", func(t *testing.T) {
		e := mk(512)
		reason, err := e.RunSharded(nil, 2, runctl.Budget{MaxSteps: 600})
		if err != nil || reason != runctl.StopMaxSteps {
			t.Fatalf("reason=%s err=%v, want %s", reason, err, runctl.StopMaxSteps)
		}
		// Super-round granularity: the trip is detected at the next
		// barrier, so the overshoot is below one super-round (≤ n rounds).
		if e.Steps() < 600 || e.Steps() > 600+512 {
			t.Fatalf("steps = %d, want within one super-round past 600", e.Steps())
		}
	})

	t.Run("step-limit-error", func(t *testing.T) {
		e := mk(8)
		err := e.Run(NewSync(), 10)
		if err == nil || !strings.Contains(err.Error(), "step limit") && !strings.Contains(err.Error(), "steps") {
			t.Fatalf("want a step-limit error, got %v", err)
		}
	})
}

// TestEmptyStreak: a scheduler that never activates anyone makes the
// engine abandon the run after the same streak length as internal/sim,
// declaring every survivor crashed.
func TestEmptyStreak(t *testing.T) {
	e := New(&spinKernel{n: 16})
	if err := e.Run(emptySched{}, 1<<20); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.Steps() != runctl.EmptyStreak {
		t.Fatalf("steps = %d, want %d", e.Steps(), runctl.EmptyStreak)
	}
	s := e.Summarize()
	if s.Crashed != 16 || s.Terminated != 0 {
		t.Fatalf("summary = %+v, want all 16 crashed", s)
	}
}

// TestResetReuse: Reset at the same n must keep the engine usable and
// independent across runs; at a different n it must resize.
func TestResetReuse(t *testing.T) {
	xs := ids.RandomIDs(64, 3)
	k, err := NewFiveKernel(xs)
	if err != nil {
		t.Fatal(err)
	}
	e := New(k)
	e.SetIncremental(true)
	if err := e.Run(NewSync(), 1<<20); err != nil {
		t.Fatal(err)
	}
	first := e.Summarize()

	if err := e.Reset(xs); err != nil {
		t.Fatal(err)
	}
	if e.Steps() != 0 || e.TotalActivations() != 0 || e.AllSettled() {
		t.Fatal("Reset left stale execution state")
	}
	if err := e.Run(NewSync(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if again := e.Summarize(); again != first {
		t.Fatalf("deterministic rerun diverged: %+v vs %+v", again, first)
	}

	ys := ids.RandomIDs(128, 4)
	if err := e.Reset(ys); err != nil {
		t.Fatal(err)
	}
	if e.N() != 128 {
		t.Fatalf("n = %d after resize, want 128", e.N())
	}
	if err := e.Run(NewSync(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := e.VerifyFull(); err != nil {
		t.Fatal(err)
	}

	if err := e.Reset([]int{1, 1, 2}); err == nil {
		t.Fatal("Reset accepted identifiers that collide across a cycle edge")
	}
}

// TestCrashPlanImmediate: arming a limit at or below the current count
// crashes the node on the spot, like sim.Engine.CrashAfter.
func TestCrashPlanImmediate(t *testing.T) {
	e := New(&spinKernel{n: 8})
	e.CrashAfter(3, 0)
	if !e.Crashed(3) || e.Working(3) {
		t.Fatal("limit-0 node not crashed immediately")
	}
	if e.AllSettled() {
		t.Fatal("other nodes should still be working")
	}
}

// TestBytesPerNode pins the kernel footprints the bench report records.
func TestBytesPerNode(t *testing.T) {
	xs := ids.RandomIDs(64, 5)
	for _, c := range []struct {
		name string
		mk   func([]int) (Kernel, error)
		want int
	}{
		{"six", NewSixKernel, 13},
		{"five", NewFiveKernel, 13},
		{"fast", NewFastKernel, 31},
	} {
		k, err := c.mk(xs)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.BytesPerNode(); got != c.want {
			t.Errorf("%s kernel: %d bytes/node, want %d", c.name, got, c.want)
		}
		e := New(k)
		if got := e.BytesPerNode(); got != c.want+9 {
			t.Errorf("%s engine: %d bytes/node, want %d", c.name, got, c.want+9)
		}
	}
}
