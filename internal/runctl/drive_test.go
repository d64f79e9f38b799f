package runctl

import (
	"context"
	"errors"
	"testing"
)

// fakeStepper is n processes that each need `rounds` rounds; every
// Advance performs `batch` singleton steps, trimmed to the limit.
type fakeStepper struct {
	left   []int
	t      int64
	batch  int64
	failAt int64 // Advance fails once t reaches it (0 = never)
}

func newFake(n, rounds int, batch int64) *fakeStepper {
	f := &fakeStepper{left: make([]int, n), batch: batch}
	for i := range f.left {
		f.left[i] = rounds
	}
	return f
}

func (f *fakeStepper) AllSettled() bool {
	for _, l := range f.left {
		if l > 0 {
			return false
		}
	}
	return true
}

func (f *fakeStepper) Steps() int64 { return f.t }

func (f *fakeStepper) Advance(limit int64) (int, error) {
	if f.failAt > 0 && f.t >= f.failAt {
		return 0, errors.New("violation")
	}
	performed := 0
	for k := int64(0); k < min(f.batch, limit); k++ {
		f.t++
		for i, l := range f.left {
			if l > 0 {
				f.left[i]--
				performed++
				break
			}
		}
	}
	return performed, nil
}

func (f *fakeStepper) Abandon() {
	for i := range f.left {
		f.left[i] = 0
	}
}

// TestDriveAxes pins each stop axis of the shared run loop, including the
// exact trim a batching engine gets from the limit it is handed. The
// empty-streak rule is pinned through the engines (bigsim's
// TestEmptyStreak, TestEmptyStreakEquivalence).
func TestDriveAxes(t *testing.T) {
	if r, err := Drive(nil, Budget{}, newFake(4, 3, 5)); r != StopNone || err != nil {
		t.Fatalf("unbudgeted run = (%q, %v), want completion", r, err)
	}

	f := newFake(4, 3, 5)
	if r, _ := Drive(nil, Budget{MaxSteps: 7}, f); r != StopMaxSteps || f.t != 7 {
		t.Fatalf("max-steps = (%q, t=%d), want (max-steps, 7)", r, f.t)
	}

	f = newFake(4, 3, 5)
	f.t = 2 // the step axis counts the engine's absolute time
	if r, _ := Drive(nil, Budget{MaxSteps: 4}, f); r != StopMaxSteps || f.t != 4 {
		t.Fatalf("max-steps from t=2 = (%q, t=%d), want (max-steps, 4)", r, f.t)
	}

	f = newFake(4, 3, 5)
	if r, _ := Drive(nil, Budget{MaxActivations: 6}, f); r != StopActivations || f.t != 6 {
		t.Fatalf("max-activations = (%q, t=%d), want (max-activations, 6)", r, f.t)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f = newFake(4, 3, 5)
	if r, _ := Drive(ctx, Budget{}, f); r != StopCancelled || f.t != 0 {
		t.Fatalf("pre-cancelled = (%q, t=%d), want (cancelled, 0)", r, f.t)
	}
	if r, _ := Drive(ctx, Budget{}, newFake(0, 0, 1)); r != StopNone {
		t.Fatalf("settled engine under a cancelled context = %q, want completion", r)
	}

	f = newFake(4, 3, 1)
	f.failAt = 2
	if r, err := Drive(nil, Budget{}, f); r != StopNone || err == nil {
		t.Fatalf("violation = (%q, %v), want the Advance error", r, err)
	}
}
