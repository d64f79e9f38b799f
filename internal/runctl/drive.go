package runctl

import (
	"context"
	"math"
)

// EmptyStreak is how many consecutive no-op steps (scheduler choices that
// activate nobody) a run tolerates before declaring the remaining
// processes crashed. Idle steps change no state, so an adversary idling
// forever is indistinguishable from one that crashed everyone; the
// tolerance is large enough for deliberate idling phases (e.g. Sleep
// schedulers parking the execution until a wake time) to pass through.
const EmptyStreak = 2048

// Stepper is an execution engine bound to the scheduler of one run, as
// Drive sees it.
type Stepper interface {
	// AllSettled reports whether every process terminated or crashed.
	AllSettled() bool
	// Steps returns the number of time steps the engine has executed.
	Steps() int64
	// Advance executes the scheduler's next decision and returns how many
	// rounds it performed. An engine that decodes several singleton steps
	// at once executes at most limit (≥ 1) of them, so a budget stops on
	// its exact bound. A non-nil error (a safety violation) ends the run.
	Advance(limit int64) (int, error)
	// Abandon crashes every process that is still working.
	Abandon()
}

// Drive is the run loop every engine shares. It advances s until every
// process has settled, or stops early with the StopReason of the first
// axis that trips: ctx done or b.Timeout elapsed (polled once before the
// first step, amortized by Checker.Check after that), the engine's step
// count reaching b.MaxSteps, or the rounds performed in this call reaching
// b.MaxActivations (each axis unbounded when zero). After EmptyStreak
// consecutive steps without a round the remaining processes are abandoned,
// modeling an adversary that crashed them.
func Drive(ctx context.Context, b Budget, s Stepper) (StopReason, error) {
	ck := NewChecker(ctx, b.Timeout)
	if !s.AllSettled() {
		if reason, stop := ck.CheckNow(); stop {
			return reason, nil
		}
	}
	var acts int64
	empties := 0
	for !s.AllSettled() {
		if reason, stop := ck.Check(); stop {
			return reason, nil
		}
		limit := int64(math.MaxInt64)
		if b.MaxSteps > 0 {
			if limit = int64(b.MaxSteps) - s.Steps(); limit <= 0 {
				return StopMaxSteps, nil
			}
		}
		if b.MaxActivations > 0 {
			left := int64(b.MaxActivations) - acts
			if left <= 0 {
				return StopActivations, nil
			}
			limit = min(limit, left)
		}
		performed, err := s.Advance(limit)
		if err != nil {
			return StopNone, err
		}
		acts += int64(performed)
		if performed > 0 {
			empties = 0
		} else if empties++; empties >= EmptyStreak {
			s.Abandon()
		}
	}
	return StopNone, nil
}
