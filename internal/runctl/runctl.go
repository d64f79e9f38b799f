// Package runctl is the run-control vocabulary shared by every execution
// layer of the repository: explicit budgets (wall-clock, states, steps,
// activations), the stop reasons a tripped budget reports, a cheap
// amortized checker that polls a context and deadline without paying a
// time.Now per event, and Drive, the one run loop every engine uses.
//
// The contract every layer honors: a tripped budget or cancelled context
// never discards work. The layer stops claiming new work, assembles a
// partial result covering exactly the region it explored, and labels it
// with the StopReason — so callers can always tell a complete result from
// a truncated one, and truncation is never silent.
package runctl

import (
	"context"
	"errors"
	"time"
)

// Budget bounds a run along four independent axes. The zero value imposes
// no bounds. Each layer honors the axes that are meaningful for it (the
// model checker reads Timeout/MaxStates/MaxSteps, the simulation engine
// Timeout/MaxSteps/MaxActivations) and ignores the rest.
type Budget struct {
	// Timeout is the wall-clock budget; 0 means none.
	Timeout time.Duration
	// MaxStates bounds distinct configurations a model-checker run may
	// visit; 0 means the package default applies.
	MaxStates int
	// MaxSteps bounds time steps (schedule length for the checker, executed
	// steps for the engine); 0 means no explicit bound.
	MaxSteps int
	// MaxActivations bounds per-process rounds in an engine run; 0 means
	// none.
	MaxActivations int
}

// IsZero reports whether the budget imposes no bounds at all.
func (b Budget) IsZero() bool {
	return b.Timeout == 0 && b.MaxStates == 0 && b.MaxSteps == 0 && b.MaxActivations == 0
}

// Clamp folds a ceiling into the budget: each axis becomes the smaller
// positive of the two, and axes the budget leaves unbounded (zero) take
// the ceiling's bound outright. A multi-tenant caller uses it to make
// budgets mandatory — whatever a request asks for, the pool's per-job
// ceiling applies on every axis the ceiling bounds.
func (b Budget) Clamp(max Budget) Budget {
	b.Timeout = minDuration(b.Timeout, max.Timeout)
	b.MaxStates = Min(b.MaxStates, max.MaxStates)
	b.MaxSteps = Min(b.MaxSteps, max.MaxSteps)
	b.MaxActivations = Min(b.MaxActivations, max.MaxActivations)
	return b
}

// minDuration combines an explicit duration with a ceiling the way Min
// combines counts: the smaller positive one wins, zero means unbounded.
func minDuration(opt, max time.Duration) time.Duration {
	if max <= 0 {
		return opt
	}
	if opt <= 0 || max < opt {
		return max
	}
	return opt
}

// WithContext derives a context carrying the budget's wall-clock axis: a
// child of parent whose deadline is Timeout from now (or parent's own
// deadline, whichever is earlier). With no Timeout it returns a plain
// cancellable child, so the caller always has a cancel handle — the drain
// path of a long-running service cancels every job through it. parent may
// be nil (context.Background()).
func (b Budget) WithContext(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	if b.Timeout > 0 {
		return context.WithTimeout(parent, b.Timeout)
	}
	return context.WithCancel(parent)
}

// StopReason labels why a run ended before completing. The empty string
// means the run ran to completion.
type StopReason string

// The stop reasons reported across the execution stack.
const (
	StopNone        StopReason = ""
	StopCancelled   StopReason = "cancelled"       // context cancelled
	StopTimeout     StopReason = "timeout"         // wall-clock budget or context deadline
	StopMaxStates   StopReason = "max-states"      // state budget exhausted
	StopMaxSteps    StopReason = "max-steps"       // step budget exhausted
	StopMaxDepth    StopReason = "max-depth"       // schedule-length bound reached
	StopActivations StopReason = "max-activations" // per-process round budget exhausted
	StopIO          StopReason = "io-error"        // out-of-core storage failed (spilled visited set)
)

// ErrBudget is the sentinel wrapped by errors a tripped budget produces at
// API boundaries that must keep returning (Result, error) pairs. The
// partial result accompanying it is valid for the explored region.
var ErrBudget = errors.New("run stopped by budget")

// checkEvery is how many Check calls are absorbed between actual
// context/clock polls. Budget trips are therefore detected within this
// many events — prompt enough for any interactive use, cheap enough that
// the un-budgeted hot paths stay unaffected.
const checkEvery = 256

// Checker amortizes context and deadline polling. The zero-cost case — no
// context, no timeout — is a nil *Checker, whose Check always reports
// "keep going".
type Checker struct {
	ctx      context.Context
	deadline time.Time
	count    int
}

// NewChecker builds a Checker for the given context (nil means none) and
// wall-clock budget (0 means none). It returns nil when there is nothing
// to watch, so un-budgeted runs skip polling entirely.
//
// A context deadline is extracted and polled directly against the clock
// rather than waiting for ctx.Done: on GOMAXPROCS=1 the context's timer
// goroutine cannot fire while a CPU-bound exploration holds the only P
// (sysmon preempts it only after ~10ms), so Done-based detection would lag
// far behind the deadline.
func NewChecker(ctx context.Context, timeout time.Duration) *Checker {
	if ctx == nil && timeout <= 0 {
		return nil
	}
	c := &Checker{ctx: ctx}
	if timeout > 0 {
		c.deadline = time.Now().Add(timeout)
	}
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok && (c.deadline.IsZero() || d.Before(c.deadline)) {
			c.deadline = d
		}
	}
	return c
}

// Check reports whether the run must stop, polling the context and clock
// only every few hundred calls. Safe on a nil receiver.
func (c *Checker) Check() (StopReason, bool) {
	if c == nil {
		return StopNone, false
	}
	c.count++
	if c.count%checkEvery != 0 {
		return StopNone, false
	}
	return c.CheckNow()
}

// CheckNow polls the context and clock immediately. Safe on a nil
// receiver.
func (c *Checker) CheckNow() (StopReason, bool) {
	if c == nil {
		return StopNone, false
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return StopTimeout, true
			}
			return StopCancelled, true
		}
	}
	if !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
		return StopTimeout, true
	}
	return StopNone, false
}

// Reason maps a cancelled context's error to the matching StopReason
// (StopNone for a live or nil context).
func Reason(ctx context.Context) StopReason {
	if ctx == nil || ctx.Err() == nil {
		return StopNone
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return StopTimeout
	}
	return StopCancelled
}

// Min combines an explicit option bound with a budget bound: the smaller
// positive one wins; 0 on both sides means unbounded (0).
func Min(opt, budget int) int {
	if budget <= 0 {
		return opt
	}
	if opt <= 0 || budget < opt {
		return budget
	}
	return opt
}
