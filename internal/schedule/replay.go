package schedule

import (
	"encoding/json"
	"fmt"
)

// Recording wraps a scheduler and captures every activation set it
// chooses, so an interesting execution (a bug reproduction, a worst case
// found by random search) can be serialized and replayed exactly.
type Recording struct {
	Inner Scheduler
	steps [][]int
}

// NewRecording wraps inner.
func NewRecording(inner Scheduler) *Recording { return &Recording{Inner: inner} }

// Name implements Scheduler.
func (r *Recording) Name() string { return "recording(" + r.Inner.Name() + ")" }

// Next implements Scheduler.
func (r *Recording) Next(st State, buf []int) []int {
	start := len(buf)
	buf = r.Inner.Next(st, buf)
	r.steps = append(r.steps, append([]int(nil), buf[start:]...))
	return buf
}

// Steps returns the captured schedule prefix (deep copy).
func (r *Recording) Steps() [][]int {
	out := make([][]int, len(r.steps))
	for i, s := range r.steps {
		out[i] = append([]int(nil), s...)
	}
	return out
}

// Replay is a scheduler that plays back a fixed schedule verbatim; after
// the recorded steps are exhausted it returns empty sets, which the engine
// treats as the adversary abandoning the remaining processes.
type Replay struct {
	steps [][]int
	pos   int
}

// NewReplay returns a Replay over the given steps (deep copied).
func NewReplay(steps [][]int) *Replay {
	cp := make([][]int, len(steps))
	for i, s := range steps {
		cp[i] = append([]int(nil), s...)
	}
	return &Replay{steps: cp}
}

// Name implements Scheduler.
func (r *Replay) Name() string { return fmt.Sprintf("replay(%d steps)", len(r.steps)) }

// Next implements Scheduler. The step is copied into the caller's buffer:
// callers (engine hooks, schedule shrinkers) may mutate it freely without
// corrupting the recorded schedule, so replays of the same Replay value
// stay bit-exact.
func (r *Replay) Next(_ State, buf []int) []int {
	if r.pos >= len(r.steps) {
		return buf
	}
	buf = append(buf, r.steps[r.pos]...)
	r.pos++
	return buf
}

// Remaining returns how many recorded steps have not been played yet.
func (r *Replay) Remaining() int { return len(r.steps) - r.pos }

// MarshalSteps serializes a schedule as JSON (a [][]int array), suitable
// for embedding in regression tests or writing to disk.
func MarshalSteps(steps [][]int) ([]byte, error) {
	b, err := json.Marshal(steps)
	if err != nil {
		return nil, fmt.Errorf("schedule: marshal: %w", err)
	}
	return b, nil
}

// UnmarshalSteps deserializes a schedule produced by MarshalSteps.
func UnmarshalSteps(data []byte) ([][]int, error) {
	var steps [][]int
	if err := json.Unmarshal(data, &steps); err != nil {
		return nil, fmt.Errorf("schedule: unmarshal: %w", err)
	}
	return steps, nil
}
