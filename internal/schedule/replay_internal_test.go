package schedule

import (
	"reflect"
	"testing"
)

// TestReplayNextReturnsCopy is the regression test for the aliasing bug:
// Replay.Next used to hand out its internal slice, so a caller mutating
// the activation set corrupted the recorded schedule and broke bit-exact
// replay.
func TestReplayNextReturnsCopy(t *testing.T) {
	steps := [][]int{{2, 0, 1}, {1}, {0, 2}}
	r := NewReplay(steps)
	got := r.Next(nil, nil)
	if !reflect.DeepEqual(got, []int{2, 0, 1}) {
		t.Fatalf("Next = %v, want [2 0 1]", got)
	}
	got[0], got[1], got[2] = -1, -1, -1
	if !reflect.DeepEqual(r.steps[0], []int{2, 0, 1}) {
		t.Fatalf("mutating Next's result corrupted the recorded schedule: %v", r.steps[0])
	}
	// The remaining steps must still play back verbatim.
	if got := r.Next(nil, nil); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("step 2 = %v, want [1]", got)
	}
	if got := r.Next(nil, nil); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("step 3 = %v, want [0 2]", got)
	}
}

// TestRecordingStepsReturnsCopy pins the matching guarantee on the
// recording side: mutating a Steps() snapshot must not corrupt the
// recorder.
func TestRecordingStepsReturnsCopy(t *testing.T) {
	rec := NewRecording(Synchronous{})
	rec.steps = [][]int{{0, 1}, {1}}
	snap := rec.Steps()
	snap[0][0] = -7
	if !reflect.DeepEqual(rec.steps[0], []int{0, 1}) {
		t.Fatalf("mutating Steps() corrupted the recording: %v", rec.steps[0])
	}
}
