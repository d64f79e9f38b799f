package schedule_test

import (
	"reflect"
	"testing"

	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

func TestRecordReplayIdenticalExecution(t *testing.T) {
	n := 20
	g := graph.MustCycle(n)
	xs := ids.MustGenerate(ids.Random, n, 3)

	e1, _ := sim.NewEngine(g, core.NewFastNodes(xs))
	rec := schedule.NewRecording(schedule.NewRandomSubset(0.4, 17))
	res1, err := e1.Run(rec, 100_000)
	if err != nil {
		t.Fatal(err)
	}

	e2, _ := sim.NewEngine(g, core.NewFastNodes(xs))
	res2, err := e2.Run(schedule.NewReplay(rec.Steps()), 100_000)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(res1.Outputs, res2.Outputs) {
		t.Errorf("outputs differ:\n%v\n%v", res1.Outputs, res2.Outputs)
	}
	if !reflect.DeepEqual(res1.Activations, res2.Activations) {
		t.Errorf("activation counts differ")
	}
	if res1.Steps != res2.Steps {
		t.Errorf("step counts differ: %d vs %d", res1.Steps, res2.Steps)
	}
}

func TestReplayExhaustionAbandons(t *testing.T) {
	n := 5
	g := graph.MustCycle(n)
	xs := ids.MustGenerate(ids.Increasing, n, 0)
	e, _ := sim.NewEngine(g, core.NewFiveNodes(xs))
	// Play only two singleton steps, then stop scheduling.
	res, err := e.Run(schedule.NewReplay([][]int{{0}, {1}}), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 returned at its first solo step (⊥ neighbors); everyone not
	// terminated must have been crashed out by the abandonment rule.
	for i := 0; i < n; i++ {
		if !res.Done[i] && !res.Crashed[i] {
			t.Errorf("node %d neither done nor crashed after replay exhaustion", i)
		}
	}
}

func TestReplayRemaining(t *testing.T) {
	r := schedule.NewReplay([][]int{{0}, {1, 2}})
	if r.Remaining() != 2 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
	r.Next(nil, nil)
	if got := r.Next(nil, nil); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("second step = %v", got)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
	if got := r.Next(nil, nil); got != nil {
		t.Fatalf("exhausted replay returned %v", got)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	steps := [][]int{{0, 2}, {}, {1}}
	data, err := schedule.MarshalSteps(steps)
	if err != nil {
		t.Fatal(err)
	}
	back, err := schedule.UnmarshalSteps(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(steps) {
		t.Fatalf("length %d, want %d", len(back), len(steps))
	}
	for i := range steps {
		if len(back[i]) != len(steps[i]) {
			t.Fatalf("step %d: %v vs %v", i, back[i], steps[i])
		}
		for j := range steps[i] {
			if back[i][j] != steps[i][j] {
				t.Fatalf("step %d: %v vs %v", i, back[i], steps[i])
			}
		}
	}
	if _, err := schedule.UnmarshalSteps([]byte("not json")); err == nil {
		t.Error("accepted invalid JSON")
	}
}

func TestRecordingDeepCopies(t *testing.T) {
	rec := schedule.NewRecording(schedule.Synchronous{})
	st := fakeStateN(3)
	rec.Next(st, nil)
	steps := rec.Steps()
	steps[0][0] = 99
	if rec.Steps()[0][0] == 99 {
		t.Error("Steps aliases internal storage")
	}
}

// mutatingScheduler wraps an inner scheduler and scrambles every slice it
// returned on the PREVIOUS step — the adversarial caller the Replay
// aliasing bug was vulnerable to: with Next handing out its internal rows,
// this corrupts the recorded schedule behind the replay's back.
type mutatingScheduler struct {
	Inner schedule.Scheduler
	last  []int
}

func (m *mutatingScheduler) Name() string { return "mutating(" + m.Inner.Name() + ")" }

func (m *mutatingScheduler) Next(st schedule.State, buf []int) []int {
	for i := range m.last {
		m.last[i] = -1
	}
	m.last = m.Inner.Next(st, m.last[:0])
	return append(buf, m.last...)
}

// TestReplayRoundTripSurvivesCallerMutation is the mutation-regression
// test for the Replay.Next aliasing fix, covering the full
// Recording → Marshal → Unmarshal → Replay round trip: a replayed
// execution whose caller mutates every activation set it received must
// still be bit-identical to the original recorded execution.
func TestReplayRoundTripSurvivesCallerMutation(t *testing.T) {
	n := 16
	g := graph.MustCycle(n)
	xs := ids.MustGenerate(ids.Random, n, 11)

	e1, _ := sim.NewEngine(g, core.NewFiveNodes(xs))
	rec := schedule.NewRecording(schedule.NewRandomSubset(0.35, 23))
	res1, err := e1.Run(rec, 100_000)
	if err != nil {
		t.Fatal(err)
	}

	data, err := schedule.MarshalSteps(rec.Steps())
	if err != nil {
		t.Fatal(err)
	}
	steps, err := schedule.UnmarshalSteps(data)
	if err != nil {
		t.Fatal(err)
	}

	e2, _ := sim.NewEngine(g, core.NewFiveNodes(xs))
	res2, err := e2.Run(&mutatingScheduler{Inner: schedule.NewReplay(steps)}, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.Outputs, res2.Outputs) ||
		!reflect.DeepEqual(res1.Activations, res2.Activations) ||
		res1.Steps != res2.Steps {
		t.Fatalf("mutated replay diverged:\noriginal %v (%d steps)\nreplay   %v (%d steps)",
			res1.Outputs, res1.Steps, res2.Outputs, res2.Steps)
	}
	// The unmarshaled steps themselves must be untouched too (Replay deep
	// copies at construction).
	back, err := schedule.UnmarshalSteps(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, back) {
		t.Fatal("replay mutated the caller's steps slice")
	}
}

// fakeStateN adapts the package-internal fake for external tests.
type simpleState struct{ n int }

func (s simpleState) N() int              { return s.n }
func (s simpleState) Time() int           { return 1 }
func (s simpleState) Working(int) bool    { return true }
func (s simpleState) Activations(int) int { return 0 }

func (s simpleState) AppendWorking(buf []int) []int {
	for i := 0; i < s.n; i++ {
		buf = append(buf, i)
	}
	return buf
}

func fakeStateN(n int) schedule.State { return simpleState{n: n} }
