package schedule

import (
	"fmt"
	"math/bits"
	"testing"
)

// fakeState is a hand-controlled schedule.State.
type fakeState struct {
	n       int
	time    int
	stopped map[int]bool
	acts    map[int]int
}

func newFakeState(n int) *fakeState {
	return &fakeState{n: n, time: 1, stopped: map[int]bool{}, acts: map[int]int{}}
}

func (f *fakeState) N() int                { return f.n }
func (f *fakeState) Time() int             { return f.time }
func (f *fakeState) Working(i int) bool    { return !f.stopped[i] }
func (f *fakeState) Activations(i int) int { return f.acts[i] }

func (f *fakeState) AppendWorking(buf []int) []int {
	for i := 0; i < f.n; i++ {
		if f.Working(i) {
			buf = append(buf, i)
		}
	}
	return buf
}

func TestSynchronous(t *testing.T) {
	st := newFakeState(4)
	st.stopped[2] = true
	got := Synchronous{}.Next(st, nil)
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("Next = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Next = %v, want %v", got, want)
		}
	}
	if (Synchronous{}).Name() == "" {
		t.Error("empty name")
	}
}

func TestRoundRobinWidthOne(t *testing.T) {
	st := newFakeState(3)
	rr := NewRoundRobin(1)
	var order []int
	for i := 0; i < 6; i++ {
		chosen := rr.Next(st, nil)
		if len(chosen) != 1 {
			t.Fatalf("width-1 chose %v", chosen)
		}
		order = append(order, chosen[0])
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRoundRobinSkipsStopped(t *testing.T) {
	st := newFakeState(3)
	st.stopped[1] = true
	rr := NewRoundRobin(1)
	var order []int
	for i := 0; i < 4; i++ {
		order = append(order, rr.Next(st, nil)[0])
	}
	for _, i := range order {
		if i == 1 {
			t.Fatalf("scheduled stopped process: %v", order)
		}
	}
}

func TestRoundRobinWidthClamped(t *testing.T) {
	rr := NewRoundRobin(0)
	if rr.Width != 1 {
		t.Errorf("width = %d, want clamp to 1", rr.Width)
	}
}

func TestRoundRobinWide(t *testing.T) {
	st := newFakeState(5)
	rr := NewRoundRobin(3)
	first := rr.Next(st, nil)
	if len(first) != 3 {
		t.Fatalf("chose %v, want 3 processes", first)
	}
	second := rr.Next(st, nil)
	if second[0] != (first[len(first)-1]+1)%5 {
		t.Fatalf("second batch %v does not continue after %v", second, first)
	}
}

func TestRandomSubsetAlwaysProgresses(t *testing.T) {
	st := newFakeState(6)
	s := NewRandomSubset(0.01, 7) // tiny p: relies on the at-least-one rule
	for i := 0; i < 100; i++ {
		if got := s.Next(st, nil); len(got) == 0 {
			t.Fatal("RandomSubset returned empty set with working processes")
		}
	}
}

func TestRandomSubsetEmptyWhenAllStopped(t *testing.T) {
	st := newFakeState(3)
	for i := 0; i < 3; i++ {
		st.stopped[i] = true
	}
	if got := NewRandomSubset(0.5, 1).Next(st, nil); len(got) != 0 {
		t.Fatalf("chose %v from no working processes", got)
	}
}

func TestRandomSubsetClampsP(t *testing.T) {
	if s := NewRandomSubset(-1, 0); s.P <= 0 || s.P > 1 {
		t.Errorf("p = %v not clamped", s.P)
	}
	if s := NewRandomSubset(7, 0); s.P != 1 {
		t.Errorf("p = %v, want 1", s.P)
	}
}

// TestRandomSubsetIncludeBitsStream pins the word form of the decision
// stream to Next: decoding each step's working set word by word with
// IncludeBits, plus Fallback when no bit came up, must choose exactly
// Next's sets under the same seed — across word boundaries, with stopped
// processes, and at a p small enough that the fallback fires.
func TestRandomSubsetIncludeBitsStream(t *testing.T) {
	const n = 150
	for _, p := range []float64{0.4, 0.002} {
		st := newFakeState(n)
		for _, i := range []int{0, 5, 63, 64, 100, 149} {
			st.stopped[i] = true
		}
		ref, words := NewRandomSubset(p, 9), NewRandomSubset(p, 9)
		for step := 0; step < 50; step++ {
			want := ref.Next(st, nil)
			var got []int
			var frontier [(n + 63) / 64]uint64
			nWork := 0
			for i := 0; i < n; i++ {
				if st.Working(i) {
					frontier[i/64] |= 1 << (i % 64)
					nWork++
				}
			}
			for w, word := range frontier {
				for chosen := words.IncludeBits(word); chosen != 0; chosen &= chosen - 1 {
					got = append(got, w*64+bits.TrailingZeros64(chosen))
				}
			}
			if len(got) == 0 {
				got = append(got, st.AppendWorking(nil)[words.Fallback(nWork)])
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("p=%v step %d: word decoding chose %v, Next chose %v", p, step, got, want)
			}
			st.stopped[want[0]] = true // shrink the working set as runs do
		}
	}
}

func TestRandomOne(t *testing.T) {
	st := newFakeState(5)
	st.stopped[0] = true
	s := NewRandomOne(3)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		got := s.Next(st, nil)
		if len(got) != 1 {
			t.Fatalf("chose %v", got)
		}
		if got[0] == 0 {
			t.Fatal("scheduled stopped process 0")
		}
		seen[got[0]] = true
	}
	if len(seen) != 4 {
		t.Errorf("only ever chose %v; want all 4 working processes", seen)
	}
	st2 := newFakeState(1)
	st2.stopped[0] = true
	if got := s.Next(st2, nil); got != nil {
		t.Errorf("chose %v from empty working set", got)
	}
}

// The documented contract: even-index processes move on odd steps (engine
// time is 1-based), odd-index processes on even steps.
func TestAlternatingParity(t *testing.T) {
	cases := []struct {
		time int
		want []int
	}{
		{time: 1, want: []int{0, 2, 4}},
		{time: 2, want: []int{1, 3}},
		{time: 3, want: []int{0, 2, 4}},
		{time: 4, want: []int{1, 3}},
		{time: 100, want: []int{1, 3}},
		{time: 101, want: []int{0, 2, 4}},
	}
	for _, c := range cases {
		st := newFakeState(5)
		st.time = c.time
		got := Alternating{}.Next(st, nil)
		if len(got) != len(c.want) {
			t.Fatalf("t=%d: Next = %v, want %v", c.time, got, c.want)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("t=%d: Next = %v, want %v", c.time, got, c.want)
			}
		}
	}
}

func TestAlternatingFallsBackWhenClassEmpty(t *testing.T) {
	st := newFakeState(4)
	st.stopped[0] = true
	st.stopped[2] = true // no even processes left
	st.time = 1          // odd step wants even processes
	got := Alternating{}.Next(st, nil)
	if len(got) == 0 {
		t.Fatal("alternating starved the execution with working processes left")
	}
	for _, i := range got {
		if i%2 != 1 {
			t.Fatalf("fallback chose stopped process: %v", got)
		}
	}
}

func TestSleepWithholdsUntilWake(t *testing.T) {
	st := newFakeState(4)
	s := NewSleep([]int{0, 1}, 10, Synchronous{})
	st.time = 5
	for _, i := range s.Next(st, nil) {
		if i == 0 || i == 1 {
			t.Fatal("sleeping process scheduled before wake time")
		}
	}
	st.time = 10
	got := s.Next(st, nil)
	found := false
	for _, i := range got {
		if i == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("sleeping process not scheduled at wake time")
	}
	if s.Name() == "" {
		t.Error("empty name")
	}
}

func TestBurstGivesConsecutiveSoloSteps(t *testing.T) {
	st := newFakeState(3)
	b := NewBurst(3)
	var order []int
	for i := 0; i < 9; i++ {
		got := b.Next(st, nil)
		if len(got) != 1 {
			t.Fatalf("burst chose %v", got)
		}
		order = append(order, got[0])
	}
	want := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestBurstSkipsStopped(t *testing.T) {
	st := newFakeState(3)
	st.stopped[0] = true
	b := NewBurst(2)
	got := b.Next(st, nil)
	if len(got) != 1 || got[0] == 0 {
		t.Fatalf("burst chose %v with process 0 stopped", got)
	}
	for i := 0; i < 3; i++ {
		st.stopped[i] = true
	}
	if got := b.Next(st, nil); got != nil {
		t.Fatalf("burst chose %v from empty working set", got)
	}
}

func TestBurstClampsK(t *testing.T) {
	if b := NewBurst(0); b.K != 1 {
		t.Errorf("k = %d, want 1", b.K)
	}
}

func TestSchedulerNamesDistinct(t *testing.T) {
	names := map[string]bool{}
	for _, s := range []Scheduler{
		Synchronous{}, NewRoundRobin(1), NewRoundRobin(2),
		NewRandomSubset(0.5, 0), NewRandomOne(0), Alternating{},
		NewBurst(2), NewSleep(nil, 5, Synchronous{}),
	} {
		if names[s.Name()] {
			t.Errorf("duplicate scheduler name %q", s.Name())
		}
		names[s.Name()] = true
	}
}

// Waking exactly at WakeAt: the boundary step itself already includes the
// sleepers (Time() >= WakeAt), not just the steps after it.
func TestSleepWakesExactlyAtBoundary(t *testing.T) {
	st := newFakeState(3)
	s := NewSleep([]int{0}, 7, Synchronous{})
	st.time = 6
	for _, i := range s.Next(st, nil) {
		if i == 0 {
			t.Fatal("sleeper scheduled one step before WakeAt")
		}
	}
	st.time = 7
	woke := false
	for _, i := range s.Next(st, nil) {
		if i == 0 {
			woke = true
		}
	}
	if !woke {
		t.Fatal("sleeper not scheduled on the WakeAt step itself")
	}
}

// When every working process is asleep, Sleep returns an empty step (the
// engine's empty-streak logic handles the starvation); it must not leak a
// sleeper early.
func TestSleepAllAsleepYieldsEmptyStep(t *testing.T) {
	st := newFakeState(3)
	s := NewSleep([]int{0, 1, 2}, 50, Synchronous{})
	st.time = 10
	if got := s.Next(st, nil); len(got) != 0 {
		t.Fatalf("all-asleep step chose %v, want empty", got)
	}
}

// A process terminating mid-burst must not bleed its remaining budget into
// the successor: the next process gets a full fresh burst of K solo steps.
func TestBurstMidBurstTerminationResetsBudget(t *testing.T) {
	st := newFakeState(3)
	b := NewBurst(3)
	for i := 0; i < 2; i++ { // process 0 fires twice, mid-burst
		if got := b.Next(st, nil); len(got) != 1 || got[0] != 0 {
			t.Fatalf("step %d chose %v, want [0]", i, got)
		}
	}
	st.stopped[0] = true // terminates with one step of its burst unused
	var order []int
	for i := 0; i < 3; i++ {
		got := b.Next(st, nil)
		if len(got) != 1 {
			t.Fatalf("chose %v, want singleton", got)
		}
		order = append(order, got[0])
	}
	for i, want := range []int{1, 1, 1} {
		if order[i] != want {
			t.Fatalf("successor burst = %v, want [1 1 1] (full fresh burst)", order)
		}
	}
}

// With a single survivor the burst wraps around to the same process
// indefinitely instead of stalling after one burst.
func TestBurstSingleSurvivorWrapsAround(t *testing.T) {
	st := newFakeState(4)
	st.stopped[0] = true
	st.stopped[1] = true
	st.stopped[3] = true
	b := NewBurst(2)
	for i := 0; i < 7; i++ {
		got := b.Next(st, nil)
		if len(got) != 1 || got[0] != 2 {
			t.Fatalf("step %d chose %v, want [2] (sole survivor)", i, got)
		}
	}
}

// TestNextAppendsToCallerBuffer pins the append contract of every family:
// Next leaves the caller's prefix intact and appends exactly the choice it
// makes on an empty buffer (same seeds, same decision streams).
func TestNextAppendsToCallerBuffer(t *testing.T) {
	mk := []func() Scheduler{
		func() Scheduler { return Synchronous{} },
		func() Scheduler { return NewRoundRobin(2) },
		func() Scheduler { return NewRandomSubset(0.4, 3) },
		func() Scheduler { return NewRandomOne(3) },
		func() Scheduler { return Alternating{} },
		func() Scheduler { return NewBurst(2) },
		func() Scheduler { return NewSleep([]int{1}, 4, NewRoundRobin(3)) },
		func() Scheduler { return NewShardedRoundRobin(1) },
		func() Scheduler { return NewRecording(NewRandomSubset(0.5, 9)) },
		func() Scheduler { return NewReplay([][]int{{2, 0}, {}, {1}}) },
	}
	for _, m := range mk {
		fresh, prefixed := m(), m()
		st := newFakeState(6)
		st.stopped[3] = true
		for step := 1; step <= 6; step++ {
			st.time = step
			want := fresh.Next(st, nil)
			got := prefixed.Next(st, []int{7, 8})
			if len(got) != len(want)+2 || got[0] != 7 || got[1] != 8 {
				t.Fatalf("%s step %d: Next(prefix) = %v, want [7 8]+%v", fresh.Name(), step, got, want)
			}
			for i := range want {
				if got[i+2] != want[i] {
					t.Fatalf("%s step %d: Next(prefix) = %v, want [7 8]+%v", fresh.Name(), step, got, want)
				}
			}
		}
	}
}
