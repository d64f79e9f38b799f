package decoupled_test

import (
	"errors"
	"testing"
	"testing/quick"

	"asynccycle/internal/decoupled"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

func properCycle(t *testing.T, res sim.Result, maxColor int) {
	t.Helper()
	n := len(res.Outputs)
	for i := 0; i < n; i++ {
		if !res.Done[i] {
			continue
		}
		if res.Outputs[i] < 0 || res.Outputs[i] > maxColor {
			t.Errorf("node %d: color %d outside {0..%d}", i, res.Outputs[i], maxColor)
		}
		j := (i + 1) % n
		if res.Done[j] && res.Outputs[i] == res.Outputs[j] {
			t.Errorf("adjacent nodes %d,%d share color %d", i, j, res.Outputs[i])
		}
	}
}

func TestEngineValidates(t *testing.T) {
	g := graph.MustCycle(3)
	if _, err := decoupled.NewEngine[int](g, make([]decoupled.Proc[int], 2)); err == nil {
		t.Fatal("accepted wrong proc count")
	}
}

func TestThreeColorSynchronousStart(t *testing.T) {
	for _, n := range []int{3, 4, 5, 16, 64} {
		g := graph.MustCycle(n)
		xs := ids.MustGenerate(ids.Random, n, int64(n))
		e, err := decoupled.NewEngine(g, decoupled.NewThreeColorNodes(xs))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(schedule.Synchronous{}, 100*n+1000)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.TerminatedCount() != n {
			t.Fatalf("n=%d: %d/%d decided", n, res.TerminatedCount(), n)
		}
		properCycle(t, res, 2)
	}
}

func TestThreeColorAsynchronousSchedules(t *testing.T) {
	n := 24
	g := graph.MustCycle(n)
	xs := ids.MustGenerate(ids.Increasing, n, 0)
	for _, s := range []schedule.Scheduler{
		schedule.NewRoundRobin(1),
		schedule.NewRandomSubset(0.3, 5),
		schedule.NewRandomOne(6),
		schedule.Alternating{},
		schedule.NewBurst(3),
	} {
		e, _ := decoupled.NewEngine(g, decoupled.NewThreeColorNodes(xs))
		res, err := e.Run(s, 1000*n)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.TerminatedCount() != n {
			t.Fatalf("%s: %d/%d decided", s.Name(), res.TerminatedCount(), n)
		}
		properCycle(t, res, 2)
	}
}

func TestThreeColorLateWakers(t *testing.T) {
	// Half the ring sleeps for 50 network rounds while the other half
	// commits; the late wakers then defer to the committed colors.
	n := 16
	g := graph.MustCycle(n)
	xs := ids.MustGenerate(ids.Random, n, 1)
	var sleepers []int
	for i := 0; i < n; i += 2 {
		sleepers = append(sleepers, i)
	}
	e, _ := decoupled.NewEngine(g, decoupled.NewThreeColorNodes(xs))
	res, err := e.Run(schedule.NewSleep(sleepers, 50, schedule.Synchronous{}), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.TerminatedCount() != n {
		t.Fatalf("%d/%d decided", res.TerminatedCount(), n)
	}
	properCycle(t, res, 2)
}

func TestThreeColorInitialCrashes(t *testing.T) {
	// Never-wake crashes: survivors still 3-color their induced subgraph,
	// wait-free — the separation claim of E14 (the state model needs 5
	// colors under the same adversary class).
	n := 20
	g := graph.MustCycle(n)
	xs := ids.MustGenerate(ids.Random, n, 2)
	e, _ := decoupled.NewEngine(g, decoupled.NewThreeColorNodes(xs))
	for i := 0; i < n; i += 4 {
		e.CrashAfter(i, 0) // never wakes
	}
	res, err := e.Run(schedule.NewRandomSubset(0.5, 9), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			if res.Done[i] {
				t.Errorf("crashed-at-birth node %d decided", i)
			}
			continue
		}
		if !res.Done[i] {
			t.Errorf("survivor %d did not decide", i)
		}
	}
	properCycle(t, res, 2)
}

func TestThreeColorCommittedCrash(t *testing.T) {
	// A process that commits and then "crashes" is harmless: the layer
	// keeps relaying its committed color. Model it by crashing nodes right
	// after a generous step budget under the synchronous schedule (every
	// node commits within its first 3 steps).
	n := 12
	g := graph.MustCycle(n)
	xs := ids.MustGenerate(ids.Random, n, 4)
	e, _ := decoupled.NewEngine(g, decoupled.NewThreeColorNodes(xs))
	for i := 0; i < n; i++ {
		e.CrashAfter(i, 6)
	}
	res, err := e.Run(schedule.Synchronous{}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.TerminatedCount() != n {
		t.Fatalf("%d/%d decided", res.TerminatedCount(), n)
	}
	properCycle(t, res, 2)
}

func TestThreeColorMidProtocolCrashLimitation(t *testing.T) {
	// The documented limitation: a process that wakes and crashes before
	// committing blocks its lower-priority neighbors. This is precisely
	// the gap [13] closes; the test pins the limitation so a future
	// implementation of [13]'s algorithm would flip it.
	g := graph.MustCycle(3)
	// Node 0 has the highest priority (largest id, all wake together) and
	// crashes after its first step, before it can commit at wake+2.
	e, _ := decoupled.NewEngine(g, decoupled.NewThreeColorNodes([]int{99, 5, 1}))
	e.CrashAfter(0, 1)
	res, err := e.Run(schedule.Synchronous{}, 200)
	if err == nil {
		for i := 1; i <= 2; i++ {
			if res.Done[i] {
				t.Errorf("node %d decided despite a blocked priority chain", i)
			}
		}
	}
	// err != nil (step limit) is also an acceptable manifestation.
	_ = err
}

func TestRunStepLimit(t *testing.T) {
	g := graph.MustCycle(3)
	e, _ := decoupled.NewEngine(g, decoupled.NewThreeColorNodes([]int{99, 5, 1}))
	e.CrashAfter(0, 1) // blocks the others forever
	_, err := e.Run(schedule.Synchronous{}, 50)
	if err != nil && !errors.Is(err, decoupled.ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit or graceful crash-out", err)
	}
}

// TestThreeColorQuick: random sizes, seeds, and initial-crash patterns
// always yield proper partial 3-colorings.
func TestThreeColorQuick(t *testing.T) {
	prop := func(seed int64, rawN uint8, crashMask uint16) bool {
		n := 3 + int(rawN)%20
		g := graph.MustCycle(n)
		xs := ids.RandomIDs(n, seed)
		e, err := decoupled.NewEngine(g, decoupled.NewThreeColorNodes(xs))
		if err != nil {
			return false
		}
		for i := 0; i < n && i < 16; i++ {
			if crashMask&(1<<i) != 0 {
				e.CrashAfter(i, 0)
			}
		}
		res, err := e.Run(schedule.NewRandomSubset(0.4, seed), 100_000)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if !res.Done[i] {
				if !res.Crashed[i] {
					return false
				}
				continue
			}
			if res.Outputs[i] < 0 || res.Outputs[i] > 2 {
				return false
			}
			j := (i + 1) % n
			if res.Done[j] && res.Outputs[i] == res.Outputs[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFingerprintHashMatchesFingerprint explores decoupled-three on C3
// under every activation set to depth 6 (the tick is part of the state,
// so level d holds exactly the states reachable in d ticks), from a plain
// start and from one with crash limits armed, and checks that the
// checker's word-wise key and the exact string Fingerprint split the
// reachable states into the same classes.
func TestFingerprintHashMatchesFingerprint(t *testing.T) {
	type key struct{ a, b uint64 }
	for _, crash := range []bool{false, true} {
		root, err := decoupled.NewEngine(graph.MustCycle(3), decoupled.NewThreeColorNodes([]int{1, 2, 3}))
		if err != nil {
			t.Fatal(err)
		}
		if crash {
			root.CrashAfter(1, 2)
		}
		byFP := map[string]key{}
		byKey := map[key]string{}
		level := []*decoupled.Engine[decoupled.ThreeColorVal]{root}
		for depth := 0; len(level) > 0; depth++ {
			var next []*decoupled.Engine[decoupled.ThreeColorVal]
			for _, e := range level {
				fp := e.Fingerprint()
				a, b := e.FingerprintHash128()
				k := key{a, b}
				if prev, seen := byFP[fp]; seen {
					if prev != k {
						t.Fatalf("crash=%t: one fingerprint, two keys:\n%s", crash, fp)
					}
					continue
				}
				if prev, seen := byKey[k]; seen {
					t.Fatalf("crash=%t: one key, two fingerprints:\n%s\n%s", crash, prev, fp)
				}
				byFP[fp], byKey[k] = k, fp
				if depth == 6 || e.AllDone() {
					continue
				}
				working := e.AppendWorking(nil)
				for mask := 1; mask < 1<<len(working); mask++ {
					var active []int
					for i, p := range working {
						if mask&(1<<i) != 0 {
							active = append(active, p)
						}
					}
					c := e.Clone()
					c.Tick(active)
					next = append(next, c)
				}
			}
			level = next
		}
		if want := map[bool]int{false: 3899, true: 3038}[crash]; len(byFP) != want {
			t.Errorf("crash=%t: %d states, want %d", crash, len(byFP), want)
		}
	}
}
