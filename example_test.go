package asynccycle_test

import (
	"errors"
	"fmt"

	"asynccycle"
)

// The paper's headline algorithm: wait-free 5-coloring in O(log* n)
// rounds. With a nil Config the execution is synchronous and
// deterministic.
func ExampleFastColorCycle() {
	ids := []int{1, 2, 3, 4, 5, 6} // unique identifiers around the cycle
	res, err := asynccycle.FastColorCycle(ids, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("colors:", res.Outputs)
	fmt.Println("max rounds:", res.MaxActivations())
	// Output:
	// colors: [0 1 2 3 1 2]
	// max rounds: 6
}

// Crash tolerance: process 0 never wakes, yet every survivor terminates
// and the outputs properly color the surviving subgraph.
func ExampleFiveColorCycle_crash() {
	ids := []int{1, 2, 3, 4, 5, 6}
	res, err := asynccycle.FiveColorCycle(ids, &asynccycle.Config{
		Scheduler:  asynccycle.RoundRobin(1),
		CrashAfter: map[int]int{0: 0}, // 0 rounds: crashed at birth
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("survivor outputs:", res.Outputs[1:])
	fmt.Println("crashed process terminated:", res.Done[0])
	if err := asynccycle.VerifyCycleColoring(len(ids), res); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("coloring verified")
	// Output:
	// survivor outputs: [0 1 2 3 0]
	// crashed process terminated: false
	// coloring verified
}

// Algorithm 1 outputs color *pairs* (a, b) with a+b ≤ 2 — six colors.
func ExampleSixColorCycle() {
	ids := []int{1, 2, 3, 4, 5, 6}
	res, err := asynccycle.SixColorCycle(ids, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, out := range res.Outputs {
		a, b := asynccycle.DecodePairColor(out)
		fmt.Printf("(%d,%d) ", a, b)
	}
	fmt.Println()
	// Output:
	// (0,0) (0,1) (1,0) (1,1) (1,0) (0,2)
}

// Algorithm 4 colors arbitrary graphs with the O(Δ²) pair palette; here a
// small graph of maximum degree 3.
func ExampleColorGraph() {
	adj := [][]int{{1, 2}, {0, 2}, {0, 1, 3}, {2}}
	res, err := asynccycle.ColorGraph(adj, []int{10, 20, 30, 40}, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, out := range res.Outputs {
		a, b := asynccycle.DecodePairColor(out)
		fmt.Printf("(%d,%d) ", a, b)
	}
	fmt.Println()
	// Output:
	// (0,0) (0,1) (1,2) (0,0)
}

// soloRunner is a custom adversary: it always activates the working
// process that has taken the most rounds (the lowest index on ties), so
// each process runs solo until it returns while the others wait.
type soloRunner struct{}

func (soloRunner) Name() string { return "solo-runner" }

func (soloRunner) Next(st asynccycle.State, buf []int) []int {
	start := len(buf)
	buf = st.AppendWorking(buf)
	if len(buf) == start {
		return buf
	}
	best := buf[start]
	for _, i := range buf[start+1:] {
		if st.Activations(i) > st.Activations(best) {
			best = i
		}
	}
	return append(buf[:start], best)
}

// A custom adversary plugs into every run through Config.Scheduler. Under
// soloRunner each process runs alone until it returns, so the round count
// of each is its solo running time; wait-freedom promises that every
// process returns however long the others have been stopped.
func ExampleScheduler() {
	ids := []int{1, 2, 3, 4, 5, 6}
	res, err := asynccycle.FastColorCycle(ids, &asynccycle.Config{Scheduler: soloRunner{}})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("colors:", res.Outputs)
	fmt.Println("rounds:", res.Activations)
	fmt.Println("proper:", asynccycle.VerifyCycleColoring(len(ids), res) == nil)
	// Output:
	// colors: [0 1 2 1 2 1]
	// rounds: [1 2 2 2 2 2]
	// proper: true
}

// Record an execution's schedule, serialize it, and replay it exactly —
// useful for pinning adversarial executions in regression tests.
func ExampleRecord() {
	ids := []int{1, 2, 3, 4, 5, 6}
	rec := asynccycle.Record(asynccycle.RandomSubset(0.5, 7))
	res1, err := asynccycle.FastColorCycle(ids, &asynccycle.Config{Scheduler: rec})
	if err != nil {
		fmt.Println(err)
		return
	}
	data, err := asynccycle.MarshalSchedule(rec.Steps())
	if err != nil {
		fmt.Println(err)
		return
	}
	steps, err := asynccycle.UnmarshalSchedule(data)
	if err != nil {
		fmt.Println(err)
		return
	}
	res2, err := asynccycle.FastColorCycle(ids, &asynccycle.Config{Scheduler: asynccycle.Replay(steps)})
	if err != nil {
		fmt.Println(err)
		return
	}
	same := true
	for i := range res1.Outputs {
		if res1.Outputs[i] != res2.Outputs[i] {
			same = false
		}
	}
	fmt.Println("replay identical:", same)
	// Output:
	// replay identical: true
}

// The paper's core quantitative claim, head to head: on the worst-case
// input (identifiers increasing around the cycle, one monotone chain of
// length n−1) Algorithm 2 needs Θ(n) rounds per process while
// Algorithm 3's Cole–Vishkin identifier reduction needs O(log* n).
func ExampleFastColorCycle_adversary() {
	for _, n := range []int{16, 64, 256, 1024} {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i + 1
		}
		res2, err := asynccycle.FiveColorCycle(ids, nil)
		if err != nil {
			fmt.Println(err)
			return
		}
		res3, err := asynccycle.FastColorCycle(ids, nil)
		if err != nil {
			fmt.Println(err)
			return
		}
		for _, res := range []asynccycle.Result{res2, res3} {
			if err := asynccycle.VerifyCycleColoring(n, res); err != nil {
				fmt.Println(err)
				return
			}
		}
		fmt.Printf("n=%-5d alg2 rounds=%-5d alg3 rounds=%d\n", n, res2.MaxActivations(), res3.MaxActivations())
	}
	// Output:
	// n=16    alg2 rounds=11    alg3 rounds=8
	// n=64    alg2 rounds=43    alg3 rounds=8
	// n=256   alg2 rounds=171   alg3 rounds=8
	// n=1024  alg2 rounds=683   alg3 rounds=8
}

// Finding F1: under the paper-literal simultaneous semantics ("all write,
// then all read") Algorithm 2 livelocks on C5. The two-phase lockstep
// schedule wakes the odd-index processes first; they terminate with color
// 0 frozen in their registers, and then the adjacent pair {0, 4}, always
// activated together, chase each other's colors forever. Under interleaved
// semantics the same schedule terminates, as Theorem 3.11 states.
func ExampleFiveColorCycle_lockstep() {
	ids := []int{1, 2, 3, 4, 5}
	oddFirst := func() asynccycle.Scheduler {
		return asynccycle.Sleep([]int{0, 2, 4}, 2, asynccycle.Alternating())
	}
	_, err := asynccycle.FiveColorCycle(ids, &asynccycle.Config{
		Scheduler: oddFirst(),
		Mode:      asynccycle.ModeSimultaneous,
		MaxSteps:  10_000,
	})
	fmt.Println("simultaneous livelocks:", errors.Is(err, asynccycle.ErrStepLimit))
	res, err := asynccycle.FiveColorCycle(ids, &asynccycle.Config{
		Scheduler: oddFirst(),
		Mode:      asynccycle.ModeInterleaved,
		MaxSteps:  10_000,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("interleaved: %d steps, colors %v\n", res.Steps, res.Outputs)
	// Output:
	// simultaneous livelocks: true
	// interleaved: 5 steps, colors [1 0 1 0 2]
}

// The same algorithm on real goroutines: one per process, single-writer
// registers, and asynchrony from the Go scheduler plus injected jitter,
// with a third of the processes crashing mid-protocol. The interleaving
// differs run to run; the guarantees do not.
func ExampleFastColorCycleConcurrent() {
	const n = 60
	crashes := make(map[int]int)
	for i := 0; i < n; i += 3 {
		crashes[i] = i % 5 // 0 = never wakes
	}
	res, err := asynccycle.FastColorCycleConcurrent(asynccycle.GenerateIDs(n, 1), &asynccycle.ConcurrentConfig{
		CrashAfter: crashes,
		Jitter:     20_000, // up to 20µs between rounds
		Seed:       7,
		Yield:      true,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("survivors terminated:", asynccycle.VerifySurvivorsTerminated(res) == nil)
	fmt.Println("proper coloring:", asynccycle.VerifyCycleColoring(n, res) == nil)
	fmt.Println("palette {0..4}:", asynccycle.VerifyPalette(res, 5) == nil)
	// Output:
	// survivors terminated: true
	// proper coloring: true
	// palette {0..4}: true
}
