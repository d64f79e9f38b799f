package fuzzsched

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"asynccycle/internal/check"
	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/metrics"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

func TestCampaignUnknownAlg(t *testing.T) {
	if _, err := Campaign(context.Background(), Config{Alg: "nope"}); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
}

// TestGenDeterministic: the generator is a pure function of its rng — two
// identically seeded generators driving identical engines record identical
// schedules.
func TestGenDeterministic(t *testing.T) {
	record := func() [][]int {
		g := graph.MustCycle(7)
		xs := []int{3, 9, 1, 12, 6, 0, 8}
		e := newTypedEngine(g, core.NewFiveNodes(xs), sim.ModeInterleaved, nil)
		rec := schedule.NewRecording(newGen(rand.New(rand.NewSource(99)), registeredBound(t, "five", 7)))
		for t := 0; !e.AllSettled() && t < 10_000; t++ {
			e.Step(rec.Next(e, nil))
		}
		return rec.Steps()
	}
	a, b := record(), record()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identically seeded generators recorded different schedules")
	}
	if len(a) == 0 {
		t.Fatal("empty schedule recorded")
	}
}

// TestGenNeverEmptyWhileWorking: the generator never wastes a step on an
// empty activation set while some process is working.
func TestGenNeverEmptyWhileWorking(t *testing.T) {
	g := graph.MustCycle(9)
	xs := rand.New(rand.NewSource(4)).Perm(36)[:9]
	e := newTypedEngine(g, core.NewFastNodes(xs), sim.ModeInterleaved, nil)
	gen := newGen(rand.New(rand.NewSource(4)), registeredBound(t, "fast", 9))
	for t2 := 0; !e.AllSettled() && t2 < 5_000; t2++ {
		set := gen.Next(e, nil)
		if len(set) == 0 {
			t.Fatalf("empty activation set at step %d with working processes", t2)
		}
		e.Step(set)
	}
}

// TestCampaignReproducible is the byte-reproducibility contract: a fixed
// seed yields an identical report at every worker count.
func TestCampaignReproducible(t *testing.T) {
	cfg := Config{Alg: "five", Mode: sim.ModeInterleaved, Seed: 42, Campaign: 96, ConcEvery: 0}
	render := func(workers int) (Report, string) {
		c := cfg
		c.Workers = workers
		rep, err := Campaign(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		rep.Write(&b)
		return rep, b.String()
	}
	rep1, out1 := render(1)
	_, out4 := render(4)
	_, out8 := render(8)
	if out1 != out4 || out1 != out8 {
		t.Fatalf("report differs across worker counts:\n-- 1 --\n%s\n-- 4 --\n%s\n-- 8 --\n%s", out1, out4, out8)
	}
	if rep1.Schedules != cfg.Campaign {
		t.Fatalf("schedules = %d, want %d", rep1.Schedules, cfg.Campaign)
	}
}

// TestCampaignDifferentialC3C5 is the cross-engine differential oracle on
// small cycles: for every algorithm and n ∈ {3,4,5}, a campaign comparing
// the interleaved engine, the replay path, the clone-per-step
// (model-checker) path, the simultaneous-mode safety check, and the
// sampled real-concurrency runtime must report zero violations and zero
// divergences.
func TestCampaignDifferentialC3C5(t *testing.T) {
	for _, alg := range []string{"six", "five", "fast"} {
		for n := 3; n <= 5; n++ {
			rep, err := Campaign(context.Background(), Config{
				Alg: alg, N: n, Mode: sim.ModeInterleaved,
				Seed: 7, Campaign: 48, ConcEvery: 12,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Errorf("%s C%d: %d violations, want 0; first: %s", alg, n, len(rep.Violations), rep.Violations[0])
			}
			if len(rep.Divergences) != 0 {
				t.Errorf("%s C%d: %d divergences, want 0; first: %s", alg, n, len(rep.Divergences), rep.Divergences[0])
			}
			if rep.Schedules != 48 || rep.ConcRuns == 0 || rep.StatesSeen == 0 {
				t.Errorf("%s C%d: incomplete campaign: %s", alg, n, rep)
			}
		}
	}
}

// TestCampaignRediscoversF1Livelock is the built-in regression required of
// the fuzzer: at the paper-literal simultaneous semantics it must
// rediscover the Algorithm 2 livelock on C5 (finding F1) from a pinned
// seed and shrink it to a witness no longer than the recorded lockstep
// witness of TestF1LivelockWitness (which runs to the 5000-step limit).
func TestCampaignRediscoversF1Livelock(t *testing.T) {
	met := metrics.NewRun()
	rep, err := Campaign(context.Background(), Config{
		Alg: "five", N: 5, Mode: sim.ModeSimultaneous,
		Seed: 5, Campaign: 64, Workers: 2, Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) != 0 {
		t.Fatalf("divergences on C5: %v", rep.Divergences)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("fuzzer failed to rediscover the F1 livelock at seed 5")
	}
	v := rep.Violations[0]
	if v.Kind != "liveness" {
		t.Fatalf("violation kind = %q, want liveness: %s", v.Kind, v)
	}

	// Record the original F1 witness: odd-first two-phase lockstep on C5
	// runs Algorithm 2 into the step limit under simultaneous semantics.
	ids := []int{0, 1, 2, 3, 4}
	g := graph.MustCycle(5)
	eF1 := newTypedEngine(g, core.NewFiveNodes(ids), sim.ModeSimultaneous, nil)
	recF1 := schedule.NewRecording(schedule.NewSleep([]int{0, 2, 4}, 2, schedule.Alternating{}))
	if _, err := eF1.Run(recF1, 5_000); !errors.Is(err, sim.ErrStepLimit) {
		t.Fatalf("F1 witness setup: err = %v, want ErrStepLimit", err)
	}
	recorded := len(recF1.Steps())
	if v.WitnessLen > recorded {
		t.Errorf("shrunk witness has %d steps, recorded F1 witness only %d", v.WitnessLen, recorded)
	}
	if v.WitnessLen > v.OriginalLen {
		t.Errorf("shrinking grew the witness: %d → %d", v.OriginalLen, v.WitnessLen)
	}

	// The shrunk witness must replay to a bound breach through the public
	// replay path (Marshal → Unmarshal → Replay).
	data := []byte(v.WitnessJSON)
	steps, err := schedule.UnmarshalSteps(data)
	if err != nil {
		t.Fatal(err)
	}
	e := newTypedEngine(graph.MustCycle(v.N), core.NewFiveNodes(v.IDs), sim.ModeSimultaneous, v.Crashes)
	res := playSteps(sim.InstanceOf(e), steps)
	if err := check.ActivationBound(res, registeredBound(t, "five", v.N)); err == nil {
		t.Fatal("shrunk witness does not reproduce the bound breach")
	}

	// Campaign counters made it into the metrics sink.
	snap := met.Snapshot()
	if snap.Schedules != int64(rep.Schedules) || snap.ShrinkIters != rep.ShrinkIters || snap.ShrinkIters == 0 {
		t.Errorf("metrics: schedules=%d shrink=%d, want %d/%d", snap.Schedules, snap.ShrinkIters, rep.Schedules, rep.ShrinkIters)
	}
}

// TestCampaignPartialOnTimeout: a tripped wall-clock budget yields a
// report explicitly marked PARTIAL, never a silent truncation.
func TestCampaignPartialOnTimeout(t *testing.T) {
	rep, err := Campaign(context.Background(), Config{
		Alg: "five", Mode: sim.ModeInterleaved, Seed: 3, Campaign: 50_000, Workers: 2,
		Budget: runctl.Budget{Timeout: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Skip("campaign finished inside the timeout; nothing to assert")
	}
	if rep.StopReason != runctl.StopTimeout {
		t.Errorf("stop reason = %q, want timeout", rep.StopReason)
	}
	if !strings.Contains(rep.String(), "[PARTIAL: timeout]") {
		t.Errorf("summary lacks the [PARTIAL: timeout] marker: %s", rep.String())
	}
	var b bytes.Buffer
	rep.Write(&b)
	if !strings.Contains(b.String(), "PARTIAL (timeout)") {
		t.Errorf("report lacks the PARTIAL line:\n%s", b.String())
	}
	if rep.Schedules >= rep.Campaign {
		t.Errorf("partial report claims all %d cells completed", rep.Campaign)
	}
}

// TestCampaignCancelled: caller cancellation is reported as such.
func TestCampaignCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Campaign(ctx, Config{Alg: "six", Mode: sim.ModeInterleaved, Seed: 1, Campaign: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial || rep.StopReason != runctl.StopCancelled {
		t.Fatalf("cancelled campaign: partial=%v reason=%q", rep.Partial, rep.StopReason)
	}
}
