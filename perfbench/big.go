package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"asynccycle/internal/bigsim"
	"asynccycle/internal/ids"
	"asynccycle/internal/protocol"
	"asynccycle/internal/runctl"
)

// bigSizes are bigcurve's cycle lengths.
var bigSizes = []int{10_000, 100_000, 1_000_000}

// bigPoint is one protocol on one random-identifier cycle, with the
// engine its runs reuse.
type bigPoint struct {
	alg    string
	n      int
	idSeed int64
	xs     []int
	bound  int
	e      *bigsim.Engine
}

// bigOp is one run of a point under one driver: "rr" (batched
// round-robin), "random" (random-subset p=0.4, one Next per step) or
// "sharded" (the parallel executor at nproc workers).
type bigOp struct {
	pt        *bigPoint
	driver    string
	schedSeed int64
}

// bigRun is one op's timings and outputs.
type bigRun struct {
	reset, run, verify time.Duration
	activations        int64
	maxRounds          int
	next               costSum // random driver, traced: Sched.Next calls
}

// bigPlan derives every identifier and scheduler seed from the workload
// seed and lists the ops of one cycle: each point under each driver, with
// the sharded driver only when there are at least two CPUs.
type bigPlan struct {
	points []*bigPoint
	ops    []bigOp
}

func newBigPlan(seed int64, sizes []int, nproc int) bigPlan {
	rng := rand.New(rand.NewSource(seed))
	var p bigPlan
	for _, alg := range []string{"six", "five", "fast"} {
		for _, n := range sizes {
			p.points = append(p.points, &bigPoint{alg: alg, n: n, idSeed: rng.Int63()})
		}
	}
	drivers := []string{"rr", "random"}
	if nproc >= 2 {
		drivers = append(drivers, "sharded")
	}
	for _, pt := range p.points {
		for _, d := range drivers {
			p.ops = append(p.ops, bigOp{pt: pt, driver: d, schedSeed: rng.Int63()})
		}
	}
	return p
}

// build generates every point's identifiers and builds its engine with
// incremental checking on — bigcurve's set-up.
func (p bigPlan) build() error {
	for _, pt := range p.points {
		d, err := protocol.Lookup(pt.alg)
		if err != nil {
			return err
		}
		pt.xs = ids.MustGenerate(ids.Random, pt.n, pt.idSeed)
		k, err := d.BigKernel(pt.xs)
		if err != nil {
			return fmt.Errorf("%s n=%d: %w", pt.alg, pt.n, err)
		}
		pt.e = bigsim.New(k)
		pt.e.SetIncremental(true)
		pt.bound = d.Bound(pt.n)
	}
	return nil
}

// timedNext wraps a scheduler and times its Next calls. It is not a
// batcher, like the random-subset scheduler it wraps, so the engine's
// run loop is unchanged.
type timedNext struct {
	s    bigsim.Sched
	cost costSum
}

func (t *timedNext) Name() string { return t.s.Name() }

func (t *timedNext) Next(e *bigsim.Engine, buf []int32) []int32 {
	t0 := time.Now()
	buf = t.s.Next(e, buf)
	t.cost.add(time.Since(t0), 1)
	return buf
}

// exec resets the engine, runs it to completion under the op's driver,
// verifies the coloring with the O(n) scan, and checks that every node
// terminated within the paper's round bound.
func (op bigOp) exec(workers int, timeNext bool) (bigRun, error) {
	pt, e := op.pt, op.pt.e
	var r bigRun
	t0 := time.Now()
	if err := e.Reset(pt.xs); err != nil {
		return r, err
	}
	t1 := time.Now()
	budget := runctl.Budget{MaxSteps: 500*pt.n + 100_000}
	var reason runctl.StopReason
	var err error
	switch op.driver {
	case "rr":
		reason, err = e.RunBudget(nil, bigsim.NewRR(1), budget)
	case "random":
		s := bigsim.NewRandomSubset(0.4, op.schedSeed)
		if timeNext {
			t := &timedNext{s: s}
			reason, err = e.RunBudget(nil, t, budget)
			r.next = t.cost
		} else {
			reason, err = e.RunBudget(nil, s, budget)
		}
	case "sharded":
		reason, err = e.RunSharded(nil, workers, budget)
	}
	t2 := time.Now()
	verr := e.VerifyFull()
	r.reset, r.run, r.verify = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	sum := e.Summarize()
	r.activations, r.maxRounds = sum.Rounds, sum.MaxRounds
	what := fmt.Sprintf("%s n=%d %s", pt.alg, pt.n, op.driver)
	switch {
	case err != nil:
		return r, fmt.Errorf("%s: %w", what, err)
	case reason != runctl.StopNone:
		return r, fmt.Errorf("%s: stopped early (%s)", what, reason)
	case verr != nil:
		return r, fmt.Errorf("%s: %w", what, verr)
	case sum.Terminated != pt.n:
		return r, fmt.Errorf("%s: %d of %d nodes terminated", what, sum.Terminated, pt.n)
	case sum.MaxRounds > pt.bound:
		return r, fmt.Errorf("%s: %d rounds exceed the bound %d", what, sum.MaxRounds, pt.bound)
	}
	return r, nil
}

// bigSetup builds the plan's engines setupRepeats times and reports each build's
// time; the last build's engines are kept.
func bigSetup(p bigPlan) ([]float64, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := p.build(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	debug.FreeOSMemory()
	return setups, nil
}

// runBigCurve is the bigcurve workload: an E20-style round curve of six,
// five and fast on random-identifier cycles of 10⁴ to 10⁶ nodes with
// incremental checking on, under three drivers per point.
func runBigCurve(v *env) error {
	p := newBigPlan(v.seed, bigSizes, v.nproc)
	setups, err := bigSetup(p)
	if err != nil {
		return err
	}
	if v.trace {
		return traceBig(v, p, true)
	}
	resetPeakRSS()
	var lat []float64
	var activations float64
	var busy time.Duration
	start := time.Now()
	for time.Since(start) < v.seconds {
		for _, op := range p.ops {
			r, err := op.exec(v.nproc, false)
			v.rep.op(err)
			lat = append(lat, (r.reset + r.run + r.verify).Seconds())
			activations += float64(r.activations)
			busy += r.run
		}
	}
	rss, err := selfPeakRSSMB()
	if err != nil {
		return err
	}
	v.rep.endToEnd(setups, rss, activations, busy, lat)
	return nil
}

// traceBig is bigcurve's traced run: untraced whole cycles for half the
// window, then one traced cycle in which the random driver's Next calls
// are timed and every rr op is repeated with incremental checking off.
func traceBig(v *env, p bigPlan, own bool) error {
	untraced := make([][]float64, len(p.ops))
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < v.seconds/2; cycle++ {
		for i, op := range p.ops {
			r, err := op.exec(v.nproc, false)
			v.rep.op(err)
			untraced[i] = append(untraced[i], r.run.Seconds())
		}
	}

	type perDriver struct {
		run         time.Duration
		activations int64
	}
	drivers := map[string]*perDriver{"rr": {}, "random": {}, "sharded": {}}
	var next costSum
	var reset, verify, tracedWall, untracedWall, incOn, incOff time.Duration
	var nodes, activations int64
	var maxRatio float64
	for i, op := range p.ops {
		r, err := op.exec(v.nproc, true)
		v.rep.op(err)
		tracedWall += r.run
		untracedWall += time.Duration(median(untraced[i]) * float64(time.Second))
		d := drivers[op.driver]
		d.run += r.run
		d.activations += r.activations
		next.addNS(r.next.ns, int(r.next.calls))
		reset += r.reset
		verify += r.verify
		nodes += int64(op.pt.n)
		activations += r.activations
		maxRatio = max(maxRatio, float64(r.maxRounds)/float64(op.pt.bound))
		if op.driver == "rr" {
			// Paired runs with incremental checking on and off, alternating
			// which side runs first.
			for _, inc := range []bool{i%2 == 0, i%2 != 0} {
				op.pt.e.SetIncremental(inc)
				pr, err := op.exec(v.nproc, false)
				v.rep.op(err)
				if inc {
					incOn += pr.run
				} else {
					incOff += pr.run
				}
			}
			op.pt.e.SetIncremental(true)
		}
	}

	perAct := func(d *perDriver) float64 { return float64(d.run) / float64(d.activations) }
	r := v.rep
	rnd := drivers["random"]
	r.set("bigsim.next_ns_per_step", next.perCall(), "ns")
	r.set("bigsim.step_ns_per_activation", (float64(rnd.run)-next.ns)/float64(rnd.activations), "ns")
	r.set("bigsim.rr_ns_per_activation", perAct(drivers["rr"]), "ns")
	if v.nproc >= 2 {
		r.set("bigsim.sharded_ns_per_activation", perAct(drivers["sharded"]), "ns")
		r.set("bigsim.shard_speedup", perAct(drivers["rr"])/perAct(drivers["sharded"]), "ratio")
	}
	r.set("bigsim.incremental_check_share", float64(incOn-incOff)/float64(incOn), "ratio")
	r.set("bigsim.verify_ns_per_node", float64(verify)/float64(nodes), "ns")
	r.set("bigsim.reset_ns_per_node", float64(reset)/float64(nodes), "ns")
	r.set("bigsim.activations", float64(activations), "count")
	r.set("bigsim.max_rounds_over_bound", maxRatio, "ratio")
	if own {
		r.set("trace.overhead_share", overheadShare(tracedWall, untracedWall), "ratio")
	}
	return nil
}
