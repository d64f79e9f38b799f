package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"asynccycle/internal/stats"
)

// dist is a sample's median and 99th percentile together with its size,
// so every percentile is reported with the count it rests on.
type dist struct {
	n        int
	p50, p99 float64
}

func summarize(xs []float64) dist {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return dist{n: len(sorted), p50: stats.Percentile(sorted, 0.50), p99: stats.Percentile(sorted, 0.99)}
}

func median(xs []float64) float64 { return summarize(xs).p50 }

// setDist records name.p50 and name.p99 (scaled by scale) and the sample
// count as name.n.
func (r *report) setDist(name string, xs []float64, scale float64, unit string) {
	d := summarize(xs)
	r.set(name+".p50", d.p50*scale, unit)
	r.set(name+".p99", d.p99*scale, unit)
	r.set(name+".n", float64(d.n), "count")
}

// clockCost is the measured cost of one time.Now/time.Since pair, in
// nanoseconds; costSum subtracts it from every timed block so that short
// calls timed in small batches are not inflated by the clock reads.
var clockCost = measureClockCost()

func measureClockCost() float64 {
	xs := make([]float64, 4001)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return median(xs)
}

// costSum accumulates the time spent in one layer call and how many calls
// it covered.
type costSum struct {
	ns    float64
	calls int64
}

// add charges one timed block of calls (elapsed d) to the sum.
func (c *costSum) add(d time.Duration, calls int) {
	c.addNS(float64(d)-clockCost, calls)
}

func (c *costSum) addNS(ns float64, calls int) {
	c.ns += max(ns, 0)
	c.calls += int64(calls)
}

// perCall is the mean cost of one call in nanoseconds (0 with no calls).
func (c costSum) perCall() float64 {
	if c.calls == 0 {
		return 0
	}
	return c.ns / float64(c.calls)
}

// attribution is one layer's measured per-call cost and the exact number
// of times the program called it.
type attribution struct {
	perCallNS float64
	calls     int64
}

// attributedShare is Σ(per-call cost × calls) over the timed layers,
// divided by the untraced wall time of the same work: the share of the
// end-to-end time the per-layer figures account for.
func attributedShare(parts []attribution, wall time.Duration) float64 {
	var sum float64
	for _, p := range parts {
		sum += p.perCallNS * float64(p.calls)
	}
	return sum / float64(wall)
}

// overheadShare is how much slower the traced pass ran than the untraced
// one over the same work.
func overheadShare(traced, untraced time.Duration) float64 {
	return float64(traced)/float64(untraced) - 1
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB (2^20 bytes).
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts this process's VmHWM from its current RSS, so the
// peak measured afterwards excludes set-up. Where the kernel refuses, the
// peak includes set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfPeakRSSMB is peakRSSMB for this process.
func selfPeakRSSMB() (float64, error) { return peakRSSMB(os.Getpid()) }
