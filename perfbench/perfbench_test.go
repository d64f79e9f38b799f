package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"asynccycle/internal/ooc"
	"asynccycle/internal/serve"
)

// fakeServer answers the job API the load generator uses. The first POST
// stalls for stall; every job is reported done as soon as it is fetched.
func fakeServer(t *testing.T, stall time.Duration) *httptest.Server {
	var mu sync.Mutex
	seq := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seq++
		id := fmt.Sprintf("j%06d", seq)
		mu.Unlock()
		if id == "j000001" {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.View{ID: id, Status: serve.StatusQueued, CreatedAt: time.Now()})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		json.NewEncoder(w).Encode(serve.View{ID: r.PathValue("id"), Status: serve.StatusDone,
			Outcome: serve.OutcomeOK, CreatedAt: now, StartedAt: &now, FinishedAt: &now})
	})
	s := httptest.NewServer(mux)
	t.Cleanup(s.Close)
	return s
}

// A stalled server delays every request due during the stall. Timing from
// the due time charges that delay to the late jobs' latency as well as to
// the generator's lag; timing from the send would hide it.
func TestLatencyTimedFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	s := fakeServer(t, stall)
	var jobs []*serveJob
	for i := 0; i < 5; i++ {
		jobs = append(jobs, &serveJob{due: time.Duration(i) * 10 * time.Millisecond, kind: kindRun,
			spec: serve.JobSpec{Kind: serve.KindRun, Alg: "six"}})
	}
	g := newLoadgen(s.URL, 2)
	defer g.close()
	r := &serveRun{jobs: jobs, start: time.Now()}
	g.run(context.Background(), jobs, r.start)
	for i, j := range jobs {
		if j.err != nil {
			t.Fatalf("job %d: %v", i, j.err)
		}
		lag, lat := r.lag(j), r.latency(j)
		if lat < lag {
			t.Errorf("job %d: latency %v below lag %v", i, lat, lag)
		}
		if i == 0 {
			if lag > stall/2 || lat < stall {
				t.Errorf("stalled job: lag %v latency %v, want small lag and latency ≥ %v", lag, lat, stall)
			}
			continue
		}
		// Jobs due during the stall wait for it: they show up as lag and
		// as latency, although their own requests were fast.
		if min := stall - j.due - 20*time.Millisecond; lag < min || lat < min {
			t.Errorf("job %d due %v: lag %v latency %v, want both ≥ %v", i, j.due, lag, lat, min)
		}
		if own := j.received.Sub(j.sent); own > stall/2 {
			t.Errorf("job %d: own round trips took %v", i, own)
		}
	}
}

func TestPercentilesCarryCounts(t *testing.T) {
	xs := make([]float64, 0, 200)
	for i := 200; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	d := summarize(xs)
	if d.n != 200 || d.p50 != 100.5 || math.Abs(d.p99-198.01) > 1e-9 {
		t.Fatalf("summarize = %+v, want n=200 p50=100.5 p99=198.01", d)
	}
	if xs[0] != 200 {
		t.Fatal("summarize reordered its input")
	}
	r := newReport()
	r.setDist("x_ms", []float64{0.001, 0.003, 0.002}, 1e3, "ms")
	want := map[string]metric{"x_ms.p50": {2, "ms"}, "x_ms.n": {3, "count"}}
	for name, m := range want {
		if got := r.metrics[name]; math.Abs(got.Value-m.Value) > 1e-9 || got.Unit != m.Unit {
			t.Errorf("%s = %+v, want %+v", name, got, m)
		}
	}
	if got := r.metrics["x_ms.p99"].Value; got < 2.9 || got > 3 {
		t.Errorf("x_ms.p99 = %v, want within [2.9, 3]", got)
	}
}

func TestAttributedShare(t *testing.T) {
	parts := []attribution{{perCallNS: 100, calls: 10}, {perCallNS: 50, calls: 20}, {perCallNS: 7, calls: 0}}
	if got := attributedShare(parts, 4*time.Microsecond); got != 0.5 {
		t.Fatalf("attributedShare = %v, want (100·10 + 50·20) / 4000 = 0.5", got)
	}
	var c costSum
	c.addNS(300, 3)
	c.addNS(-50, 1) // a block faster than the clock reads counts as free
	if c.perCall() != 75 || c.calls != 4 {
		t.Fatalf("costSum = %+v, perCall %v; want 300 ns over 4 calls", c, c.perCall())
	}
	c.add(time.Duration(clockCost)+1000, 2)
	if math.Abs(c.ns-1300) > 1e-6 {
		t.Fatalf("add did not subtract the clock cost: ns = %v, want 1300", c.ns)
	}
	if got := overheadShare(3*time.Second, 2*time.Second); got != 0.5 {
		t.Fatalf("overheadShare = %v, want 0.5", got)
	}
}

// The probe replay must interleave probes and descents as the DFS does.
// Graph: R → A, B; A → B, C; C → B. The DFS enters R, A, B, C, then B
// again from C and from R.
func TestProbeOrder(t *testing.T) {
	key := func(c byte) ooc.Key { return ooc.Key{H1: uint64(c)} }
	run := streamRun{
		root:   key('R'),
		counts: []int32{2, 2, 0, 1}, // R, A, B, C in the hook's order
		kids:   []ooc.Key{key('A'), key('B'), key('B'), key('C'), key('B')},
	}
	probes, states := run.probeOrder()
	var got strings.Builder
	for _, k := range probes {
		got.WriteByte(byte(k.H1))
	}
	if got.String() != "RABCBB" || states != 4 {
		t.Fatalf("probe order %s (%d states), want RABCBB (4 states)", got.String(), states)
	}
}

func TestPlanJobsIsSeeded(t *testing.T) {
	a := planJobs(7, 200, time.Second, true)
	b := planJobs(7, 200, time.Second, true)
	if len(a) < 100 || len(a) != len(b) {
		t.Fatalf("plans of %d and %d jobs", len(a), len(b))
	}
	for i := range a {
		if a[i].due != b[i].due || a[i].spec != b[i].spec {
			t.Fatalf("job %d differs between equal seeds", i)
		}
		if i < len(jobKinds) && a[i].kind != jobKinds[i] {
			t.Fatalf("covering plan starts with %s at %d", a[i].kind, i)
		}
	}
	if c := planJobs(8, 200, time.Second, true); c[0].due == a[0].due {
		t.Fatal("different seeds gave the same schedule")
	}
}
