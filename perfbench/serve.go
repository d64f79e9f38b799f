package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"asynccycle/internal/serve"
)

// The two open-loop arrival rates, in jobs per second. At lowRate the
// server is mostly idle and per-request overhead dominates. highRate sits
// below the knee, which lies above 1200 jobs/s on a 2-CPU host: queue wait
// dominates the latency but the backlog stays bounded.
const (
	lowRate  = 100.0
	highRate = 1000.0
)

// Job kinds of the mix, as the per-kind execute metrics name them.
const (
	kindRun   = "run"   // small sim-engine run, n 24–64
	kindBig   = "big"   // big-engine run, n 2–5·10⁴
	kindCheck = "check" // exhaustive C3 check
	kindFuzz  = "fuzz"  // 4-cell schedule-fuzz campaign, no goroutine leg
)

var jobKinds = []string{kindRun, kindBig, kindCheck, kindFuzz}

// serveJob is one planned request and what the load generator saw of it.
type serveJob struct {
	due  time.Duration // when the request is due, from the schedule start
	kind string
	spec serve.JobSpec

	id       string
	sent     time.Time // POST issued
	accepted time.Time // 202 received
	received time.Time // terminal job view received
	view     serve.View
	err      error
}

// planJobs draws an open-loop schedule: Poisson arrivals at rate over the
// window, each job's kind and spec drawn from the mix. With cover set the
// first four jobs take one of each kind, so a short probe sees them all.
func planJobs(seed int64, rate float64, window time.Duration, cover bool) []*serveJob {
	rng := rand.New(rand.NewSource(seed))
	var jobs []*serveJob
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return jobs
		}
		kind := mixKind(rng.Float64())
		if cover && len(jobs) < len(jobKinds) {
			kind = jobKinds[len(jobs)]
		}
		jobs = append(jobs, &serveJob{due: due, kind: kind, spec: jobSpec(rng, kind)})
	}
}

// mixKind maps a uniform draw to the mix: 88% small runs, 4% each of big
// runs, checks and fuzz campaigns.
func mixKind(u float64) string {
	switch {
	case u < 0.88:
		return kindRun
	case u < 0.92:
		return kindBig
	case u < 0.96:
		return kindCheck
	}
	return kindFuzz
}

func jobSpec(rng *rand.Rand, kind string) serve.JobSpec {
	alg := []string{"six", "five", "fast"}[rng.Intn(3)]
	seed := rng.Int63n(1 << 31)
	switch kind {
	case kindRun:
		sched := []string{"random", "rr", "burst"}[rng.Intn(3)]
		return serve.JobSpec{Kind: serve.KindRun, Alg: alg, N: 24 + rng.Intn(41), Sched: sched, Seed: seed}
	case kindBig:
		return serve.JobSpec{Kind: serve.KindRun, Alg: alg, N: 20_000 + rng.Intn(30_001), Engine: "big", Seed: seed}
	case kindCheck:
		return serve.JobSpec{Kind: serve.KindCheck, Alg: alg, N: 3}
	}
	return serve.JobSpec{Kind: serve.KindFuzz, Alg: alg, Campaign: 4, ConcEvery: 0, Seed: seed}
}

// server is a colorserved child process.
type server struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	stderrC chan struct{} // closed when the child's stderr reaches EOF
	warm    int           // warm-up jobs submitted before the measurement
}

// startServer launches colorserved on a free loopback port with nproc
// workers and a queue deep enough that the benchmark's rates never shed,
// waits until /healthz answers, and runs one warm-up job of each kind so
// that lazy initialisation is done before anything is timed. Its
// standard error is copied to ours.
func startServer(path string, workers int) (*server, error) {
	s, err := launchServer(path, workers)
	if err != nil {
		return nil, err
	}
	g := newLoadgen(s.base, 1)
	defer g.close()
	rng := rand.New(rand.NewSource(0))
	for _, kind := range jobKinds {
		j := &serveJob{kind: kind, spec: jobSpec(rng, kind)}
		err := g.post(context.Background(), j)
		if err == nil {
			err = getJSON(context.Background(), g.fetch, s.base+"/jobs/"+j.id+"?wait=1", &j.view)
		}
		if err == nil {
			err = g.checkResult(context.Background(), j)
		}
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		s.warm++
	}
	return s, nil
}

func launchServer(path string, workers int) (*server, error) {
	if path == "" {
		return nil, errors.New("no colorserved binary (pass --colorserved)")
	}
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers),
		"-queue", "4096", "-drain-grace", "5s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stderrC: make(chan struct{})}
	addrC := make(chan string, 1)
	go func() {
		defer close(s.stderrC)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			fmt.Fprintln(os.Stderr, sc.Text())
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrC <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrC:
		s.base = "http://" + addr
	case <-s.stderrC:
		s.stop()
		return nil, errors.New("colorserved exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("colorserved did not report its address")
	}
	c := newClient()
	defer c.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err := c.Get(s.base + "/healthz"); err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("colorserved never became healthy")
		}
	}
}

// stop drains the server with SIGTERM, killing it if the drain overruns,
// and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.stderrC:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.stderrC
	}
	_ = s.cmd.Wait() // exit status is irrelevant once the run's checks are done
}

// newClient returns a client that holds at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// getJSON GETs url and decodes a 200 reply into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// loadgen drives the server from one submitting and one waiting
// connection (one shared connection on a single CPU).
type loadgen struct {
	base          string
	submit, fetch *http.Client
}

func newLoadgen(base string, nproc int) *loadgen {
	g := &loadgen{base: base, submit: newClient()}
	g.fetch = g.submit
	if nproc >= 2 {
		g.fetch = newClient()
	}
	return g
}

func (g *loadgen) close() {
	g.submit.CloseIdleConnections()
	g.fetch.CloseIdleConnections()
}

// run plays the schedule open-loop from start: each job is POSTed when
// due — immediately if the generator is late — whatever happened to the
// jobs before it. A second goroutine long-polls the accepted jobs in
// submission order until each reaches its terminal state.
func (g *loadgen) run(ctx context.Context, jobs []*serveJob, start time.Time) {
	accepted := make(chan *serveJob, len(jobs)) // sized to the number of sends
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := range accepted {
			j.err = getJSON(ctx, g.fetch, g.base+"/jobs/"+j.id+"?wait=1", &j.view)
			j.received = time.Now()
			if j.err == nil && j.view.Status != serve.StatusDone {
				j.err = fmt.Errorf("job %s: status %q after wait", j.id, j.view.Status)
			}
		}
	}()
	for _, j := range jobs {
		if d := time.Until(start.Add(j.due)); d > 0 {
			time.Sleep(d)
		}
		if ctx.Err() != nil {
			j.err = ctx.Err()
			continue
		}
		j.sent = time.Now()
		j.err = g.post(ctx, j)
		j.accepted = time.Now()
		if j.err == nil {
			accepted <- j
		}
	}
	close(accepted)
	wg.Wait()
}

// post submits one job; anything but 202 Accepted is an error.
func (g *loadgen) post(ctx context.Context, j *serveJob) error {
	body, err := json.Marshal(j.spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.submit.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /jobs (%s): %s", j.kind, resp.Status)
	}
	var v serve.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return err
	}
	j.id = v.ID
	return nil
}

// checkResult fetches a finished job's result and checks it: a run colors
// every node within its bound with every verdict ok, a check is
// exhaustive and clean, a fuzz campaign finds no violation or divergence.
func (g *loadgen) checkResult(ctx context.Context, j *serveJob) error {
	if j.view.Outcome != serve.OutcomeOK {
		return fmt.Errorf("job %s (%s): outcome %q %s", j.id, j.kind, j.view.Outcome, j.view.Error)
	}
	var res struct {
		Result json.RawMessage `json:"result"`
	}
	if err := getJSON(ctx, g.fetch, g.base+"/jobs/"+j.id+"/result", &res); err != nil {
		return err
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("job %s (%s %s): %s", j.id, j.kind, j.spec.Alg, fmt.Sprintf(format, args...))
	}
	switch j.kind {
	case kindRun, kindBig:
		var r serve.RunResult
		if err := json.Unmarshal(res.Result, &r); err != nil {
			return err
		}
		if r.Terminated != r.N || r.N != j.spec.N || r.MaxRounds > r.Bound {
			return bad("%d/%d terminated, %d rounds, bound %d", r.Terminated, r.N, r.MaxRounds, r.Bound)
		}
		for _, v := range r.Verdicts {
			if !v.OK {
				return bad("verdict %s: %s", v.Name, v.Error)
			}
		}
	case kindCheck:
		var r serve.CheckResult
		if err := json.Unmarshal(res.Result, &r); err != nil {
			return err
		}
		if len(r.Violations) > 0 || r.CycleFound || r.Truncated || r.States == 0 {
			return bad("%s", r.Summary)
		}
	case kindFuzz:
		var r serve.FuzzResult
		if err := json.Unmarshal(res.Result, &r); err != nil {
			return err
		}
		if len(r.Violations) > 0 || len(r.Divergences) > 0 || r.Schedules == 0 {
			return bad("%s", r.Summary)
		}
	}
	return nil
}

// serveRun is one load-generator pass and its checked outcome.
type serveRun struct {
	jobs  []*serveJob
	start time.Time
	stats serve.Stats
	rss   float64 // the server's peak RSS, MB
}

// latency is a job's end-to-end time: from when it was due to its
// terminal reply. A stalled server or generator shows up here, not only
// in the generator's lag.
func (r *serveRun) latency(j *serveJob) time.Duration { return j.received.Sub(r.start.Add(j.due)) }

// lag is how late the generator sent the job.
func (r *serveRun) lag(j *serveJob) time.Duration { return j.sent.Sub(r.start.Add(j.due)) }

// driveServer plays jobs against a running server, then checks every
// result and the server's counters: every accepted job ended ok, none was
// dropped, shed or rejected. Each job is one operation in the report.
func driveServer(v *env, s *server, jobs []*serveJob) (*serveRun, error) {
	g := newLoadgen(s.base, v.nproc)
	defer g.close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	r := &serveRun{jobs: jobs, start: time.Now()}
	g.run(ctx, jobs, r.start)
	for _, j := range jobs {
		if j.err == nil {
			j.err = g.checkResult(ctx, j)
		}
		v.rep.op(j.err)
	}
	if err := getJSON(ctx, g.fetch, s.base+"/stats", &r.stats); err != nil {
		return nil, err
	}
	st := r.stats
	if st.Shed != 0 || st.Rejected != 0 || st.Accepted != int64(len(jobs)+s.warm) || st.Completed != st.Accepted {
		v.rep.fail(fmt.Errorf("server stats: accepted=%d completed=%d partial=%d failed=%d shed=%d rejected=%d for %d+%d jobs",
			st.Accepted, st.Completed, st.Partial, st.Failed, st.Shed, st.Rejected, len(jobs), s.warm))
	}
	rss, err := peakRSSMB(s.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	r.rss = rss
	return r, nil
}

// runServeOpen is the serve-open-low and serve-open-high workloads: an
// out-of-process colorserved driven open-loop at a fixed rate.
func runServeOpen(v *env, rate float64) error {
	var setups []float64
	var s *server
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		var err error
		if s, err = startServer(v.colorserved, v.nproc); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.stop()
	jobs := planJobs(v.seed, rate, v.seconds, false)
	if v.trace {
		return traceServe(v, s, jobs)
	}
	r, err := driveServer(v, s, jobs)
	if err != nil {
		return err
	}
	var lat []float64
	var last time.Time
	for _, j := range jobs {
		if j.err == nil {
			lat = append(lat, r.latency(j).Seconds())
			if j.received.After(last) {
				last = j.received
			}
		}
	}
	v.rep.endToEnd(setups, r.rss, float64(len(lat)), last.Sub(r.start), lat)
	return nil
}

// traceServe is the serve traced run. The jobs due in the first half of
// the window are the untraced reference; for the rest the job views'
// created/started/finished stamps split each job into submit, queue wait,
// execute and fetch.
func traceServe(v *env, s *server, jobs []*serveJob) error {
	r, err := driveServer(v, s, jobs)
	if err != nil {
		return err
	}
	mid := v.seconds / 2
	var refLat, lat, lag, submit, queue, fetch []float64
	execute := map[string][]float64{}
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		lag = append(lag, r.lag(j).Seconds())
		if j.due < mid {
			refLat = append(refLat, r.latency(j).Seconds())
			continue
		}
		lat = append(lat, r.latency(j).Seconds())
		submit = append(submit, j.accepted.Sub(j.sent).Seconds())
		if j.view.StartedAt == nil || j.view.FinishedAt == nil {
			v.rep.fail(fmt.Errorf("job %s: view without start/finish stamps", j.id))
			continue
		}
		queue = append(queue, j.view.StartedAt.Sub(j.view.CreatedAt).Seconds())
		execute[j.kind] = append(execute[j.kind], j.view.FinishedAt.Sub(*j.view.StartedAt).Seconds())
		fetch = append(fetch, j.received.Sub(*j.view.FinishedAt).Seconds())
	}
	rep := v.rep
	rep.setDist("serve.submit_ms", submit, 1e3, "ms")
	rep.setDist("serve.queue_wait_ms", queue, 1e3, "ms")
	rep.setDist("serve.fetch_ms", fetch, 1e3, "ms")
	for _, k := range jobKinds {
		rep.setDist("serve.execute_ms."+k, execute[k], 1e3, "ms")
	}
	rep.set("serve.shed", float64(r.stats.Shed), "count")
	rep.set("serve.rejected", float64(r.stats.Rejected), "count")
	rep.set("loadgen.lag_p99_ms", summarize(lag).p99*1e3, "ms")
	rep.set("trace.overhead_share", summarize(lat).p50/summarize(refLat).p50-1, "ratio")
	return nil
}
