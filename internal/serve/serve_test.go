package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"asynccycle/internal/contract"
	"asynccycle/internal/graph"
	"asynccycle/internal/metrics"
	"asynccycle/internal/protocol"
	"asynccycle/internal/runctl"
	"asynccycle/internal/serve"
	"asynccycle/internal/sim"
)

// The "block" test protocol runs until its context is cancelled — a
// deterministic way to occupy a worker for overflow and drain tests
// without sleeping for timing slack.
func init() {
	protocol.MustRegister(&protocol.Descriptor{
		Name:         "block",
		Problem:      "test protocol: blocks until cancelled",
		TopologyName: "cycle",
		MinN:         3,
		Palette:      "{0}",
		Topology:     graph.Cycle,
		Contract:     &contract.Terminating{Name: "none", Bare: true},
		Run: func(xs []int, o protocol.RunOptions) (sim.Result, runctl.StopReason, error) {
			n := len(xs)
			res := sim.Result{
				Outputs: make([]int, n),
				Done:    make([]bool, n),
				Crashed: make([]bool, n),
			}
			if o.Context != nil {
				<-o.Context.Done()
				return res, runctl.StopCancelled, nil
			}
			return res, runctl.StopNone, nil
		},
	})
}

func newTestServer(t *testing.T, opt serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, spec string) (*http.Response, serve.View) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var v serve.View
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
	}
	resp.Body.Close()
	return resp, v
}

func waitJob(t *testing.T, ts *httptest.Server, id string) serve.View {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v serve.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func getResult(t *testing.T, ts *httptest.Server, id string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("result %s: status %d: %s", id, resp.StatusCode, buf.String())
	}
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func field(t *testing.T, m map[string]json.RawMessage, key string) string {
	t.Helper()
	var s string
	if err := json.Unmarshal(m[key], &s); err != nil {
		t.Fatalf("field %q: %v (raw %s)", key, err, m[key])
	}
	return s
}

func TestRunJobSim(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	resp, v := post(t, ts, `{"kind":"run","alg":"six","n":12,"sched":"rr","seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if v.ID == "" || v.Kind != "run" {
		t.Fatalf("bad view: %+v", v)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != serve.StatusDone || done.Outcome != serve.OutcomeOK {
		t.Fatalf("job did not complete ok: %+v", done)
	}
	res := getResult(t, ts, v.ID)
	if got := field(t, res, "outcome"); got != serve.OutcomeOK {
		t.Fatalf("outcome = %q", got)
	}
	var run serve.RunResult
	if err := json.Unmarshal(res["result"], &run); err != nil {
		t.Fatal(err)
	}
	if run.N != 12 || run.Terminated != 12 || run.Engine != "sim" {
		t.Fatalf("run result: %+v", run)
	}
	if len(run.Verdicts) == 0 {
		t.Fatal("no verdicts reported")
	}
	for _, verdict := range run.Verdicts {
		if !verdict.OK {
			t.Errorf("verdict %s failed: %s", verdict.Name, verdict.Error)
		}
	}
}

// TestRunJobCrashNegativeSeed: the crash plan picks in-range processes for
// every seed, so a run job with a negative or extreme seed and crashes
// ends ok instead of failing on an out-of-range crash index.
func TestRunJobCrashNegativeSeed(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	for _, seed := range []string{"-3", "9223372036854775807"} {
		resp, v := post(t, ts, `{"kind":"run","alg":"six","n":8,"sched":"rr","crash":0.5,"seed":`+seed+`}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seed %s: submit status %d", seed, resp.StatusCode)
		}
		if done := waitJob(t, ts, v.ID); done.Outcome != serve.OutcomeOK {
			t.Fatalf("seed %s: %+v", seed, done)
		}
		var run serve.RunResult
		if err := json.Unmarshal(getResult(t, ts, v.ID)["result"], &run); err != nil {
			t.Fatal(err)
		}
		if run.Crashed == 0 || run.Terminated+run.Crashed < run.N {
			t.Fatalf("seed %s: run result %+v", seed, run)
		}
	}
}

func TestRunJobBigEngine(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	resp, v := post(t, ts, `{"kind":"run","alg":"fast","n":20000,"engine":"big","sched":"rr","crash":0.01}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	done := waitJob(t, ts, v.ID)
	if done.Outcome != serve.OutcomeOK {
		t.Fatalf("big run: %+v", done)
	}
	var run serve.RunResult
	res := getResult(t, ts, v.ID)
	if err := json.Unmarshal(res["result"], &run); err != nil {
		t.Fatal(err)
	}
	if run.Engine != "big" || run.N != 20000 {
		t.Fatalf("big run result: %+v", run)
	}
	if run.Crashed == 0 {
		t.Fatal("crash plan did not crash anyone")
	}
	if run.Terminated+run.Crashed < run.N {
		t.Fatalf("non-crashed processes did not all terminate: %+v", run)
	}
	if run.ColorsShown > len(run.Colors) || run.ColorsTotal != 20000 {
		t.Fatalf("color vector bounds: shown=%d len=%d total=%d",
			run.ColorsShown, len(run.Colors), run.ColorsTotal)
	}
}

func TestRunJobSharded(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	resp, v := post(t, ts, `{"kind":"run","alg":"fast","n":30000,"engine":"big","workers":4}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	done := waitJob(t, ts, v.ID)
	if done.Outcome != serve.OutcomeOK {
		t.Fatalf("sharded run: %+v", done)
	}
	var run serve.RunResult
	if err := json.Unmarshal(getResult(t, ts, v.ID)["result"], &run); err != nil {
		t.Fatal(err)
	}
	if run.Terminated != 30000 || !strings.HasPrefix(run.Scheduler, "sharded-rr") {
		t.Fatalf("sharded result: %+v", run)
	}
}

// A big-engine run job honours the job's mode: in each mode it returns
// the steps, maximum rounds, colors and verdicts of a sim-engine run of
// the same spec.
func TestRunJobBigEngineMode(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	run := func(engine, mode string) serve.RunResult {
		t.Helper()
		_, v := post(t, ts, fmt.Sprintf(`{"kind":"run","alg":"five","n":64,"sched":"sync","seed":3,"engine":%q,"mode":%q}`, engine, mode))
		if done := waitJob(t, ts, v.ID); done.Outcome != serve.OutcomeOK {
			t.Fatalf("%s %s run: %+v", engine, mode, done)
		}
		var r serve.RunResult
		if err := json.Unmarshal(getResult(t, ts, v.ID)["result"], &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, mode := range []string{"interleaved", "simultaneous"} {
		want, got := run("sim", mode), run("big", mode)
		if got.Steps != want.Steps || got.MaxRounds != want.MaxRounds || got.Terminated != want.Terminated ||
			fmt.Sprint(got.Colors) != fmt.Sprint(want.Colors) || fmt.Sprint(got.Verdicts) != fmt.Sprint(want.Verdicts) {
			t.Errorf("%s: big run steps=%d max-rounds=%d terminated=%d colors=%v verdicts=%v,\nsim run steps=%d max-rounds=%d terminated=%d colors=%v verdicts=%v",
				mode, got.Steps, got.MaxRounds, got.Terminated, got.Colors, got.Verdicts,
				want.Steps, want.MaxRounds, want.Terminated, want.Colors, want.Verdicts)
		}
	}
}

func TestRunJobTrace(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	_, v := post(t, ts, `{"kind":"run","alg":"six","n":6,"sched":"sync","trace":true}`)
	done := waitJob(t, ts, v.ID)
	if done.Outcome != serve.OutcomeOK {
		t.Fatalf("traced run: %+v", done)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK || buf.Len() == 0 {
		t.Fatalf("trace fetch: status %d, %d bytes", resp.StatusCode, buf.Len())
	}
}

func TestCheckJob(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	_, v := post(t, ts, `{"kind":"check","alg":"six","n":3}`)
	done := waitJob(t, ts, v.ID)
	if done.Outcome != serve.OutcomeOK {
		t.Fatalf("check job: %+v", done)
	}
	var chk serve.CheckResult
	if err := json.Unmarshal(getResult(t, ts, v.ID)["result"], &chk); err != nil {
		t.Fatal(err)
	}
	if chk.States == 0 || chk.Terminal == 0 || len(chk.Violations) != 0 {
		t.Fatalf("check result: %+v", chk)
	}
	if done.Metrics == nil || done.Metrics.States == 0 {
		t.Fatalf("job view carries no exploration metrics: %+v", done.Metrics)
	}
}

func TestCheckJobSweep(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	_, v := post(t, ts, `{"kind":"check","alg":"six","n":3,"sweep":true}`)
	done := waitJob(t, ts, v.ID)
	if done.Outcome != serve.OutcomeOK {
		t.Fatalf("sweep job: %+v", done)
	}
	var chk serve.CheckResult
	if err := json.Unmarshal(getResult(t, ts, v.ID)["result"], &chk); err != nil {
		t.Fatal(err)
	}
	if !chk.Sweep || chk.States == 0 {
		t.Fatalf("sweep result: %+v", chk)
	}
}

// A check job is serial unless it asks for workers and never runs more
// workers than the server has CPUs: a huge "workers" on a sweep is capped,
// not turned into one explorer (and one set of tables) per orbit.
func TestCheckJobSweepWorkersCapped(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	var want string
	for _, tc := range []struct {
		spec    string
		workers int
	}{
		{`{"kind":"check","alg":"six","n":4,"sweep":true}`, 1},
		{`{"kind":"check","alg":"six","n":4,"sweep":true,"workers":100000}`, 2},
	} {
		_, v := post(t, ts, tc.spec)
		done := waitJob(t, ts, v.ID)
		if done.Outcome != serve.OutcomeOK || done.Metrics == nil {
			t.Fatalf("%s: %+v", tc.spec, done)
		}
		if got := len(done.Metrics.WorkerItems); got != tc.workers {
			t.Errorf("%s: ran %d orbit workers, want %d", tc.spec, got, tc.workers)
		}
		var chk serve.CheckResult
		if err := json.Unmarshal(getResult(t, ts, v.ID)["result"], &chk); err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = chk.Summary
		} else if chk.Summary != want {
			t.Errorf("%s: summary %q, serial %q", tc.spec, chk.Summary, want)
		}
	}
}

func TestFuzzJob(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	_, v := post(t, ts, `{"kind":"fuzz","alg":"fast","n":4,"campaign":8,"seed":3}`)
	done := waitJob(t, ts, v.ID)
	if done.Outcome != serve.OutcomeOK {
		t.Fatalf("fuzz job: %+v", done)
	}
	var fz serve.FuzzResult
	if err := json.Unmarshal(getResult(t, ts, v.ID)["result"], &fz); err != nil {
		t.Fatal(err)
	}
	if fz.Schedules != 8 || len(fz.Violations) != 0 {
		t.Fatalf("fuzz result: %+v", fz)
	}
}

func TestBudgetTrippedJobIsPartial(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	// The block protocol never finishes on its own; the 50ms budget must
	// trip and yield PARTIAL with a timeout stop reason — not an error.
	_, v := post(t, ts, `{"kind":"run","alg":"block","n":4,"budget":{"timeout_ms":50}}`)
	done := waitJob(t, ts, v.ID)
	if done.Outcome != serve.OutcomePartial {
		t.Fatalf("budget-tripped job: %+v", done)
	}
	if done.StopReason != string(runctl.StopCancelled) && done.StopReason != string(runctl.StopTimeout) {
		t.Fatalf("stop reason = %q", done.StopReason)
	}
	res := getResult(t, ts, v.ID)
	if field(t, res, "outcome") != serve.OutcomePartial {
		t.Fatal("result endpoint does not mark PARTIAL")
	}
}

func TestDefaultTimeoutIsMandatory(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, DefaultTimeout: 50 * time.Millisecond})
	// No budget in the request: the server default must still bound it.
	_, v := post(t, ts, `{"kind":"run","alg":"block","n":4}`)
	done := waitJob(t, ts, v.ID)
	if done.Outcome != serve.OutcomePartial {
		t.Fatalf("unbudgeted blocking job was not bounded: %+v", done)
	}
}

func TestBudgetClampedToCeiling(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{
		Workers:   1,
		MaxBudget: runctl.Budget{Timeout: 50 * time.Millisecond},
	})
	// The request asks for an hour; the ceiling clamps it to 50ms.
	start := time.Now()
	_, v := post(t, ts, `{"kind":"run","alg":"block","n":4,"budget":{"timeout_ms":3600000}}`)
	done := waitJob(t, ts, v.ID)
	if done.Outcome != serve.OutcomePartial {
		t.Fatalf("clamped job: %+v", done)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("ceiling did not clamp: job took %v", elapsed)
	}
}

func TestQueueOverflowSheds429(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 1, QueueDepth: 1})
	// One job occupies the worker, one fills the queue; the third must be
	// shed with 429. Blocking jobs make this deterministic, but the first
	// may be dequeued before the second arrives — so allow one extra.
	spec := `{"kind":"run","alg":"block","n":4,"budget":{"timeout_ms":400}}`
	var ids []string
	shed := 0
	for i := 0; i < 3; i++ {
		resp, v := post(t, ts, spec)
		switch resp.StatusCode {
		case http.StatusAccepted:
			ids = append(ids, v.ID)
		case http.StatusTooManyRequests:
			shed++
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if shed == 0 {
		t.Fatalf("no submission shed (accepted %d)", len(ids))
	}
	if got := s.Stats().Shed; int(got) != shed {
		t.Fatalf("stats.Shed = %d, want %d", got, shed)
	}
	// Accepted jobs still complete (as PARTIAL when their budget trips).
	for _, id := range ids {
		if v := waitJob(t, ts, id); v.Status != serve.StatusDone {
			t.Fatalf("accepted job %s never finished: %+v", id, v)
		}
	}
}

func TestValidationRejects(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, MaxN: 1000})
	cases := []struct {
		name, spec string
	}{
		{"unknown alg", `{"kind":"run","alg":"nope"}`},
		{"unknown kind", `{"kind":"explode","alg":"six"}`},
		{"unknown sched", `{"kind":"run","alg":"six","sched":"chaos"}`},
		{"unknown ids", `{"kind":"run","alg":"six","ids":"chaos"}`},
		{"unknown mode", `{"kind":"run","alg":"six","mode":"warp"}`},
		{"n too small", `{"kind":"run","alg":"six","n":2}`},
		{"n above server cap", `{"kind":"run","alg":"six","n":5000}`},
		{"crash out of range", `{"kind":"run","alg":"six","crash":1.5}`},
		{"check n too large", `{"kind":"check","alg":"six","n":64}`},
		{"big without capability", `{"kind":"run","alg":"block","engine":"big"}`},
		{"fuzz without capability", `{"kind":"fuzz","alg":"block"}`},
		{"trace on big", `{"kind":"run","alg":"fast","engine":"big","trace":true}`},
		{"workers on sim", `{"kind":"run","alg":"six","workers":4}`},
		{"unknown field", `{"kind":"run","alg":"six","bogus":1}`},
		{"not json", `kind=run`},
	}
	for _, tc := range cases {
		resp, _ := post(t, ts, tc.spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// Nothing invalid may reach the queue.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []serve.View
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 0 {
		t.Fatalf("invalid specs enqueued: %+v", views)
	}
}

func TestProtocolsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/protocols")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []protocol.Info
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(protocol.All()) {
		t.Fatalf("%d infos for %d registered protocols", len(infos), len(protocol.All()))
	}
	// The self-description must be sufficient to build a valid job: take
	// the first protocol advertising "run" and submit against it.
	for _, in := range infos {
		for _, c := range in.Capabilities {
			if c != "run" {
				continue
			}
			spec := fmt.Sprintf(`{"kind":"run","alg":%q,"n":%d,"budget":{"timeout_ms":200}}`, in.Name, in.MinN)
			resp, v := post(t, ts, spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("self-described job for %q rejected: %d", in.Name, resp.StatusCode)
			}
			waitJob(t, ts, v.ID)
			return
		}
	}
	t.Fatal("no protocol advertises run")
}

func TestMetricsStream(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	_, v := post(t, ts, `{"kind":"fuzz","alg":"fast","campaign":32,"seed":1}`)
	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/metrics?watch=1&interval_ms=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var last metrics.Snapshot
	lines := 0
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad snapshot line: %v: %s", err, sc.Text())
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("stream delivered no snapshots")
	}
	// The stream ends with a final post-completion snapshot, so the last
	// line must carry the finished campaign's counters.
	if last.Schedules != 32 {
		t.Fatalf("final snapshot schedules = %d, want 32", last.Schedules)
	}
}

func TestDrainFinishesQueuedAndRunning(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 1, QueueDepth: 4})
	// Fast jobs: drain must let both the running and the queued one
	// finish OK within the grace period.
	_, a := post(t, ts, `{"kind":"run","alg":"six","n":64,"sched":"rr"}`)
	_, b := post(t, ts, `{"kind":"run","alg":"six","n":64,"sched":"rr"}`)
	s.Drain(10 * time.Second)

	// After drain: no new submissions…
	resp, _ := post(t, ts, `{"kind":"run","alg":"six","n":8}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d, want 503", resp.StatusCode)
	}
	hc, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hc.Body.Close()
	if hc.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: %d", hc.StatusCode)
	}
	// …but results remain fetchable, and both jobs completed cleanly.
	for _, id := range []string{a.ID, b.ID} {
		v := waitJob(t, ts, id)
		if v.Status != serve.StatusDone || v.Outcome != serve.OutcomeOK {
			t.Fatalf("drained job %s: %+v", id, v)
		}
	}
}

func TestDrainCancelsStragglersAsPartial(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 2, QueueDepth: 8})
	// Blocking jobs with long budgets: the 20ms grace must expire and the
	// cancellation must surface as PARTIAL/cancelled — accepted work is
	// never dropped.
	var ids []string
	for i := 0; i < 4; i++ {
		resp, v := post(t, ts, `{"kind":"run","alg":"block","n":4,"budget":{"timeout_ms":60000}}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	start := time.Now()
	s.Drain(20 * time.Millisecond)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain hung for %v", elapsed)
	}
	for _, id := range ids {
		v := waitJob(t, ts, id)
		if v.Status != serve.StatusDone {
			t.Fatalf("job %s not done after drain: %+v", id, v)
		}
		if v.Outcome != serve.OutcomePartial || v.StopReason != string(runctl.StopCancelled) {
			t.Fatalf("straggler %s: outcome=%s reason=%s", id, v.Outcome, v.StopReason)
		}
	}
	if !s.Stats().Draining {
		t.Fatal("stats does not report draining")
	}
}

func TestDrainIdempotent(t *testing.T) {
	s, _ := newTestServer(t, serve.Options{Workers: 1})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Drain(time.Second)
		}()
	}
	wg.Wait()
}

// mixedSpecs is the burst mix of TestConcurrentMixedSubmissions, one job
// template per engine and kind; %d takes the seed.
var mixedSpecs = []string{
	`{"kind":"run","alg":"six","n":32,"sched":"random","seed":%d}`,
	`{"kind":"run","alg":"five","n":24,"sched":"rr","seed":%d}`,
	`{"kind":"run","alg":"six","n":48,"sched":"burst","seed":%d}`,
	`{"kind":"run","alg":"fast","n":4000,"engine":"big","seed":%d}`,
	`{"kind":"run","alg":"fast","n":20000,"engine":"big","workers":2,"seed":%d}`,
	`{"kind":"check","alg":"fast","n":3,"seed":%d}`,
	`{"kind":"fuzz","alg":"fast","campaign":4,"seed":%d}`,
}

// TestConcurrentMixedSubmissions floods a small pool with a mixed burst
// (sim and big runs, a sharded run, check and fuzz jobs) from concurrent
// clients. How many submissions shed depends on goroutine interleaving
// (TestQueueOverflowSheds429 pins shedding itself), so the test pins the
// accounting instead: every client 429 is counted in Stats().Shed, every
// 202 in Stats().Accepted, and every accepted job finishes ok or PARTIAL
// and is counted by the time its view reads done.
func TestConcurrentMixedSubmissions(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 2, QueueDepth: 4})
	const perSpec = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ids []string
	shed := 0
	for i, tpl := range mixedSpecs {
		for k := 0; k < perSpec; k++ {
			wg.Add(1)
			go func(spec string) {
				defer wg.Done()
				resp, v := post(t, ts, spec)
				mu.Lock()
				defer mu.Unlock()
				switch resp.StatusCode {
				case http.StatusAccepted:
					ids = append(ids, v.ID)
				case http.StatusTooManyRequests:
					shed++
				default:
					t.Errorf("status %d", resp.StatusCode)
				}
			}(fmt.Sprintf(tpl, i*perSpec+k))
		}
	}
	wg.Wait()
	t.Logf("accepted=%d shed=%d", len(ids), shed)
	if len(ids) == 0 {
		t.Fatal("nothing accepted")
	}
	for _, id := range ids {
		v := waitJob(t, ts, id)
		if v.Status != serve.StatusDone {
			t.Fatalf("job %s: %+v", id, v)
		}
		if v.Outcome == serve.OutcomeFailed {
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
	}
	st := s.Stats()
	if st.Shed != int64(shed) || st.Accepted != int64(len(ids)) ||
		st.Completed+st.Partial != int64(len(ids)) || st.Failed != 0 {
		t.Fatalf("stats %+v for %d accepted and %d shed by the client", st, len(ids), shed)
	}
}
