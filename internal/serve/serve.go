// Package serve is the coloring-as-a-service job server behind
// cmd/colorserved: an HTTP/JSON facade over the protocol registry that
// accepts run, check, and fuzz jobs, executes them on a bounded worker
// pool, and streams per-job metrics while they run.
//
// Three properties are load-bearing (DESIGN.md §12):
//
//   - The queue is bounded. Submissions beyond the configured depth are
//     shed with 429 rather than buffered, so memory stays flat under
//     overload and clients get immediate backpressure.
//   - Every job runs under a mandatory runctl.Budget. The server imposes
//     a default wall-clock timeout when the request names none and clamps
//     every requested axis to its per-job ceiling, so no request can
//     occupy a worker indefinitely — a tripped budget yields a PARTIAL
//     result, never a discarded one.
//   - Shutdown is a drain, not an abort. Drain stops intake (503), lets
//     in-flight and queued jobs finish within a grace period, then
//     cancels the shared run context so stragglers finish as PARTIAL with
//     StopCancelled. Results remain fetchable until the process exits.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"asynccycle/internal/metrics"
	"asynccycle/internal/protocol"
	"asynccycle/internal/runctl"

	"context"
)

// Options configures a Server. The zero value is usable: defaults are
// filled in by New.
type Options struct {
	// Workers is the execution pool size (default 2).
	Workers int
	// QueueDepth bounds the number of accepted-but-not-started jobs
	// (default 64); submissions beyond it are shed with 429.
	QueueDepth int
	// DefaultTimeout is the wall-clock budget applied to jobs that name
	// none (default 30s). Mandatory: a zero request timeout never means
	// "unbounded".
	DefaultTimeout time.Duration
	// MaxBudget is the per-job ceiling; every axis of a request's budget
	// is clamped to it (zero axes = unlimited on that axis, except the
	// wall clock which falls back to 4×DefaultTimeout).
	MaxBudget runctl.Budget
	// MaxN caps run-job instance sizes (default 2_000_000).
	MaxN int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxBudget.Timeout <= 0 {
		o.MaxBudget.Timeout = 4 * o.DefaultTimeout
	}
	if o.MaxN <= 0 {
		o.MaxN = 2_000_000
	}
	return o
}

// Stats is the server-level counter snapshot served at /stats.
type Stats struct {
	Accepted  int64 `json:"accepted"`
	Shed      int64 `json:"shed"`     // rejected 429: queue full
	Rejected  int64 `json:"rejected"` // rejected 400: invalid spec
	Completed int64 `json:"completed"`
	Partial   int64 `json:"partial"`
	Failed    int64 `json:"failed"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Workers   int   `json:"workers"`
	Draining  bool  `json:"draining"`
}

// Server executes protocol jobs from a bounded queue on a fixed worker
// pool. Create with New, mount Handler on an http.Server, and call Drain
// on shutdown.
type Server struct {
	opt   Options
	queue chan *job

	// runCtx is the shared parent of every job context; cancelRun trips
	// it when the drain grace expires.
	runCtx    context.Context
	cancelRun context.CancelFunc

	// acceptMu serializes submission against the draining flag flip:
	// submit holds the read side across the draining check and the
	// jobWG.Add, so Drain's Wait can never race an in-flight Add.
	acceptMu sync.RWMutex
	draining bool

	jobWG    sync.WaitGroup // accepted jobs not yet done
	workerWG sync.WaitGroup // worker goroutines

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // job IDs in submission order
	seq     int
	running int

	stats struct {
		sync.Mutex
		accepted, shed, rejected  int64
		completed, partial, faild int64
	}
}

// New builds a Server and starts its worker pool.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:       opt,
		queue:     make(chan *job, opt.QueueDepth),
		runCtx:    ctx,
		cancelRun: cancel,
		jobs:      make(map[string]*job),
	}
	s.workerWG.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	return s
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	defer s.jobWG.Done()
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.mu.Lock()
	s.running++
	s.mu.Unlock()

	// The job's wall-clock budget becomes a context deadline under the
	// shared drain context; the execution layers get the remaining axes.
	// A job dequeued after the drain grace expired sees an
	// already-cancelled context and finishes immediately as PARTIAL.
	ctx, cancel := j.budget.WithContext(s.runCtx)
	s.execute(ctx, j)
	cancel()

	s.mu.Lock()
	s.running--
	s.mu.Unlock()
	s.stats.Lock()
	switch j.view(false).Outcome {
	case OutcomeOK:
		s.stats.completed++
	case OutcomePartial:
		s.stats.partial++
	default:
		s.stats.faild++
	}
	s.stats.Unlock()
	// Done only now, so a client that sees the job done reads /stats
	// that count it.
	j.mu.Lock()
	j.status = StatusDone
	j.mu.Unlock()
	close(j.done)
}

// Submit validates and enqueues a job spec. It returns the job on
// acceptance; ErrDraining when the server no longer accepts work;
// ErrQueueFull when the bounded queue is at depth; other errors for
// invalid specs.
func (s *Server) Submit(spec JobSpec) (*job, error) {
	d, mode, err := s.validate(&spec)
	if err != nil {
		s.stats.Lock()
		s.stats.rejected++
		s.stats.Unlock()
		return nil, err
	}

	// Mandatory budget: default wall clock when absent, then clamp every
	// axis to the server ceiling.
	b := spec.Budget.Budget()
	if b.Timeout <= 0 {
		b.Timeout = s.opt.DefaultTimeout
	}
	b = b.Clamp(s.opt.MaxBudget)

	j := &job{
		spec:    spec,
		desc:    d,
		mode:    mode,
		budget:  b,
		met:     metrics.NewRun(),
		created: time.Now(),
		done:    make(chan struct{}),
		status:  StatusQueued,
	}

	s.acceptMu.RLock()
	if s.draining {
		s.acceptMu.RUnlock()
		return nil, ErrDraining
	}
	// The job is fully set up (ID assigned, counted in jobWG) before the
	// send: an idle worker may dequeue, run, and Done it at once. The send
	// never blocks, so holding mu across it keeps IDs gap-free when the
	// shed branch hands its sequence number back.
	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("j%06d", s.seq)
	s.jobWG.Add(1)
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.mu.Unlock()
	default:
		s.seq--
		s.mu.Unlock()
		s.jobWG.Done()
		s.acceptMu.RUnlock()
		s.stats.Lock()
		s.stats.shed++
		s.stats.Unlock()
		return nil, ErrQueueFull
	}
	s.acceptMu.RUnlock()

	s.stats.Lock()
	s.stats.accepted++
	s.stats.Unlock()
	return j, nil
}

// Sentinel submission errors; the HTTP layer maps them to 503 and 429.
var (
	ErrDraining  = errors.New("server is draining, not accepting jobs")
	ErrQueueFull = errors.New("job queue is full")
)

// Job looks up a job by ID.
func (s *Server) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (s *Server) Jobs() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.stats.Lock()
	st := Stats{
		Accepted: s.stats.accepted,
		Shed:     s.stats.shed,
		Rejected: s.stats.rejected,

		Completed: s.stats.completed,
		Partial:   s.stats.partial,
		Failed:    s.stats.faild,
	}
	s.stats.Unlock()
	s.mu.Lock()
	st.Running = s.running
	s.mu.Unlock()
	st.Queued = len(s.queue)
	st.Workers = s.opt.Workers
	s.acceptMu.RLock()
	st.Draining = s.draining
	s.acceptMu.RUnlock()
	return st
}

// Drain gracefully shuts the server down: stop accepting (submissions get
// 503), wait up to grace for accepted jobs (queued and running) to
// finish, then cancel the shared run context so stragglers stop between
// steps and finish as PARTIAL with StopCancelled. Drain returns once
// every accepted job is done and the worker pool has exited; results stay
// fetchable. grace <= 0 cancels immediately.
func (s *Server) Drain(grace time.Duration) {
	s.acceptMu.Lock()
	if s.draining {
		s.acceptMu.Unlock()
		s.jobWG.Wait()
		s.workerWG.Wait()
		return
	}
	s.draining = true
	s.acceptMu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(finished)
	}()
	if grace > 0 {
		select {
		case <-finished:
		case <-time.After(grace):
			s.cancelRun()
			<-finished
		}
	} else {
		s.cancelRun()
		<-finished
	}
	close(s.queue)
	s.workerWG.Wait()
	s.cancelRun() // release the timer ctx even on the clean path
}

// ---- HTTP layer ----

// Handler returns the server's HTTP API:
//
//	GET  /healthz           liveness (503 while draining)
//	GET  /protocols         registry self-description (protocol.Infos)
//	GET  /stats             server counters
//	POST /jobs              submit a JobSpec; 202 + job view
//	GET  /jobs              all job views, submission order
//	GET  /jobs/{id}         job view with metrics snapshot; ?wait=1 blocks
//	GET  /jobs/{id}/result  result payload (409 until done)
//	GET  /jobs/{id}/trace   recorded trace text (404 unless requested)
//	GET  /jobs/{id}/metrics one metrics snapshot, or ?watch=1 to stream
//	                        ND-JSON snapshots until the job finishes
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /protocols", s.handleProtocols)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.acceptMu.RLock()
	draining := s.draining
	s.acceptMu.RUnlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleProtocols(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, protocol.Infos())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
		return
	}
	j, err := s.Submit(spec)
	switch err {
	case nil:
	case ErrQueueFull:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case ErrDraining:
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.view(false))
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]View, len(jobs))
	for i, j := range jobs {
		views[i] = j.view(false)
	}
	sort.SliceStable(views, func(a, b int) bool { return views[a].ID < views[b].ID })
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
	}
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	select {
	case <-j.done:
	default:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s; retry when done", j.id, j.view(false).Status))
		return
	}
	j.mu.Lock()
	outcome, reason, errMsg, result := j.outcome, j.stopReason, j.errMsg, j.result
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"id":          j.id,
		"kind":        j.spec.Kind,
		"alg":         j.spec.Alg,
		"outcome":     outcome,
		"stop_reason": string(reason),
		"error":       errMsg,
		"result":      result,
	})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	select {
	case <-j.done:
	default:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is not done", j.id))
		return
	}
	j.mu.Lock()
	trace := j.trace
	j.mu.Unlock()
	if trace == "" {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %s recorded no trace (submit with \"trace\": true)", j.id))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(trace))
}

// handleMetrics serves one metrics snapshot, or with ?watch=1 streams
// ND-JSON snapshots every interval (default 200ms, ?interval_ms=) until
// the job completes — a final snapshot is always sent after completion.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("watch") == "" {
		writeJSON(w, http.StatusOK, j.met.Snapshot())
		return
	}
	interval := 200 * time.Millisecond
	if ms, err := strconv.Atoi(r.URL.Query().Get("interval_ms")); err == nil && ms > 0 {
		interval = time.Duration(ms) * time.Millisecond
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	send := func() {
		_ = enc.Encode(j.met.Snapshot())
		if flusher != nil {
			flusher.Flush()
		}
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-j.done:
			send()
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
			send()
		}
	}
}
