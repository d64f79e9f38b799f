package serve

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"asynccycle/internal/bigsim"
	"asynccycle/internal/fuzzsched"
	"asynccycle/internal/ids"
	"asynccycle/internal/metrics"
	"asynccycle/internal/model"
	"asynccycle/internal/protocol"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

// Job kinds. Each maps to one registry capability: "run" needs Run (or
// BigKernel for the big engine), "check" needs Check (Sweep with
// spec.Sweep), "fuzz" needs the instance surface.
const (
	KindRun   = "run"
	KindCheck = "check"
	KindFuzz  = "fuzz"
)

// Job statuses and outcomes.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"

	OutcomeOK      = "ok"      // ran to completion
	OutcomePartial = "partial" // stopped by budget or drain; results cover the explored region
	OutcomeFailed  = "failed"  // the job itself errored
)

// BudgetSpec is the wire form of runctl.Budget.
type BudgetSpec struct {
	TimeoutMS      int64 `json:"timeout_ms,omitempty"`
	MaxStates      int   `json:"max_states,omitempty"`
	MaxSteps       int   `json:"max_steps,omitempty"`
	MaxActivations int   `json:"max_activations,omitempty"`
}

// Budget converts the wire form.
func (b BudgetSpec) Budget() runctl.Budget {
	return runctl.Budget{
		Timeout:        time.Duration(b.TimeoutMS) * time.Millisecond,
		MaxStates:      b.MaxStates,
		MaxSteps:       b.MaxSteps,
		MaxActivations: b.MaxActivations,
	}
}

// JobSpec is the POST /jobs request body. Kind and Alg are required;
// everything else has job-kind-specific defaults. The server clamps the
// requested budget to its per-job ceiling on every axis, so a request can
// never starve the pool.
type JobSpec struct {
	Kind string `json:"kind"`
	Alg  string `json:"alg"`
	// N is the instance size (run default 32, check default 3; fuzz 0
	// varies it per schedule).
	N int `json:"n,omitempty"`
	// Topology retargets the protocol onto another registered graph family
	// ("" = its native topology). Only families the descriptor declares are
	// accepted; engine "big" is cycle-only. Sizes round via the family's
	// normalizer (torus → the nearest factorable grid).
	Topology string `json:"topology,omitempty"`
	// Mode selects activation semantics: "interleaved" (default) or
	// "simultaneous".
	Mode string `json:"mode,omitempty"`
	// IDs names the identifier assignment (ids.Parse dialect; default
	// "random").
	IDs  string `json:"ids,omitempty"`
	Seed int64  `json:"seed,omitempty"`

	// Run options.
	// Sched names the scheduler family (schedule.Parse dialect; default
	// "random").
	Sched string `json:"sched,omitempty"`
	// Crash is the fraction of processes crashed at adversarial times.
	Crash float64 `json:"crash,omitempty"`
	// Engine selects the execution engine: "sim" (default) or "big" (the
	// struct-of-arrays large-cycle engine; requires the "big" capability).
	Engine string `json:"engine,omitempty"`
	// Workers: engine "big" runs the sharded parallel executor when > 1.
	// A sweep check explores that many orbit representatives at once; it
	// is serial when Workers is unset and never uses more workers than the
	// server has CPUs. A single check is serial at any Workers.
	Workers int `json:"workers,omitempty"`
	// Trace records the execution trace (sim engine only, n ≤ 4096);
	// fetch it from /jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`

	// Check options.
	Sweep     bool `json:"sweep,omitempty"`
	Depth     int  `json:"depth,omitempty"`
	MaxStates int  `json:"max_states,omitempty"`

	// Fuzz options.
	Campaign  int `json:"campaign,omitempty"`
	ConcEvery int `json:"conc_every,omitempty"`

	// Budget bounds the job; the server applies its default timeout when
	// none is given and clamps every axis to its ceiling.
	Budget BudgetSpec `json:"budget,omitempty"`
}

// Verdict is one named check outcome on a run result.
type Verdict struct {
	Name  string `json:"name"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// RunResult is the result payload of a run job.
type RunResult struct {
	Graph     string `json:"graph"`
	Engine    string `json:"engine"`
	Scheduler string `json:"scheduler"`
	Workers   int    `json:"workers,omitempty"`
	N         int    `json:"n"`
	Steps     int64  `json:"steps"`
	// Contract is the correctness contract labeling the verdicts; empty
	// for pre-contract protocols (their verdicts keep the legacy names).
	Contract   string    `json:"contract,omitempty"`
	Terminated int       `json:"terminated"`
	Crashed    int       `json:"crashed"`
	MaxRounds  int       `json:"max_rounds"`
	Bound      int       `json:"bound,omitempty"`
	Verdicts   []Verdict `json:"verdicts"`
	// Colors holds the first ColorsShown outputs (-1 = not terminated);
	// ColorsTotal is n. Full vectors for n ≤ 256.
	Colors      []int `json:"colors"`
	ColorsShown int   `json:"colors_shown"`
	ColorsTotal int   `json:"colors_total"`
}

// CheckResult is the result payload of a check job.
type CheckResult struct {
	Summary          string   `json:"summary"`
	Contract         string   `json:"contract,omitempty"`
	States           int64    `json:"states"`
	Terminal         int64    `json:"terminal"`
	Violations       []string `json:"violations,omitempty"`
	ViolationWitness string   `json:"violation_witness,omitempty"`
	CycleFound       bool     `json:"cycle_found"`
	CyclePrefix      string   `json:"cycle_prefix,omitempty"`
	CycleLoop        string   `json:"cycle_loop,omitempty"`
	Truncated        bool     `json:"truncated"`
	Sweep            bool     `json:"sweep"`
}

// FuzzFinding is one oracle violation with its shrunk witness.
type FuzzFinding struct {
	Detail  string `json:"detail"`
	Witness string `json:"witness"`
}

// FuzzResult is the result payload of a fuzz job.
type FuzzResult struct {
	Summary     string        `json:"summary"`
	Contract    string        `json:"contract,omitempty"`
	Schedules   int           `json:"schedules"`
	Violations  []FuzzFinding `json:"violations,omitempty"`
	Divergences []string      `json:"divergences,omitempty"`
	StatesSeen  int64         `json:"states_seen"`
}

// job is one accepted request moving through the queue.
type job struct {
	id     string
	spec   JobSpec
	desc   *protocol.Descriptor
	mode   sim.Mode
	budget runctl.Budget
	met    *metrics.Run

	created time.Time
	done    chan struct{} // closed when the job reaches StatusDone

	mu         sync.Mutex
	status     string
	outcome    string
	stopReason runctl.StopReason
	errMsg     string
	started    time.Time
	finished   time.Time
	result     any
	trace      string
}

// View is the JSON status representation of a job.
type View struct {
	ID         string            `json:"id"`
	Kind       string            `json:"kind"`
	Alg        string            `json:"alg"`
	N          int               `json:"n,omitempty"`
	Status     string            `json:"status"`
	Outcome    string            `json:"outcome,omitempty"`
	StopReason string            `json:"stop_reason,omitempty"`
	Error      string            `json:"error,omitempty"`
	CreatedAt  time.Time         `json:"created_at"`
	StartedAt  *time.Time        `json:"started_at,omitempty"`
	FinishedAt *time.Time        `json:"finished_at,omitempty"`
	ElapsedSec float64           `json:"elapsed_seconds,omitempty"`
	Metrics    *metrics.Snapshot `json:"metrics,omitempty"`
}

func (j *job) view(withMetrics bool) View {
	j.mu.Lock()
	v := View{
		ID:         j.id,
		Kind:       j.spec.Kind,
		Alg:        j.spec.Alg,
		N:          j.spec.N,
		Status:     j.status,
		Outcome:    j.outcome,
		StopReason: string(j.stopReason),
		Error:      j.errMsg,
		CreatedAt:  j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		v.ElapsedSec = end.Sub(j.started).Seconds()
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	j.mu.Unlock()
	if withMetrics {
		s := j.met.Snapshot()
		v.Metrics = &s
	}
	return v
}

// finish records the job's outcome; the worker marks the job done once the
// server's counters include it.
func (j *job) finish(outcome string, reason runctl.StopReason, result any, err error) {
	j.mu.Lock()
	j.outcome = outcome
	j.stopReason = reason
	j.result = result
	if err != nil {
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	j.mu.Unlock()
}

// validate resolves the spec against the registry and normalizes
// defaults. Capability gating is structural: a kind is accepted exactly
// when the descriptor carries the matching closure, so new protocols get
// the service surface without any server change.
func (s *Server) validate(spec *JobSpec) (*protocol.Descriptor, sim.Mode, error) {
	d, err := protocol.Lookup(spec.Alg)
	if err != nil {
		return nil, 0, err
	}
	// Retarget before any capability or size gate: the retargeted copy
	// carries the family's MinN/FixN and drops cycle-only surfaces, so the
	// structural checks below see the descriptor the job will actually run.
	d, err = protocol.WithTopology(d, spec.Topology)
	if err != nil {
		return nil, 0, err
	}

	var mode sim.Mode
	switch spec.Mode {
	case "", "interleaved":
		mode = sim.ModeInterleaved
		spec.Mode = "interleaved"
	case "simultaneous":
		mode = sim.ModeSimultaneous
	default:
		return nil, 0, fmt.Errorf("unknown mode %q", spec.Mode)
	}
	if len(d.Modes) > 0 && !d.SupportsMode(mode) {
		return nil, 0, fmt.Errorf("algorithm %q does not support %s semantics", d.Name, mode)
	}

	if spec.IDs == "" {
		spec.IDs = "random"
	}
	if _, err := ids.Parse(spec.IDs); err != nil {
		return nil, 0, err
	}
	if spec.Crash < 0 || spec.Crash > 1 {
		return nil, 0, fmt.Errorf("crash fraction %v outside [0, 1]", spec.Crash)
	}
	if spec.Workers < 0 {
		return nil, 0, fmt.Errorf("negative workers")
	}

	switch spec.Kind {
	case KindRun:
		if spec.N == 0 {
			spec.N = 32
		}
		if d.FixN != nil {
			spec.N = d.FixN(spec.N)
		}
		if spec.N < d.MinN {
			return nil, 0, fmt.Errorf("n=%d below the protocol minimum %d", spec.N, d.MinN)
		}
		if spec.N > s.opt.MaxN {
			return nil, 0, fmt.Errorf("n=%d above the server limit %d", spec.N, s.opt.MaxN)
		}
		if spec.Sched == "" {
			spec.Sched = "random"
		}
		switch spec.Engine {
		case "", "sim":
			spec.Engine = "sim"
			if d.Run == nil {
				return nil, 0, fmt.Errorf("algorithm %q has no run surface", d.Name)
			}
			if spec.Workers > 1 {
				return nil, 0, fmt.Errorf("workers > 1 requires the big engine")
			}
			if _, err := schedule.Parse(spec.Sched, spec.Seed); err != nil {
				return nil, 0, err
			}
		case "big":
			if err := protocol.CheckBigTopology(spec.Topology); err != nil {
				return nil, 0, err
			}
			if d.BigKernel == nil {
				return nil, 0, fmt.Errorf("algorithm %q has no big-run surface (capability \"big\")", d.Name)
			}
			if spec.Trace {
				return nil, 0, fmt.Errorf("trace is not available on the big engine")
			}
			if spec.Workers <= 1 {
				if _, err := bigsim.ParseSched(spec.Sched, spec.Seed); err != nil {
					return nil, 0, err
				}
			}
		default:
			return nil, 0, fmt.Errorf("unknown engine %q (sim|big)", spec.Engine)
		}
		if spec.Trace && spec.N > maxTraceN {
			return nil, 0, fmt.Errorf("trace capped at n ≤ %d (asked for %d)", maxTraceN, spec.N)
		}
	case KindCheck:
		if spec.N == 0 {
			spec.N = 3
		}
		if d.FixN != nil {
			spec.N = d.FixN(spec.N)
		}
		if spec.N < d.MinN {
			return nil, 0, fmt.Errorf("n=%d below the protocol minimum %d", spec.N, d.MinN)
		}
		if spec.N > maxCheckN {
			return nil, 0, fmt.Errorf("exhaustive checking capped at n ≤ %d (asked for %d)", maxCheckN, spec.N)
		}
		// The job pool is the server's unit of parallelism, so a sweep
		// runs serially unless the client asks for workers. Every orbit
		// worker holds its own tables, so capping workers at the CPU
		// count also bounds the job's memory.
		spec.Workers = min(max(spec.Workers, 1), runtime.GOMAXPROCS(0))
		if spec.Sweep {
			if d.Sweep == nil {
				return nil, 0, fmt.Errorf("algorithm %q has no sweep surface", d.Name)
			}
		} else if d.Check == nil {
			return nil, 0, fmt.Errorf("algorithm %q has no branchable instance surface to model-check", d.Name)
		}
	case KindFuzz:
		if d.NewInstance == nil {
			return nil, 0, fmt.Errorf("algorithm %q has no instance surface to fuzz", d.Name)
		}
		if spec.N < 0 || (spec.N > 0 && spec.N > maxFuzzN) {
			return nil, 0, fmt.Errorf("fuzz n must be 0 (varied) or in [%d, %d]", d.MinN, maxFuzzN)
		}
		if spec.Campaign <= 0 {
			spec.Campaign = 64
		}
		if spec.Campaign > maxCampaign {
			return nil, 0, fmt.Errorf("campaign capped at %d schedules (asked for %d)", maxCampaign, spec.Campaign)
		}
	default:
		return nil, 0, fmt.Errorf("unknown job kind %q (run|check|fuzz)", spec.Kind)
	}
	return d, mode, nil
}

// Per-job resource guards beyond the budget axes.
const (
	maxTraceN   = 4096
	maxCheckN   = 8
	maxFuzzN    = 64
	maxCampaign = 4096
)

// execute runs the job under ctx (already bounded by the job's wall-clock
// budget and the server's drain context). Every path returns a PARTIAL
// outcome rather than discarding work when the context is cancelled.
func (s *Server) execute(ctx context.Context, j *job) {
	switch j.spec.Kind {
	case KindRun:
		s.executeRun(ctx, j)
	case KindCheck:
		s.executeCheck(ctx, j)
	case KindFuzz:
		s.executeFuzz(ctx, j)
	default: // unreachable after validate
		j.finish(OutcomeFailed, runctl.StopNone, nil, fmt.Errorf("unknown kind %q", j.spec.Kind))
	}
}

// engineBudget is the budget handed to the execution layer: the wall
// clock axis is already folded into ctx by the caller, so it is zeroed
// here rather than starting a second, later-anchored timer.
func engineBudget(b runctl.Budget) runctl.Budget {
	b.Timeout = 0
	return b
}

func (s *Server) executeRun(ctx context.Context, j *job) {
	spec := j.spec
	d := j.desc
	g, err := d.Topology(spec.N)
	if err != nil {
		j.finish(OutcomeFailed, runctl.StopNone, nil, err)
		return
	}
	assignment, _ := ids.Parse(spec.IDs)
	xs, err := ids.Generate(assignment, spec.N, spec.Seed)
	if err != nil {
		j.finish(OutcomeFailed, runctl.StopNone, nil, err)
		return
	}
	crashes := protocol.CrashPlan(spec.Crash, g.N(), spec.Seed)

	b := engineBudget(j.budget)
	b.MaxSteps = runctl.Min(1000*g.N()+100_000, b.MaxSteps)

	var res sim.Result
	var reason runctl.StopReason
	var schedName string
	if spec.Engine == "big" {
		res, reason, schedName, err = runBig(ctx, d, xs, spec, j.mode, crashes, b, j.met)
	} else {
		sched, _ := schedule.Parse(spec.Sched, spec.Seed)
		schedName = sched.Name()
		var traceBuf bytes.Buffer
		opts := protocol.RunOptions{
			Scheduler: sched,
			Mode:      j.mode,
			Crashes:   crashes,
			MaxSteps:  b.MaxSteps,
			Context:   ctx,
			Budget:    b,
		}
		if spec.Trace {
			opts.TraceText = &traceBuf
		}
		res, reason, err = d.Run(xs, opts)
		if spec.Trace {
			j.mu.Lock()
			j.trace = traceBuf.String()
			j.mu.Unlock()
		}
	}
	if err != nil {
		j.finish(OutcomeFailed, reason, nil, err)
		return
	}

	out := RunResult{
		Graph:       g.Name(),
		Engine:      spec.Engine,
		Scheduler:   schedName,
		Workers:     spec.Workers,
		N:           g.N(),
		Steps:       int64(res.Steps),
		Contract:    d.ContractLabel(),
		Terminated:  res.TerminatedCount(),
		MaxRounds:   res.MaxActivations(),
		ColorsTotal: len(res.Outputs),
	}
	for _, c := range res.Crashed {
		if c {
			out.Crashed++
		}
	}
	if d.Bound != nil {
		out.Bound = d.Bound(g.N())
	}
	shown := len(res.Outputs)
	if shown > maxColorsShown {
		shown = maxColorsShown
	}
	out.ColorsShown = shown
	out.Colors = make([]int, shown)
	for i := 0; i < shown; i++ {
		switch {
		case res.Done[i]:
			out.Colors[i] = res.Outputs[i]
		case res.Values != nil:
			// Stabilizing protocols never terminate: the published
			// register value is the process's current color.
			out.Colors[i] = res.Values[i]
		default:
			out.Colors[i] = -1
		}
	}
	// Verdicts: on a PARTIAL run the contract properties still hold for
	// the terminated region (they count only terminated processes), so
	// they are reported either way.
	for _, pv := range d.Verdicts(g, res) {
		v := Verdict{Name: pv.Name, OK: pv.Err == nil}
		if pv.Err != nil {
			v.Error = pv.Err.Error()
		}
		out.Verdicts = append(out.Verdicts, v)
	}

	outcome := OutcomeOK
	if reason != runctl.StopNone {
		outcome = OutcomePartial
	}
	j.finish(outcome, reason, out, nil)
}

// maxColorsShown bounds the output vector shipped in a run result; full
// vectors would make million-node results megabytes of JSON.
const maxColorsShown = 256

func runBig(ctx context.Context, d *protocol.Descriptor, xs []int, spec JobSpec, mode sim.Mode,
	crashes map[int]int, b runctl.Budget, met *metrics.Run) (sim.Result, runctl.StopReason, string, error) {
	k, err := d.BigKernel(xs)
	if err != nil {
		return sim.Result{}, runctl.StopNone, "", err
	}
	e := bigsim.New(k)
	e.SetMode(mode)
	e.SetIncremental(true)
	e.SetMetrics(met)
	for i, c := range crashes {
		e.CrashAfter(i, c)
	}
	var reason runctl.StopReason
	var schedName string
	if spec.Workers > 1 {
		schedName = fmt.Sprintf("sharded-rr(%d)", spec.Workers)
		reason, err = e.RunSharded(ctx, spec.Workers, b)
	} else {
		sched, perr := bigsim.ParseSched(spec.Sched, spec.Seed)
		if perr != nil {
			return sim.Result{}, runctl.StopNone, "", perr
		}
		schedName = sched.Name()
		reason, err = e.RunBudget(ctx, sched, b)
	}
	if err != nil {
		return sim.Result{}, reason, schedName, err
	}
	return e.Result(), reason, schedName, nil
}

func (s *Server) executeCheck(ctx context.Context, j *job) {
	spec := j.spec
	d := j.desc

	// Singleton reduction: identical to the modelcheck CLI — sound only
	// for protocols that actually have interleaved semantics.
	single := j.mode == sim.ModeInterleaved && len(d.Modes) > 0
	// ctx carries the budget's wall clock; its size axes tighten the
	// spec's bounds or their defaults (the smaller positive bound wins).
	depth := cmp.Or(max(spec.Depth, 0), d.DefaultCheckDepth, model.DefaultMaxDepth)
	states := cmp.Or(max(spec.MaxStates, 0), model.DefaultMaxStates)
	b := engineBudget(j.budget)
	opt := model.Options{
		SingletonsOnly: single,
		MaxDepth:       runctl.Min(depth, b.MaxSteps),
		MaxStates:      runctl.Min(states, b.MaxStates),
		Workers:        spec.Workers,
		Context:        ctx,
		Metrics:        j.met,
	}

	if spec.Sweep {
		rep, err := d.Sweep(spec.N, j.mode, opt)
		if err != nil {
			j.finish(OutcomeFailed, runctl.StopNone, nil, err)
			return
		}
		out := CheckResult{
			Summary:  rep.String(),
			Contract: d.ContractLabel(),
			States:   rep.States,
			Terminal: rep.Terminal,
			Sweep:    true,
		}
		if rep.Violations > 0 {
			out.Violations = append(out.Violations, fmt.Sprintf("%d weighted violations across the sweep", rep.Violations))
		}
		outcome := OutcomeOK
		var reason runctl.StopReason
		if rep.Partial {
			outcome, reason = OutcomePartial, rep.StopReason
		}
		j.finish(outcome, reason, out, nil)
		return
	}

	xs := ids.MustGenerate(ids.Increasing, spec.N, 0)
	rep, err := d.Check(xs, j.mode, opt)
	if err != nil {
		j.finish(OutcomeFailed, runctl.StopNone, nil, err)
		return
	}
	out := CheckResult{
		Summary:    rep.String(),
		Contract:   d.ContractLabel(),
		States:     int64(rep.States),
		Terminal:   int64(rep.Terminal),
		CycleFound: rep.CycleFound,
		Truncated:  rep.Truncated,
	}
	out.Violations = append(out.Violations, rep.Violations...)
	if rep.ViolationWitness != nil {
		if data, err := schedule.MarshalSteps(rep.ViolationWitness); err == nil {
			out.ViolationWitness = string(data)
		}
	}
	if rep.CycleFound {
		if p, err := schedule.MarshalSteps(rep.CyclePrefix); err == nil {
			out.CyclePrefix = string(p)
		}
		if l, err := schedule.MarshalSteps(rep.CycleLoop); err == nil {
			out.CycleLoop = string(l)
		}
	}
	outcome := OutcomeOK
	var reason runctl.StopReason
	if rep.Partial {
		outcome, reason = OutcomePartial, rep.StopReason
	}
	j.finish(outcome, reason, out, nil)
}

func (s *Server) executeFuzz(ctx context.Context, j *job) {
	spec := j.spec
	rep, err := fuzzsched.Campaign(ctx, fuzzsched.Config{
		Alg:      spec.Alg,
		N:        spec.N,
		Topology: spec.Topology,
		Mode:     j.mode,
		Seed:     spec.Seed,
		Campaign: spec.Campaign,
		// One in-process worker per job: server-level parallelism comes
		// from the pool, and a single job must not grab GOMAXPROCS workers.
		Workers:   1,
		ConcEvery: spec.ConcEvery,
		Budget:    engineBudget(j.budget),
		Metrics:   j.met,
	})
	if err != nil {
		j.finish(OutcomeFailed, runctl.StopNone, nil, err)
		return
	}
	out := FuzzResult{
		Summary:    rep.String(),
		Contract:   rep.Contract,
		Schedules:  rep.Schedules,
		StatesSeen: rep.StatesSeen,
	}
	for _, f := range rep.Violations {
		out.Violations = append(out.Violations, FuzzFinding{Detail: f.String(), Witness: f.WitnessJSON})
	}
	for _, d := range rep.Divergences {
		out.Divergences = append(out.Divergences, strings.TrimSpace(d.String()))
	}
	outcome := OutcomeOK
	var reason runctl.StopReason
	if rep.Partial {
		outcome, reason = OutcomePartial, rep.StopReason
	}
	j.finish(outcome, reason, out, nil)
}
