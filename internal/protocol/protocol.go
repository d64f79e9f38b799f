// Package protocol is the unified algorithm registry: one pluggable layer
// that every dispatch site — the root facade, the model-checking and
// fuzzing engines, the experiment runners, and all four CLIs — consults
// instead of hard-coding per-algorithm switches.
//
// A protocol registers a Descriptor: metadata (name, aliases, problem,
// palette, wait-freedom bound, topology) plus capability closures
// (construct an instance for exhaustive exploration, run deterministically,
// run concurrently, model-check, sweep). Capabilities are nilable — a
// protocol exposes exactly the surfaces its model supports, and callers
// gate on non-nil closures rather than on protocol names. See DESIGN.md
// §10 for the descriptor contract.
package protocol

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"text/tabwriter"

	"asynccycle/internal/bigsim"
	"asynccycle/internal/check"
	"asynccycle/internal/conc"
	"asynccycle/internal/contract"
	"asynccycle/internal/graph"
	"asynccycle/internal/model"
	"asynccycle/internal/runctl"
	"asynccycle/internal/schedule"
	"asynccycle/internal/sim"
)

// RunOptions tunes one deterministic execution through Descriptor.Run. The
// zero value (plus a positive MaxSteps) runs synchronously, crash-free,
// without budget.
type RunOptions struct {
	// Scheduler drives the execution; nil means schedule.Synchronous{}.
	Scheduler schedule.Scheduler
	// Mode selects the activation semantics for protocols that support
	// both (Descriptor.Modes); protocols with native semantics ignore it.
	Mode sim.Mode
	// Crashes maps a process index to a round count after which it
	// crashes (0 = never wakes).
	Crashes map[int]int
	// MaxSteps bounds the execution length; exceeding it returns an error
	// wrapping the engine's step-limit sentinel. Must be positive.
	MaxSteps int
	// TraceText, when non-nil, receives the per-event text trace after a
	// successful run (protocols without trace support return an error).
	TraceText io.Writer
	// Context, when non-nil, switches to the budgeted run path: the
	// engine stops between steps once ctx is done and returns the partial
	// result with the StopReason.
	Context context.Context
	// Budget bounds the run along explicit axes; a non-zero Budget also
	// selects the budgeted run path.
	Budget runctl.Budget
}

// CrashPlan is the deterministic adversarial crash plan the CLIs, the job
// server and the experiments share: ⌊frac·n⌋ picks, the i-th crashing
// process (7919·i + seed) mod n after i mod 5 of its own rounds (0 = never
// wakes); a later pick of the same process overrides an earlier one. The
// residue is the non-negative one for every seed, negative or near the
// int64 limits, and each pick is one addition mod n from the last, so no
// intermediate overflows.
func CrashPlan(frac float64, n int, seed int64) map[int]int {
	crashes := map[int]int{}
	count := int(frac * float64(n))
	if count <= 0 {
		return crashes
	}
	pick, step := int(seed%int64(n)), 7919%n
	if pick < 0 {
		pick += n
	}
	for i := 0; i < count; i++ {
		crashes[pick] = i % 5
		pick = (pick + step) % n
	}
	return crashes
}

// budgeted reports whether the options select the budget-aware run path,
// mirroring the facade's historical dispatch condition exactly.
func (o RunOptions) budgeted() bool {
	return o.Context != nil || !o.Budget.IsZero()
}

// Descriptor is a self-describing protocol: identity and metadata first,
// then capability closures. Closures may be nil — callers must gate on
// them (Capabilities lists the non-nil ones).
type Descriptor struct {
	// Name is the canonical registry key (lowercase, no spaces).
	Name string
	// Aliases are accepted alternative names (e.g. "pair" for "six").
	Aliases []string
	// Problem is the one-line task statement ("6-coloring of the cycle").
	Problem string
	// Source cites the algorithm's origin ("Algorithm 2 (Thm 3.4)").
	Source string
	// TopologyName names the communication graph family ("cycle", "K_n").
	TopologyName string
	// MinN is the smallest supported instance size.
	MinN int
	// Palette describes the output range in human terms.
	Palette string
	// BoundDesc states the wait-freedom bound symbolically, or "—".
	BoundDesc string
	// Expectation summarizes the verified verdict (safe/wait-free/…) for
	// the -list tables.
	Expectation string
	// Family is the native topology family the metadata above is stated
	// for — the graph.Builder family ("cycle", "complete", …) matching
	// the Topology closure. WithTopology treats a spec resolving to this
	// family's plain form as a no-op; empty means the descriptor opts out
	// of retargeting entirely.
	Family string
	// Topologies lists additional builder families the protocol's state
	// machine is degree-generic over. WithTopology refuses any family
	// that is neither Family nor listed here, so capability gating stays
	// honest: a protocol earns a family by declaring it, not by luck.
	Topologies []string

	// Bound returns the per-process wait-freedom round bound for size n,
	// or ≤ 0 when the protocol is not wait-free (liveness oracles must
	// then be disabled).
	Bound func(n int) int
	// Topology builds the communication graph for n processes.
	Topology func(n int) (graph.Graph, error)
	// ValidateIDs checks the protocol's input precondition on the
	// identifier vector (nil = only distinctness-free defaults apply).
	ValidateIDs func(xs []int) error

	// Contract is the protocol's correctness contract, the one property
	// surface every checker consumes: the model checker evaluates
	// Contract.Safety as its per-state invariant, the fuzzer as its
	// safety oracle, and the run surfaces print one verdict line per
	// property (see Verdicts). Required.
	Contract contract.Contract

	// NewInstance constructs a fresh type-erased instance for schedule
	// fuzzing. Nil means the protocol cannot be branched (no deep-copyable
	// configuration).
	NewInstance func(xs []int, mode sim.Mode, crashes map[int]int) (sim.Instance, error)
	// Run executes one deterministic schedule to completion.
	Run func(xs []int, o RunOptions) (sim.Result, runctl.StopReason, error)
	// RunConc executes with real goroutines (nil = no concurrent runtime).
	RunConc func(xs []int, o conc.Options) (sim.Result, error)
	// Check exhaustively explores all schedules, checking Contract.Safety.
	Check func(xs []int, mode sim.Mode, opt model.Options) (model.Report, error)
	// Worst computes exact per-process worst-case round counts.
	Worst func(xs []int, mode sim.Mode, opt model.Options) ([]int, bool, model.Report, error)
	// Sweep explores all identifier assignments of size n up to symmetry.
	// The engine-derived sweeps explore opt.Workers orbit representatives
	// at once, every CPU when opt.Workers <= 0, and report exactly what
	// the serial sweep reports. A sweep that cannot honour
	// opt.ShardCount, OnOrbitDone or SweepResume refuses them with an
	// error instead of ignoring them.
	Sweep func(n int, mode sim.Mode, opt model.Options) (model.SweepReport, error)
	// SweepWorst computes worst-case rounds over all assignments, with
	// Sweep's worker default.
	SweepWorst func(n int, mode sim.Mode, opt model.Options) (model.SweepReport, error)
	// BigKernel builds the protocol's struct-of-arrays kernel for the
	// high-throughput large-cycle engine (internal/bigsim). Nil means the
	// protocol has no big-run surface; cmd/colorcycle, colorserved and
	// the big-engine benchmarks gate their large-n paths on it.
	BigKernel func(xs []int) (bigsim.Kernel, error)

	// Modes lists the activation semantics the protocol supports; empty
	// means it has a single native semantics and ignores RunOptions.Mode.
	Modes []sim.Mode
	// FuzzIDs draws a random identifier vector satisfying the protocol's
	// input precondition (nil = distinct uniform identifiers).
	FuzzIDs func(rng *rand.Rand, n int) []int
	// FixN normalizes a fuzzed instance size to one the protocol accepts
	// (nil = any n ≥ MinN).
	FixN func(n int) int
	// DefaultCheckDepth bounds Check's schedule length when the caller
	// does not choose one. Protocols whose state graph is infinite (the
	// DECOUPLED tick counter never repeats) need a finite horizon or the
	// checker runs to its state budget; 0 means the model package default
	// is fine because the state graph is finite.
	DefaultCheckDepth int

	// retarget rebuilds the capability closures over a different topology
	// builder, returning an unregistered copy. RegisterEngine installs it
	// for engine-backed protocols; WithTopology is the public entry.
	retarget func(b graph.Builder) (*Descriptor, error)
}

// SupportsMode reports whether the protocol implements the given
// activation semantics (protocols with empty Modes support only their
// native semantics, addressed as ModeInterleaved).
func (d *Descriptor) SupportsMode(m sim.Mode) bool {
	if len(d.Modes) == 0 {
		return m == sim.ModeInterleaved
	}
	for _, x := range d.Modes {
		if x == m {
			return true
		}
	}
	return false
}

// Capabilities lists the non-nil capability surfaces, comma-separated, in
// a fixed order — the -list tables print it.
func (d *Descriptor) Capabilities() string {
	return strings.Join(d.CapabilityList(), ",")
}

// CapabilityList lists the non-nil capability surfaces in the same fixed
// order as Capabilities — the registry's machine-readable self-description
// (see Info).
func (d *Descriptor) CapabilityList() []string {
	var caps []string
	if d.Run != nil {
		caps = append(caps, "run")
	}
	if d.RunConc != nil {
		caps = append(caps, "conc")
	}
	if d.Check != nil {
		caps = append(caps, "check")
	}
	if d.Worst != nil {
		caps = append(caps, "worst")
	}
	if d.Sweep != nil {
		caps = append(caps, "sweep")
	}
	if d.NewInstance != nil {
		caps = append(caps, "fuzz")
	}
	if d.BigKernel != nil {
		caps = append(caps, "big")
	}
	return caps
}

// registry holds the descriptors in registration order plus a
// case-insensitive name/alias index.
var registry = struct {
	sync.RWMutex
	ordered []*Descriptor
	byName  map[string]*Descriptor
}{byName: make(map[string]*Descriptor)}

// Register adds a descriptor to the registry. It rejects descriptors
// missing the required surfaces (Name, Problem, Topology, Run, Contract)
// and any name or alias already taken.
func Register(d *Descriptor) error {
	if d == nil || d.Name == "" {
		return fmt.Errorf("protocol: descriptor without a name")
	}
	if d.Problem == "" || d.Topology == nil || d.Run == nil || d.Contract == nil {
		return fmt.Errorf("protocol: descriptor %q missing a required field (Problem, Topology, Run, Contract)", d.Name)
	}
	keys := append([]string{d.Name}, d.Aliases...)
	registry.Lock()
	defer registry.Unlock()
	for _, k := range keys {
		k = strings.ToLower(strings.TrimSpace(k))
		if k == "" {
			return fmt.Errorf("protocol: descriptor %q has an empty alias", d.Name)
		}
		if prev, dup := registry.byName[k]; dup {
			return fmt.Errorf("protocol: name %q already registered by %q", k, prev.Name)
		}
	}
	for _, k := range keys {
		registry.byName[strings.ToLower(strings.TrimSpace(k))] = d
	}
	registry.ordered = append(registry.ordered, d)
	return nil
}

// ContractLabel returns the contract name for verdict labels and report
// headers, or "" for bare contracts — callers omit the field then,
// keeping pre-contract output byte-identical.
func (d *Descriptor) ContractLabel() string {
	if !d.Contract.Labeled() {
		return ""
	}
	return d.Contract.ContractName()
}

// Verdict is one verdict line of a run: its label and the violation the
// line found, nil when it holds.
type Verdict struct {
	Name string
	Err  error
}

// Verdicts evaluates a run outcome property by property — the verdict
// lines every run surface (colorcycle, colorserved run jobs, E22) reports.
// Each contract property gives one line, labeled
// "contract=<name> property=<prop>" unless the contract is bare; contracts
// checked at termination add a "survivors terminated" line. Verdicts
// stay meaningful on a cut-short run: the properties count only
// terminated processes.
func (d *Descriptor) Verdicts(g graph.Graph, r sim.Result) []Verdict {
	c := d.Contract
	var out []Verdict
	for _, p := range c.Properties() {
		name := p.Name
		if c.Labeled() {
			name = fmt.Sprintf("contract=%s property=%s", c.ContractName(), p.Name)
		}
		out = append(out, Verdict{Name: name, Err: p.Check(g, r)})
	}
	if c.TerminalPolicy() == contract.CheckAtTermination {
		out = append(out, Verdict{Name: "survivors terminated", Err: check.SurvivorsTerminated(r)})
	}
	return out
}

// MustRegister is Register, panicking on error; builtin descriptors use it
// at init time.
func MustRegister(d *Descriptor) {
	if err := Register(d); err != nil {
		panic(err)
	}
}

// Lookup resolves a protocol by name or alias, case-insensitively.
func Lookup(name string) (*Descriptor, error) {
	registry.RLock()
	defer registry.RUnlock()
	if d, ok := registry.byName[strings.ToLower(strings.TrimSpace(name))]; ok {
		return d, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (registered: %s)", name, strings.Join(namesLocked(), "|"))
}

// All returns the registered descriptors in registration order.
func All() []*Descriptor {
	registry.RLock()
	defer registry.RUnlock()
	return append([]*Descriptor(nil), registry.ordered...)
}

// Names returns the canonical protocol names in registration order.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, len(registry.ordered))
	for i, d := range registry.ordered {
		out[i] = d.Name
	}
	return out
}

// WriteList renders the registry as an aligned table — the shared
// implementation behind every CLI's -list flag.
func WriteList(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tALIASES\tPROBLEM\tGRAPH\tPALETTE\tBOUND\tCONTRACT\tCAPABILITIES")
	for _, d := range All() {
		aliases := strings.Join(d.Aliases, ",")
		if aliases == "" {
			aliases = "—"
		}
		bound := d.BoundDesc
		if bound == "" {
			bound = "—"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			d.Name, aliases, d.Problem, d.TopologyName, d.Palette, bound, d.Contract.ContractName(), d.Capabilities())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, d := range All() {
		if d.Expectation != "" {
			fmt.Fprintf(w, "  %-16s %s\n", d.Name+":", d.Expectation)
		}
	}
	return nil
}
