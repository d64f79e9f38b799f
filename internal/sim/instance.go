package sim

// Instance is a type-erased handle on one running protocol instance: the
// minimal engine surface the schedule fuzzer needs, independent of the
// engine's register value type (or, for non-register models like
// DECOUPLED, of the engine itself). The model checker does not use it: it
// steps and undoes the typed engines in place.
//
// An Instance satisfies schedule.State, so any Scheduler can drive it. The
// fingerprint contract matches Engine's: two instances with equal
// fingerprints behave identically under identical future schedules.
type Instance interface {
	// N returns the number of processes (schedule.State).
	N() int
	// Time returns the index of the next step (schedule.State).
	Time() int
	// Working reports whether process i is neither terminated nor crashed
	// (schedule.State).
	Working(i int) bool
	// Activations counts the rounds process i performed (schedule.State).
	Activations(i int) int
	// AppendWorking appends the working processes in ascending order
	// (schedule.State).
	AppendWorking(buf []int) []int
	// AllDone reports whether every process terminated with an output.
	AllDone() bool
	// AllSettled reports whether every process terminated or crashed.
	AllSettled() bool
	// Step executes one time step activating the given processes and
	// returns the processes that actually performed a round. The returned
	// slice may be scratch storage owned by the instance.
	Step(active []int) []int
	// Result snapshots the current execution state.
	Result() Result
	// FingerprintHash128 returns the two-lane compact fingerprint.
	FingerprintHash128() (uint64, uint64)
	// Clone deep-copies the instance for execution branching.
	Clone() Instance
	// CloneInto deep-copies the instance, reusing dst's storage when dst
	// came from the same protocol (otherwise it behaves like Clone).
	CloneInto(dst Instance) Instance
}

// engineInstance adapts a typed *Engine[V] to the erased Instance surface.
type engineInstance[V any] struct {
	e *Engine[V]
}

// InstanceOf wraps a typed engine as a type-erased Instance. The wrapper
// delegates every call, so the warm Step path stays allocation-free.
func InstanceOf[V any](e *Engine[V]) Instance { return &engineInstance[V]{e: e} }

func (x *engineInstance[V]) N() int                               { return x.e.N() }
func (x *engineInstance[V]) Time() int                            { return x.e.Time() }
func (x *engineInstance[V]) Working(i int) bool                   { return x.e.Working(i) }
func (x *engineInstance[V]) Activations(i int) int                { return x.e.Activations(i) }
func (x *engineInstance[V]) AppendWorking(buf []int) []int        { return x.e.AppendWorking(buf) }
func (x *engineInstance[V]) AllDone() bool                        { return x.e.AllDone() }
func (x *engineInstance[V]) AllSettled() bool                     { return x.e.AllSettled() }
func (x *engineInstance[V]) Step(active []int) []int              { return x.e.Step(active) }
func (x *engineInstance[V]) Result() Result                       { return x.e.Result() }
func (x *engineInstance[V]) FingerprintHash128() (uint64, uint64) { return x.e.FingerprintHash128() }

func (x *engineInstance[V]) Clone() Instance {
	return &engineInstance[V]{e: x.e.Clone()}
}

func (x *engineInstance[V]) CloneInto(dst Instance) Instance {
	if d, ok := dst.(*engineInstance[V]); ok && d != nil {
		d.e = x.e.CloneInto(d.e)
		return d
	}
	return x.Clone()
}
