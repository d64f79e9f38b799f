package main

import (
	"fmt"
	"os"
	"time"

	"asynccycle/internal/graph"
	"asynccycle/internal/ooc"
	"asynccycle/internal/sim"
)

// layerTimes accumulates a traced check's layer costs and the exact number
// of calls the checker made: one contract evaluation per explored state,
// one clone and one step per child, one fingerprint per DFS entry (every
// child plus each exploration's root).
type layerTimes struct {
	safety, clone, step, fp, canon costSum
	explored, children, roots      int64
}

func (a *layerTimes) merge(b layerTimes) {
	for _, p := range [][2]*costSum{{&a.safety, &b.safety}, {&a.clone, &b.clone}, {&a.step, &b.step}, {&a.fp, &b.fp}, {&a.canon, &b.canon}} {
		p[0].addNS(p[1].ns, int(p[1].calls))
	}
	a.explored += b.explored
	a.children += b.children
	a.roots += b.roots
}

// tracer's hook is the model.Invariant of a traced check. It evaluates the
// contract as the registry's invariant does, timing it, and then repeats
// the checker's per-state work on private copies — clone, step and
// fingerprint every child — to time those calls and record the children's
// keys for the probe replay. The checker's own calls stay untouched.
type tracer[V any] struct {
	g      graph.Graph
	safety func(graph.Graph, sim.Result) error
	canon  bool // the checker keys states by canonical fingerprint
	lt     *layerTimes
	ks     *keyStream
	pool   []*sim.Engine[V]
	work   []int
	keys   []ooc.Key
	sink   uint64
}

func (t *tracer[V]) key(e *sim.Engine[V]) ooc.Key {
	if t.canon {
		h1, h2, _, _ := e.CanonicalFingerprintHash128()
		return ooc.Key{H1: h1, H2: h2}
	}
	h1, h2 := e.FingerprintHash128()
	return ooc.Key{H1: h1, H2: h2}
}

func (t *tracer[V]) hook(e *sim.Engine[V]) error {
	t0 := time.Now()
	err := t.safety(t.g, e.Result())
	t.lt.safety.add(time.Since(t0), 1)
	t.lt.explored++
	if e.Time() == 1 { // no step taken yet: the root of a new exploration
		t.lt.roots++
		t.ks.runs = append(t.ks.runs, streamRun{root: t.key(e)})
	}
	run := &t.ks.runs[len(t.ks.runs)-1]

	t.work = t.work[:0]
	if !e.AllDone() {
		for i := 0; i < e.N(); i++ {
			if e.Working(i) {
				t.work = append(t.work, i)
			}
		}
	}
	k := len(t.work)
	run.counts = append(run.counts, int32(k))
	if k == 0 {
		return err
	}
	t.lt.children += int64(k)
	for len(t.pool) < k {
		t.pool = append(t.pool, nil)
	}

	t0 = time.Now()
	for j := 0; j < k; j++ {
		t.pool[j] = e.CloneInto(t.pool[j])
	}
	t.lt.clone.add(time.Since(t0), k)

	t0 = time.Now()
	for j := 0; j < k; j++ {
		t.pool[j].Step(t.work[j : j+1])
	}
	t.lt.step.add(time.Since(t0), k)

	own, other := &t.lt.fp, &t.lt.canon
	if t.canon {
		own, other = other, own
	}
	t.keys = t.keys[:0]
	t0 = time.Now()
	for j := 0; j < k; j++ {
		t.keys = append(t.keys, t.key(t.pool[j]))
	}
	own.add(time.Since(t0), k)
	run.kids = append(run.kids, t.keys...)

	// The scheme the checker does not use is timed on every 8th state.
	if t.lt.explored%8 == 0 {
		t0 = time.Now()
		for j := 0; j < k; j++ {
			if t.canon {
				h1, _ := t.pool[j].FingerprintHash128()
				t.sink ^= h1
			} else {
				h1, _, _, _ := t.pool[j].CanonicalFingerprintHash128()
				t.sink ^= h1
			}
		}
		other.add(time.Since(t0), k)
	}
	return err
}

// keyStream is what the tracing hook saw of a check, one streamRun per
// exploration (a sweep makes one per assignment).
type keyStream struct {
	runs []streamRun
}

// streamRun holds the root's key and, for each explored state in the
// order the hook saw it, the keys of its children in stepping order.
type streamRun struct {
	root   ooc.Key
	kids   []ooc.Key
	counts []int32
}

// probeOrder rebuilds the order of the serial DFS's visited-set probes:
// the root, then each child as the DFS enters it. The hook fires once per
// newly visited state, in DFS pre-order, so the state behind the i-th
// first-seen key is the i-th state the hook saw; walking the children
// lists with a seen set interleaves probes and descents exactly as the
// checker did. states is the number of states the walk visited, which
// equals len(r.counts) when the stream is consistent.
func (r *streamRun) probeOrder() (probes []ooc.Key, states int) {
	offsets := make([]int, len(r.counts)+1)
	for i, c := range r.counts {
		offsets[i+1] = offsets[i] + int(c)
	}
	seen := map[ooc.Key]struct{}{r.root: {}}
	probes = append(make([]ooc.Key, 0, len(r.kids)+1), r.root)
	states = 1
	var visit func(i int)
	visit = func(i int) {
		for _, k := range r.kids[offsets[i]:offsets[i+1]] {
			probes = append(probes, k)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			j := states
			states++
			if j < len(r.counts) {
				visit(j)
			}
		}
	}
	visit(0)
	return probes, states
}

// oocReplay sums the out-of-core set's figures over replayed runs.
type oocReplay struct {
	cost                      costSum // Add calls
	added, spilled, pageReads int64
	runs, compactions         int
}

func (a *oocReplay) merge(b oocReplay) {
	a.cost.addNS(b.cost.ns, int(b.cost.calls))
	a.added += b.added
	a.spilled += b.spilled
	a.pageReads += b.pageReads
	a.runs += b.runs
	a.compactions += b.compactions
}

// replayOOC feeds each run's probes, in the checker's order, into a fresh
// ooc.Set with the given resident limit (≤ 0 selects ooc.DefaultMemLimit,
// which an in-RAM workload never reaches) and times the Add calls.
func replayOOC(dir string, limit int, runs []streamRun) (oocReplay, error) {
	var out oocReplay
	for i := range runs {
		probes, states := runs[i].probeOrder()
		if states != len(runs[i].counts) {
			return out, fmt.Errorf("probe replay visited %d states, the hook saw %d", states, len(runs[i].counts))
		}
		if err := replayRun(dir, limit, probes, &out); err != nil {
			return out, err
		}
	}
	return out, nil
}

func replayRun(dir string, limit int, probes []ooc.Key, out *oocReplay) error {
	sub, err := os.MkdirTemp(dir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sub)
	set, err := ooc.NewSet(sub, limit)
	if err != nil {
		return err
	}
	defer set.Close()
	t0 := time.Now()
	for _, k := range probes {
		added, err := set.Add(k.H1, k.H2)
		if err != nil {
			return fmt.Errorf("ooc replay: %w", err)
		}
		if added {
			out.added++
		}
	}
	out.cost.add(time.Since(t0), len(probes))
	st := set.Stats()
	out.spilled += st.SpilledKeys
	out.pageReads += st.PageReads
	out.runs += st.Runs
	out.compactions += st.Compactions
	return nil
}
