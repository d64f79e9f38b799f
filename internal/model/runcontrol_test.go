package model

// Internal tests for run control: they record the explorer's state keys
// to prove that a budgeted or cancelled exploration visits a
// prefix-consistent subset of the full run's states — partial results are
// genuine sub-explorations, never garbage.

import (
	"context"
	"testing"
	"time"

	"asynccycle/internal/core"
	"asynccycle/internal/graph"
	"asynccycle/internal/ids"
	"asynccycle/internal/ooc"
	"asynccycle/internal/runctl"
	"asynccycle/internal/sim"
)

// c5Pair builds the paper's Algorithm 1 instance on the 5-cycle, the
// standard non-trivial exploration target (~hundreds of thousands of
// states with singleton schedules).
func c5Pair(t *testing.T) *sim.Engine[core.PairVal] {
	t.Helper()
	g := graph.MustCycle(5)
	e, err := sim.NewEngine(g, core.NewPairNodes(ids.MustGenerate(ids.Increasing, 5, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// recordKeys makes x's invariant record the key of every state it is
// called on — the DFS calls it once per newly visited state — and then run
// inv (which may be nil). It returns the set the keys go into.
func recordKeys[V any](x *explorer[*sim.Engine[V], sim.Undo[V], struct{}], inv Invariant[V]) map[ooc.Key]struct{} {
	keys := make(map[ooc.Key]struct{})
	x.inv = func(e *sim.Engine[V]) error {
		keys[key(e)] = struct{}{}
		if inv != nil {
			return inv(e)
		}
		return nil
	}
	return keys
}

// exploreKeys runs the serial DFS, returning the report and the exact set
// of visited state keys.
func exploreKeys(root *sim.Engine[core.PairVal], opt Options) (Report, map[ooc.Key]struct{}) {
	x := newExplorer[*sim.Engine[core.PairVal], sim.Undo[core.PairVal], struct{}](opt)
	keys := recordKeys(x, nil)
	x.dfs(root, 0)
	return x.report, keys
}

func TestCancelledExploreIsPrefixConsistent(t *testing.T) {
	opt := Options{SingletonsOnly: true}

	full, fullKeys := exploreKeys(c5Pair(t), opt)
	if full.Partial || full.StopReason != runctl.StopNone {
		t.Fatalf("full run marked partial: %s", full)
	}

	// Cancel from inside the run once enough states have been seen; the
	// amortized checker trips within checkEvery further states.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := full.States / 4
	if cut < 1 {
		t.Fatalf("full exploration too small to cut: %s", full)
	}
	popt := opt
	popt.Context = ctx
	x := newExplorer[*sim.Engine[core.PairVal], sim.Undo[core.PairVal], struct{}](popt)
	keys := recordKeys(x, func(e *sim.Engine[core.PairVal]) error {
		if x.report.States == cut {
			cancel()
		}
		return nil
	})
	x.dfs(c5Pair(t), 0)
	partial := x.report

	if !partial.Partial {
		t.Fatalf("cancelled run not marked partial: %s", partial)
	}
	if partial.StopReason != runctl.StopCancelled {
		t.Fatalf("stop reason = %q, want %q", partial.StopReason, runctl.StopCancelled)
	}
	if !partial.Truncated || partial.Ok() {
		t.Fatalf("cancelled run must be truncated and not Ok: %s", partial)
	}
	if partial.States >= full.States || partial.States < cut {
		t.Fatalf("partial states = %d, want in [%d, %d)", partial.States, cut, full.States)
	}
	if partial.States != len(keys) {
		t.Fatalf("States=%d but %d keys collected", partial.States, len(keys))
	}
	for k := range keys {
		if _, ok := fullKeys[k]; !ok {
			t.Fatalf("partial run visited a state the full run never reached")
		}
	}
	if partial.Terminal > full.Terminal {
		t.Fatalf("partial terminal=%d exceeds full %d", partial.Terminal, full.Terminal)
	}
}

func TestExploreBudgetMaxStates(t *testing.T) {
	opt := Options{SingletonsOnly: true, MaxStates: 500}
	rep := Explore(c5Pair(t), opt, nil)
	if !rep.Partial || rep.StopReason != runctl.StopMaxStates {
		t.Fatalf("want partial max-states report, got %s", rep)
	}
	if rep.States < 500 || rep.States > 600 {
		t.Fatalf("states = %d, want ≈500 (bound plus in-flight branches)", rep.States)
	}
}

func TestExploreBudgetTimeout(t *testing.T) {
	// Full-subset schedules: the same 1690 states but ~10x the edges, so the
	// run takes tens of milliseconds and a 1ms deadline reliably trips.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	rep := Explore(c5Pair(t), Options{Context: ctx}, nil)
	if !rep.Partial || rep.StopReason != runctl.StopTimeout {
		t.Fatalf("want partial timeout report, got %s", rep)
	}
}

func TestWorstActivationsTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, ok, rep := WorstActivations(c5Pair(t), Options{Context: ctx})
	if ok {
		t.Fatal("interrupted longest-path analysis claimed a certified result")
	}
	if !rep.Partial || rep.StopReason != runctl.StopTimeout {
		t.Fatalf("want partial timeout report, got %s", rep)
	}
}

// The state-graph analyzers poll the run budget as the explorer does:
// under a context cancelled before they start, each stops expanding
// within checkEvery states and labels its report.
func TestStateGraphAnalyzersCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{SingletonsOnly: true}
	_, full := FairlyTerminates(c5Pair(t), opt)
	opt.Context = ctx
	_, fair := FairlyTerminates(c5Pair(t), opt)
	legal := func(*sim.Engine[core.PairVal]) error { return nil }
	stab := CheckStabilization(c5Pair(t), opt, legal).Explore
	for name, rep := range map[string]Report{"FairlyTerminates": fair, "CheckStabilization": stab} {
		if !rep.Partial || !rep.Truncated || rep.StopReason != runctl.StopCancelled {
			t.Errorf("%s under a cancelled context: %s, want truncated [PARTIAL: cancelled]", name, rep)
		}
		if rep.States >= full.States {
			t.Errorf("%s under a cancelled context interned %d states, the whole graph has %d", name, rep.States, full.States)
		}
	}
}

// A state or depth bound cuts the state-graph analyzers' exploration as
// it cuts Explore's: the report is truncated and PARTIAL with the bound's
// stop reason.
func TestStateGraphAnalyzersBounded(t *testing.T) {
	legal := func(*sim.Engine[core.PairVal]) error { return nil }
	for _, c := range []struct {
		opt  Options
		want runctl.StopReason
	}{
		{Options{SingletonsOnly: true, MaxStates: 100}, runctl.StopMaxStates},
		{Options{SingletonsOnly: true, MaxDepth: 3}, runctl.StopMaxDepth},
	} {
		_, fair := FairlyTerminates(c5Pair(t), c.opt)
		stab := CheckStabilization(c5Pair(t), c.opt, legal).Explore
		for name, rep := range map[string]Report{"FairlyTerminates": fair, "CheckStabilization": stab} {
			if !rep.Partial || !rep.Truncated || rep.StopReason != c.want {
				t.Errorf("%s bounded by %s: %s, want truncated [PARTIAL: %s]", name, c.want, rep, c.want)
			}
		}
	}
}
