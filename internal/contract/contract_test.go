package contract

import (
	"errors"
	"strings"
	"testing"

	"asynccycle/internal/graph"
	"asynccycle/internal/sim"
)

func pass(graph.Graph, sim.Result) error { return nil }

func fail(msg string) func(graph.Graph, sim.Result) error {
	return func(graph.Graph, sim.Result) error { return errors.New(msg) }
}

func TestTerminatingLabelsFirstViolation(t *testing.T) {
	c := &Terminating{
		Name: "coloring",
		Props: []Property{
			{Name: "proper-edge", Check: pass},
			{Name: "palette", Check: fail("color 9 out of range")},
			{Name: "never-reached", Check: fail("should not run")},
		},
	}
	g := graph.MustCycle(4)
	err := c.Safety(g, sim.Result{})
	if err == nil {
		t.Fatal("expected a violation")
	}
	want := "contract=coloring property=palette: color 9 out of range"
	if err.Error() != want {
		t.Fatalf("labeled violation = %q, want %q", err, want)
	}
	if !c.Labeled() {
		t.Error("non-bare terminating contract must report Labeled")
	}
}

func TestTerminatingBareKeepsLegacyText(t *testing.T) {
	c := &Terminating{
		Name:  "coloring",
		Props: []Property{{Name: "validity", Check: fail("nodes 1 and 2 share color 3")}},
		Bare:  true,
	}
	g := graph.MustCycle(4)
	err := c.Safety(g, sim.Result{})
	if err == nil || err.Error() != "nodes 1 and 2 share color 3" {
		t.Fatalf("bare violation = %v, want the unlabeled legacy text", err)
	}
	if c.Labeled() {
		t.Error("bare contract must not report Labeled")
	}
	if c.Safety(g, sim.Result{Done: []bool{true}}) == nil {
		t.Error("bare mode must still report the violation")
	}
}

func TestTerminatingDefaults(t *testing.T) {
	c := &Terminating{Name: "x"}
	if c.TerminalPolicy() != CheckAtTermination {
		t.Error("terminating contract must check at termination")
	}
	if c.Liveness() != WaitFreeBounded {
		t.Error("zero Kind must be WaitFreeBounded")
	}
	if err := c.Safety(graph.MustCycle(3), sim.Result{}); err != nil {
		t.Errorf("empty property list must accept: %v", err)
	}
}

func TestStabilizingShape(t *testing.T) {
	c := &Stabilizing{
		Name:  "ss-coloring",
		Props: []Property{{Name: "proper-ring", Check: fail("conflict at edge (0,1)")}},
	}
	if c.TerminalPolicy() != InvariantOnLegalSuffix {
		t.Error("stabilizing contract must use the legal-suffix policy")
	}
	if c.Liveness() != ClosureConvergence {
		t.Error("stabilizing contract must promise closure+convergence")
	}
	if !c.Labeled() {
		t.Error("stabilizing contracts always label")
	}
	err := c.Safety(graph.MustCycle(4), sim.Result{})
	if err == nil || !strings.Contains(err.Error(), "contract=ss-coloring property=proper-ring:") {
		t.Fatalf("legitimacy violation = %v, want labeled provenance", err)
	}
}

func TestEnumStrings(t *testing.T) {
	cases := map[string]string{
		CheckAtTermination.String():     "at-termination",
		InvariantOnLegalSuffix.String(): "legal-suffix-invariant",
		WaitFreeBounded.String():        "wait-free-bounded",
		Convergence.String():            "convergence",
		ClosureConvergence.String():     "closure+convergence",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("enum string %q, want %q", got, want)
		}
	}
	if TerminalPolicy(9).String() != "TerminalPolicy(9)" || LivenessKind(9).String() != "LivenessKind(9)" {
		t.Error("out-of-range enums must render their numeric form")
	}
}
