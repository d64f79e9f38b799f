// Package contract is the pluggable correctness layer: a Contract states
// what a protocol promises (its safety properties), where the promise is
// checked (at termination, or as an invariant over every suffix once it
// holds), and what kind of liveness backs it (a wait-freedom round bound,
// convergence, or closure + convergence for self-stabilization).
//
// Every verification surface consumes the contract instead of hard-coding
// the terminating-coloring shape: the model checker derives its per-state
// invariant and its liveness analysis from it, the schedule fuzzer derives
// its safety and liveness oracles from it, and the CLIs label verdicts
// with the contract and property that produced them. See DESIGN.md §15.
package contract

import (
	"fmt"

	"asynccycle/internal/graph"
	"asynccycle/internal/sim"
)

// TerminalPolicy states where a contract's safety properties are
// evaluated.
type TerminalPolicy int

const (
	// CheckAtTermination: the properties constrain the outputs of
	// terminated processes — the classic decision-task shape. The model
	// checker may evaluate them at every reachable state because the
	// properties only read Done outputs, but the promise is about
	// terminal configurations.
	CheckAtTermination TerminalPolicy = iota
	// InvariantOnLegalSuffix: the properties define a set of legitimate
	// configurations; the promise is closure — once a reachable
	// configuration is legitimate, every successor stays legitimate — so
	// the properties hold as an invariant on every legal suffix. The
	// self-stabilization shape: transient illegitimate states are not
	// violations.
	InvariantOnLegalSuffix
)

// String names the policy for verdict labels.
func (p TerminalPolicy) String() string {
	switch p {
	case CheckAtTermination:
		return "at-termination"
	case InvariantOnLegalSuffix:
		return "legal-suffix-invariant"
	}
	return fmt.Sprintf("TerminalPolicy(%d)", int(p))
}

// LivenessKind states what progress guarantee backs the contract.
type LivenessKind int

const (
	// WaitFreeBounded: every non-crashed process decides within the
	// descriptor's per-process round bound regardless of the schedule.
	WaitFreeBounded LivenessKind = iota
	// Convergence: executions reach a legitimate configuration from the
	// protocol's own initial states, with no uniform per-process bound.
	Convergence
	// ClosureConvergence: from *arbitrary* initial configurations every
	// fair execution reaches a legitimate configuration (convergence) and
	// legitimate configurations are closed under steps (closure) — the
	// self-stabilization guarantee.
	ClosureConvergence
)

// String names the liveness kind for verdict labels.
func (k LivenessKind) String() string {
	switch k {
	case WaitFreeBounded:
		return "wait-free-bounded"
	case Convergence:
		return "convergence"
	case ClosureConvergence:
		return "closure+convergence"
	}
	return fmt.Sprintf("LivenessKind(%d)", int(k))
}

// Property is one named safety predicate over an execution outcome. The
// name is the provenance label a violation carries (e.g. "proper-edge").
//
// Check must treat r as read-only and must not keep r or its slices past
// the call: the model checker passes a sim.Engine.View whose slices alias
// the live engine, so a write would change the explored configuration.
type Property struct {
	Name  string
	Check func(g graph.Graph, r sim.Result) error
}

// Contract is the pluggable correctness specification a protocol
// registers. Safety evaluates the conjunction of the properties;
// implementations label violations "contract=<name> property=<prop>: …"
// unless they are bare (Labeled reports which).
type Contract interface {
	// ContractName identifies the contract in verdict labels and report
	// headers ("coloring", "approx-agreement", "ss-coloring").
	ContractName() string
	// TerminalPolicy states where the safety properties are evaluated.
	TerminalPolicy() TerminalPolicy
	// Liveness states the progress guarantee backing the contract.
	Liveness() LivenessKind
	// Properties lists the named safety predicates in evaluation order.
	Properties() []Property
	// Safety evaluates the properties against one outcome and returns the
	// first violation, or nil. r may alias engine storage (the model
	// checker passes sim.Engine.View): Safety must treat it as read-only
	// and must not keep r or its slices past the call.
	Safety(g graph.Graph, r sim.Result) error
	// Labeled reports whether violations and verdict lines carry
	// contract/property provenance labels. Bare contracts return false
	// so pre-contract output stays byte-identical.
	Labeled() bool
}

// Violation formats a labeled contract violation. Checkers use it when
// they detect a contract-level failure themselves (outside a Property),
// e.g. a closure breach found by the model checker.
func Violation(contractName, property string, err error) error {
	return fmt.Errorf("contract=%s property=%s: %w", contractName, property, err)
}

// Terminating is the decision-task contract: safety properties checked at
// termination, liveness a wait-freedom round bound (or Convergence for
// terminating protocols documented without a uniform bound).
type Terminating struct {
	// Name is the contract label ("coloring", "approx-agreement").
	Name string
	// Props are the safety predicates, evaluated in order.
	Props []Property
	// Kind is the liveness guarantee; the zero value is WaitFreeBounded.
	Kind LivenessKind
	// Bare, when set, makes Safety return property errors unlabeled and
	// verdict lines print the property name alone — the protocols that
	// predate contracts set it to keep their recorded output byte-exact.
	Bare bool
}

// ContractName implements Contract.
func (c *Terminating) ContractName() string { return c.Name }

// TerminalPolicy implements Contract: properties are checked at
// termination.
func (c *Terminating) TerminalPolicy() TerminalPolicy { return CheckAtTermination }

// Liveness implements Contract.
func (c *Terminating) Liveness() LivenessKind { return c.Kind }

// Properties implements Contract.
func (c *Terminating) Properties() []Property { return c.Props }

// Labeled implements Contract.
func (c *Terminating) Labeled() bool { return !c.Bare }

// Safety evaluates the properties in order and returns the first
// violation — labeled with contract/property provenance unless Bare.
func (c *Terminating) Safety(g graph.Graph, r sim.Result) error {
	for _, p := range c.Props {
		if err := p.Check(g, r); err != nil {
			if c.Bare {
				return err
			}
			return Violation(c.Name, p.Name, err)
		}
	}
	return nil
}

// Stabilizing is the self-stabilization contract: the properties define
// the legitimate configurations, the promise is closure + convergence
// from arbitrary initial states, and nothing terminates — processes run
// forever and the published register values (sim.Result.Values) carry the
// configuration.
type Stabilizing struct {
	// Name is the contract label ("ss-coloring").
	Name string
	// Props define legitimacy: a configuration is legitimate exactly when
	// every property accepts it.
	Props []Property
	// ConvergenceBound returns, for instance size n, a number of fair
	// round-robin activations after which any execution must have reached
	// a legitimate configuration — the fuzzer's convergence oracle. A
	// non-positive return disables the oracle.
	ConvergenceBound func(n int) int
}

// ContractName implements Contract.
func (c *Stabilizing) ContractName() string { return c.Name }

// TerminalPolicy implements Contract: legitimacy is an invariant on every
// legal suffix, not a terminal-state check.
func (c *Stabilizing) TerminalPolicy() TerminalPolicy { return InvariantOnLegalSuffix }

// Liveness implements Contract.
func (c *Stabilizing) Liveness() LivenessKind { return ClosureConvergence }

// Properties implements Contract.
func (c *Stabilizing) Properties() []Property { return c.Props }

// Labeled implements Contract: stabilizing contracts always label.
func (c *Stabilizing) Labeled() bool { return true }

// Safety reports whether the configuration is legitimate — the first
// violated legitimacy property, labeled, or nil. Callers that need
// "illegitimate but not a violation" semantics (the fuzzer's transient
// states, the model checker's convergence analysis) call this as the
// legitimacy predicate rather than as a verdict.
func (c *Stabilizing) Safety(g graph.Graph, r sim.Result) error {
	for _, p := range c.Props {
		if err := p.Check(g, r); err != nil {
			return Violation(c.Name, p.Name, err)
		}
	}
	return nil
}
