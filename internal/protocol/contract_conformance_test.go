package protocol

// Registry-wide contract conformance: for every registered descriptor the
// contract's conjunctive Safety must agree with the per-property validity
// verdicts the run surfaces print (Verdicts) on a pinned battery of result
// shapes — Safety fails exactly when some property verdict fails, with the
// first failing property's error — and bare contracts must keep their
// historical unlabeled violation text while labeled contracts carry
// provenance.

import (
	"strings"
	"testing"

	"asynccycle/internal/contract"
	"asynccycle/internal/sim"
)

// conformanceBattery builds result shapes covering the interesting
// verdict space for n processes: nothing terminated, everything
// terminated monochromatic (improper for coloring protocols), outputs
// far out of any palette, a half-terminated alternation, and a
// stabilizing-style snapshot with register values recorded.
func conformanceBattery(n int) []sim.Result {
	mk := func(out func(i int) int, done func(i int) bool, values bool) sim.Result {
		r := sim.Result{
			Outputs: make([]int, n),
			Done:    make([]bool, n),
			Crashed: make([]bool, n),
		}
		for i := 0; i < n; i++ {
			r.Outputs[i] = out(i)
			r.Done[i] = done(i)
		}
		if values {
			r.Values = make([]int, n)
			for i := 0; i < n; i++ {
				r.Values[i] = out(i)
			}
		}
		return r
	}
	return []sim.Result{
		mk(func(int) int { return 0 }, func(int) bool { return false }, false),
		mk(func(int) int { return 0 }, func(int) bool { return true }, false),
		mk(func(int) int { return -7 }, func(int) bool { return true }, false),
		mk(func(i int) int { return 99 }, func(int) bool { return true }, false),
		mk(func(i int) int { return i % 2 }, func(i int) bool { return i%2 == 0 }, false),
		mk(func(i int) int { return i % 2 }, func(int) bool { return false }, true),
		mk(func(int) int { return 1 }, func(int) bool { return false }, true),
	}
}

func TestContractSafetyAgreesWithValidity(t *testing.T) {
	for _, d := range All() {
		t.Run(d.Name, func(t *testing.T) {
			n := d.MinN
			if n < 3 {
				n = 3
			}
			if d.FixN != nil {
				n = d.FixN(n)
			}
			g, err := d.Topology(n)
			if err != nil {
				t.Fatalf("topology(%d): %v", n, err)
			}
			props := len(d.Contract.Properties())
			for bi, r := range conformanceBattery(n) {
				verdicts := d.Verdicts(g, r)
				want := props
				if d.Contract.TerminalPolicy() == contract.CheckAtTermination {
					want++
				}
				if len(verdicts) != want {
					t.Fatalf("battery %d: %d verdict lines for %d properties", bi, len(verdicts), props)
				}
				var first *Verdict
				for i := range verdicts[:props] {
					if verdicts[i].Err != nil {
						first = &verdicts[i]
						break
					}
				}
				cErr := d.Contract.Safety(g, r)
				if (first == nil) != (cErr == nil) {
					t.Fatalf("battery %d: verdicts %v, Contract.Safety=%v — verdicts disagree", bi, verdicts, cErr)
				}
				if first == nil {
					continue
				}
				wantText := first.Err.Error()
				if d.Contract.Labeled() {
					wantText = first.Name + ": " + wantText
					if !strings.HasPrefix(cErr.Error(), "contract="+d.Contract.ContractName()+" property=") {
						t.Fatalf("battery %d: labeled contract violation lacks provenance: %q", bi, cErr)
					}
				} else if strings.Contains(cErr.Error(), "contract=") {
					t.Fatalf("battery %d: bare contract leaked a provenance label: %q", bi, cErr)
				}
				if cErr.Error() != wantText {
					t.Fatalf("battery %d: Contract.Safety=%q, first failing verdict %q — texts disagree", bi, cErr, wantText)
				}
			}
		})
	}
}

// TestContractLabelPartition pins which protocols carry labeled contracts:
// exactly the two new contract-first families — every pre-contract
// protocol keeps a bare adapter so its recorded outputs stay
// byte-identical.
func TestContractLabelPartition(t *testing.T) {
	labeled := map[string]string{
		"agree-p3": "approx-agreement",
		"agree-p4": "approx-agreement",
		"agree-c4": "approx-agreement",
		"ssuni":    "ss-coloring",
	}
	for _, d := range All() {
		want := labeled[d.Name]
		if got := d.ContractLabel(); got != want {
			t.Errorf("%s: ContractLabel = %q, want %q", d.Name, got, want)
		}
	}
}
