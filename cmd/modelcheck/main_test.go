package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunVerifiesAlgorithms(t *testing.T) {
	for _, alg := range []string{"fast", "five", "six"} {
		var b strings.Builder
		if err := run([]string{"-alg", alg, "-n", "3", "-worst"}, &b, io.Discard); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		out := b.String()
		if !strings.Contains(out, "cycle=false") {
			t.Errorf("%s: expected wait-freedom:\n%s", alg, out)
		}
		if !strings.Contains(out, "exact worst-case rounds") {
			t.Errorf("%s: missing worst-case analysis:\n%s", alg, out)
		}
	}
}

func TestRunFindsMISLivelock(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-alg", "mis-greedy", "-n", "3"}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "NOT WAIT-FREE") {
		t.Errorf("greedy MIS livelock not reported:\n%s", b.String())
	}
}

func TestRunFindsMISViolation(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-alg", "mis-impatient", "-n", "3"}, &b, io.Discard)
	if err == nil {
		t.Fatal("impatient MIS should fail verification")
	}
	if !strings.Contains(b.String(), "violation:") {
		t.Errorf("violation not printed:\n%s", b.String())
	}
}

func TestRunSimultaneousModeFindsF1(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-alg", "five", "-n", "3", "-mode", "simultaneous"}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "NOT WAIT-FREE") {
		t.Errorf("F1 livelock not reported in simultaneous mode:\n%s", b.String())
	}
}

func TestRunRenaming(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-alg", "renaming", "-n", "3"}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cycle=false") {
		t.Errorf("renaming should be wait-free:\n%s", b.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-alg", "bogus"},
		{"-mode", "bogus"},
		{"-alg", "fast", "-n", "2"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, &b, io.Discard); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// The acceptance smoke: a wall-clock budget on an oversized instance must
// exit 0 (nil error) with a report explicitly marked PARTIAL.
func TestRunTimeoutYieldsPartialReport(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-alg", "fast", "-n", "5", "-timeout", "1ms"}, &b, io.Discard); err != nil {
		t.Fatalf("budgeted run should exit clean, got: %v\n%s", err, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "PARTIAL") {
		t.Errorf("partial report not marked:\n%s", out)
	}
	if !strings.Contains(out, "timeout") {
		t.Errorf("stop reason missing:\n%s", out)
	}
}

// -progress and -metrics-json both write to stderr ("-" selects it for the
// JSON snapshot); the progress stop always prints a final line.
func TestRunProgressAndMetricsJSON(t *testing.T) {
	var b, e strings.Builder
	if err := run([]string{"-alg", "five", "-n", "3", "-progress", "1ms", "-metrics-json", "-"}, &b, &e); err != nil {
		t.Fatal(err)
	}
	errOut := e.String()
	if !strings.Contains(errOut, "progress:") {
		t.Errorf("no progress lines on stderr:\n%s", errOut)
	}
	if !strings.Contains(errOut, "\"states\"") || !strings.Contains(errOut, "\"states_per_sec\"") {
		t.Errorf("metrics JSON snapshot missing:\n%s", errOut)
	}
}

// -max-states is a budget, not a failure: the truncated report is labeled
// and the exit is clean.
func TestRunMaxStatesPartial(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-alg", "fast", "-n", "4", "-max-states", "100"}, &b, io.Discard); err != nil {
		t.Fatalf("state-budgeted run should exit clean, got: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "PARTIAL") {
		t.Errorf("partial report not marked:\n%s", b.String())
	}
}

// The three symmetry levels must agree on the sweep's weighted counts,
// verdicts and worst-case line; the two reduced levels run the same 3
// orbit representatives.
func TestRunSweepSymmetryEquivalence(t *testing.T) {
	render := func(symmetry string) string {
		var b strings.Builder
		if err := run([]string{"-alg", "five", "-n", "4", "-sweep", "-worst", "-symmetry", symmetry}, &b, io.Discard); err != nil {
			t.Fatalf("-symmetry=%s: %v\n%s", symmetry, err, b.String())
		}
		return b.String()
	}
	off := render("off")
	red := render("assignments")
	if !strings.Contains(off, "assignments=24") || !strings.Contains(red, "assignments=24") {
		t.Errorf("sweeps did not cover all 24 assignments:\noff: %sreduced: %s", off, red)
	}
	if !strings.Contains(red, "runs=3") {
		t.Errorf("reduced sweep should run 3 orbit representatives:\n%s", red)
	}
	// The weighted fields and the worst-case line must agree verbatim.
	for _, field := range []string{"states=", "terminal=", "cycles=", "violations=", "allok="} {
		if pick(t, off, field) != pick(t, red, field) {
			t.Errorf("field %q differs:\noff: %sreduced: %s", field, off, red)
		}
	}
	offWorst := off[strings.Index(off, "exact worst-case"):]
	redWorst := red[strings.Index(red, "exact worst-case"):]
	if offWorst != redWorst {
		t.Errorf("worst-case lines differ:\noff: %sreduced: %s", offWorst, redWorst)
	}

	// full is the same assignment quotient: only the level's name differs.
	full := render("full")
	if want := strings.Replace(red, "symmetry=assignments", "symmetry=full", 1); full != want {
		t.Errorf("full sweep differs from the assignments-level sweep:\nfull: %sreduced: %s", full, red)
	}
}

// pick extracts the whitespace-delimited token starting with prefix.
func pick(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, tok := range strings.Fields(out) {
		if strings.HasPrefix(tok, prefix) {
			return tok
		}
	}
	t.Fatalf("token %q not found in:\n%s", prefix, out)
	return ""
}

func TestRunSymmetryFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "five", "-n", "3", "-symmetry", "bogus"},
		{"-alg", "five", "-n", "3", "-symmetry", "assignments"}, // requires -sweep
		{"-alg", "mis-greedy", "-n", "3", "-sweep"},             // sweep is coloring-only
	} {
		var b strings.Builder
		if err := run(args, &b, io.Discard); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// -symmetry=full reduces sweeps only: a single check refuses it, as it
// refuses -symmetry=assignments, and prints nothing.
func TestRunSymmetryFullSingleInstance(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-alg", "five", "-n", "4", "-mode", "simultaneous", "-symmetry", "full"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "add -sweep") {
		t.Errorf("single check at -symmetry full: err = %v, want a refusal naming -sweep", err)
	}
	if out.Len() != 0 {
		t.Errorf("refused run printed:\n%s", out.String())
	}
}
