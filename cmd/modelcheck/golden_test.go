package main

import (
	"io"
	"testing"

	"asynccycle/internal/goldentest"
)

// TestGoldenDifferential pins modelcheck output across the prior flag
// matrix — single-instance checks, -worst analyses, simultaneous mode,
// and sweeps with and without symmetry reduction — for every algorithm
// the command accepted before the protocol registry. The registry
// migration must keep these bytes identical. The -workers 2 cases pin
// that a single check is serial at any -workers: their goldens hold the
// serial report line.
func TestGoldenDifferential(t *testing.T) {
	var cases [][]string
	for _, alg := range []string{"six", "five", "fast"} {
		cases = append(cases,
			[]string{"-alg", alg, "-n", "3"},
			[]string{"-alg", alg, "-n", "4"},
			[]string{"-alg", alg, "-n", "3", "-worst"},
			[]string{"-alg", alg, "-n", "3", "-mode", "simultaneous"},
			[]string{"-alg", alg, "-n", "4", "-sweep"},
			[]string{"-alg", alg, "-n", "4", "-sweep", "-worst", "-symmetry", "assignments"},
			[]string{"-alg", alg, "-n", "4", "-workers", "2"},
		)
	}
	cases = append(cases,
		[]string{"-alg", "mis-greedy", "-n", "4"},
		[]string{"-alg", "mis-impatient", "-n", "4"},
		[]string{"-alg", "mis-impatient", "-n", "4", "-worst"},
		[]string{"-alg", "renaming", "-n", "3", "-worst"},
		[]string{"-alg", "renaming", "-n", "4"},
	)
	for _, args := range cases {
		t.Run(goldentest.Name(args), func(t *testing.T) {
			goldentest.Check(t, args, func(a []string, w io.Writer) error {
				return run(a, w, io.Discard)
			})
		})
	}
}
