package graph

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file is the topology registry: the named specs that the CLIs'
// -topology flag and colorserved job specs accept, resolved into Builder
// values the protocol layer can retarget descriptors onto. Keeping the
// grammar here — next to the generators — means every tool shares one
// parser and one set of per-family minimums.

// Builder is a resolved topology spec: a family name, a canonical spec
// string, the per-family minimum size, and the construction function.
type Builder struct {
	// Family is the generator family: "cycle", "path", "complete",
	// "torus" or "random". Shuffled-neighbor variants keep the base
	// family (the adjacency is unchanged; only neighbor order moves).
	Family string
	// Spec is the canonical spec string, e.g. "torus" or
	// "random:4:7+shuffled:3". Descriptors retargeted onto this builder
	// report it as their topology name.
	Spec string
	// MinN is the smallest n the family supports.
	MinN int
	// Shuffled reports whether the spec carries a +shuffled:SEED suffix
	// permuting every node's neighbor order.
	Shuffled bool
	// Build constructs the n-node instance.
	Build func(n int) (Graph, error)
	// FixN rounds a requested size up to the nearest constructible one
	// (nil when every n ≥ MinN works). Only the torus needs it: n must
	// factor as r×c with r,c ≥ 3.
	FixN func(n int) int
}

// ErrUnknownTopology is returned by ParseTopology for specs naming no
// registered family or carrying malformed parameters.
var ErrUnknownTopology = errors.New("graph: unknown topology")

// ParseTopology resolves a -topology spec into a Builder. The grammar is
//
//	""| "cycle" | "path" | "complete" | "torus" | "random:Δ[:seed]"
//
// optionally suffixed with "+shuffled:SEED" to permute each node's
// neighbor order (adjacency unchanged). The empty spec means the cycle,
// the paper's native setting.
func ParseTopology(spec string) (Builder, error) {
	base := spec
	var shufSeed int64
	shuffled := false
	if i := strings.Index(spec, "+"); i >= 0 {
		base = spec[:i]
		suffix := spec[i+1:]
		rest, ok := strings.CutPrefix(suffix, "shuffled:")
		if !ok {
			return Builder{}, fmt.Errorf("%w: %q (suffix %q; want +shuffled:SEED)", ErrUnknownTopology, spec, suffix)
		}
		seed, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return Builder{}, fmt.Errorf("%w: %q (bad shuffle seed %q)", ErrUnknownTopology, spec, rest)
		}
		shufSeed = seed
		shuffled = true
	}
	b, err := parseBase(base)
	if err != nil {
		return Builder{}, err
	}
	if shuffled {
		inner := b.Build
		b.Build = func(n int) (Graph, error) {
			g, err := inner(n)
			if err != nil {
				return Graph{}, err
			}
			return g.ShuffledNeighbors(shufSeed), nil
		}
		b.Spec = b.Spec + fmt.Sprintf("+shuffled:%d", shufSeed)
		b.Shuffled = true
	}
	return b, nil
}

// MustParseTopology is ParseTopology but panics on error; for statically
// known specs.
func MustParseTopology(spec string) Builder {
	b, err := ParseTopology(spec)
	if err != nil {
		panic(err)
	}
	return b
}

func parseBase(base string) (Builder, error) {
	switch {
	case base == "" || base == "cycle":
		return Builder{Family: "cycle", Spec: "cycle", MinN: 3, Build: Cycle}, nil
	case base == "path":
		return Builder{Family: "path", Spec: "path", MinN: 2, Build: Path}, nil
	case base == "complete":
		return Builder{Family: "complete", Spec: "complete", MinN: 2, Build: Complete}, nil
	case base == "torus":
		return Builder{
			Family: "torus",
			Spec:   "torus",
			MinN:   9,
			Build: func(n int) (Graph, error) {
				r, c, ok := torusDims(n)
				if !ok {
					return Graph{}, fmt.Errorf("graph: torus on %d nodes: no r×c factorization with r,c ≥ 3 (nearest is %d)", n, fixTorusN(n))
				}
				return Torus(r, c)
			},
			FixN: fixTorusN,
		}, nil
	case strings.HasPrefix(base, "random:"):
		parts := strings.Split(base, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return Builder{}, fmt.Errorf("%w: %q (want random:Δ or random:Δ:seed)", ErrUnknownTopology, base)
		}
		maxDeg, err := strconv.Atoi(parts[1])
		if err != nil || maxDeg < 2 {
			return Builder{}, fmt.Errorf("%w: %q (max degree must be an integer ≥ 2)", ErrUnknownTopology, base)
		}
		var seed int64 = 1
		if len(parts) == 3 {
			seed, err = strconv.ParseInt(parts[2], 10, 64)
			if err != nil {
				return Builder{}, fmt.Errorf("%w: %q (bad seed %q)", ErrUnknownTopology, base, parts[2])
			}
		}
		return Builder{
			Family: "random",
			Spec:   fmt.Sprintf("random:%d:%d", maxDeg, seed),
			MinN:   2,
			Build:  func(n int) (Graph, error) { return RandomBoundedDegree(n, maxDeg, seed) },
		}, nil
	default:
		return Builder{}, fmt.Errorf("%w: %q (known: cycle, path, complete, torus, random:Δ[:seed])", ErrUnknownTopology, base)
	}
}

// torusDims factorizes n as r×c with r,c ≥ 3, preferring the squarest
// split (r descends from ⌊√n⌋).
func torusDims(n int) (r, c int, ok bool) {
	if n < 9 {
		return 0, 0, false
	}
	for r := int(math.Sqrt(float64(n))); r >= 3; r-- {
		if n%r == 0 && n/r >= 3 {
			return r, n / r, true
		}
	}
	return 0, 0, false
}

// fixTorusN rounds n up to the nearest torus-constructible size
// (9, 12, 15, 16, 18, …). Primes and other unfactorable sizes step up a
// handful of nodes at most: every even m ≥ 18 factors as 3×(m/3) or
// similar, so the loop terminates quickly.
func fixTorusN(n int) int {
	m := n
	if m < 9 {
		m = 9
	}
	for {
		if _, _, ok := torusDims(m); ok {
			return m
		}
		m++
	}
}
