// Package graph provides the network topologies the model runs on: the
// cycle C_n (the paper's primary setting), paths, complete graphs (on which
// the model coincides with wait-free shared memory with immediate
// snapshots, cf. Property 2.3), and random bounded-degree graphs for the
// Appendix A generalization.
//
// A Graph is immutable after construction. Neighbor lists are exposed in a
// fixed but otherwise arbitrary per-node order, matching the paper's
// assumption that nodes have no coherent notion of left and right.
package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Graph is an undirected simple graph on vertices 0..N()-1.
type Graph struct {
	name string
	adj  [][]int
}

// ErrTooSmall is returned by constructors whose topology requires a minimum
// number of nodes (e.g. cycles need n ≥ 3).
var ErrTooSmall = errors.New("graph: too few nodes")

// New builds a graph from an adjacency list. The adjacency list is deep
// copied. It returns an error if the list is ragged (asymmetric), contains
// self-loops, duplicate edges, or out-of-range endpoints.
func New(name string, adj [][]int) (Graph, error) {
	n := len(adj)
	cp := make([][]int, n)
	type edge struct{ u, v int }
	seen := make(map[edge]bool)
	for u, nbrs := range adj {
		cp[u] = make([]int, len(nbrs))
		copy(cp[u], nbrs)
		for _, v := range nbrs {
			if v < 0 || v >= n {
				return Graph{}, fmt.Errorf("graph %q: edge %d-%d out of range", name, u, v)
			}
			if v == u {
				return Graph{}, fmt.Errorf("graph %q: self-loop at %d", name, u)
			}
			if seen[edge{u, v}] {
				return Graph{}, fmt.Errorf("graph %q: duplicate edge %d-%d", name, u, v)
			}
			seen[edge{u, v}] = true
		}
	}
	for e := range seen {
		if !seen[edge{e.v, e.u}] {
			return Graph{}, fmt.Errorf("graph %q: asymmetric edge %d-%d", name, e.u, e.v)
		}
	}
	return Graph{name: name, adj: cp}, nil
}

// MustNew is New but panics on error; for use with statically known inputs.
func MustNew(name string, adj [][]int) Graph {
	g, err := New(name, adj)
	if err != nil {
		panic(err)
	}
	return g
}

// Cycle returns the n-node cycle C_n, n ≥ 3, with node i adjacent to
// i±1 mod n.
func Cycle(n int) (Graph, error) {
	if n < 3 {
		return Graph{}, fmt.Errorf("graph: cycle of length %d: %w", n, ErrTooSmall)
	}
	// Every list is cut from one array and capped at its length, so a
	// caller's append reallocates instead of overwriting the next list.
	adj := make([][]int, n)
	nbrs := make([]int, 2*n)
	for i := range adj {
		nbrs[2*i], nbrs[2*i+1] = i-1, i+1
		adj[i] = nbrs[2*i : 2*i+2 : 2*i+2]
	}
	nbrs[0], nbrs[2*n-1] = n-1, 0 // the wrap edge
	return Graph{name: fmt.Sprintf("C%d", n), adj: adj}, nil
}

// MustCycle is Cycle but panics on error.
func MustCycle(n int) Graph {
	g, err := Cycle(n)
	if err != nil {
		panic(err)
	}
	return g
}

// Path returns the n-node path P_n, n ≥ 2 (useful for testing monotone
// chain behaviour in isolation).
func Path(n int) (Graph, error) {
	if n < 2 {
		return Graph{}, fmt.Errorf("graph: path of length %d: %w", n, ErrTooSmall)
	}
	adj := make([][]int, n) // lists cut from one array, as in Cycle
	nbrs := make([]int, 0, 2*n-2)
	for i := range adj {
		lo := len(nbrs)
		if i > 0 {
			nbrs = append(nbrs, i-1)
		}
		if i < n-1 {
			nbrs = append(nbrs, i+1)
		}
		adj[i] = nbrs[lo:len(nbrs):len(nbrs)]
	}
	return Graph{name: fmt.Sprintf("P%d", n), adj: adj}, nil
}

// Complete returns the complete graph K_n, n ≥ 2. Running the engine on K_n
// realizes the standard asynchronous shared-memory model with immediate
// snapshots, since every process reads every register (paper §2.3).
func Complete(n int) (Graph, error) {
	if n < 2 {
		return Graph{}, fmt.Errorf("graph: complete graph on %d nodes: %w", n, ErrTooSmall)
	}
	adj := make([][]int, n)
	for i := range adj {
		adj[i] = make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return Graph{name: fmt.Sprintf("K%d", n), adj: adj}, nil
}

// Torus returns the rows×cols torus grid (wrap-around in both
// dimensions): the canonical 4-regular topology for the Appendix A
// O(Δ²)-coloring experiments. Both dimensions must be ≥ 3 so that no
// duplicate edges arise from wrapping.
func Torus(rows, cols int) (Graph, error) {
	if rows < 3 || cols < 3 {
		return Graph{}, fmt.Errorf("graph: torus %d×%d needs both dimensions ≥ 3: %w", rows, cols, ErrTooSmall)
	}
	n := rows * cols
	adj := make([][]int, n)
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			adj[id(r, c)] = []int{id(r-1, c), id(r+1, c), id(r, c-1), id(r, c+1)}
		}
	}
	return Graph{name: fmt.Sprintf("T%dx%d", rows, cols), adj: adj}, nil
}

// RandomBoundedDegree returns a connected random graph on n nodes with
// maximum degree at most maxDeg ≥ 2, built from a Hamiltonian path plus
// random chords, using the given seed. It is the workload for the
// Appendix A O(Δ²)-coloring experiments.
func RandomBoundedDegree(n, maxDeg int, seed int64) (Graph, error) {
	if n < 2 {
		return Graph{}, fmt.Errorf("graph: random graph on %d nodes: %w", n, ErrTooSmall)
	}
	if maxDeg < 2 {
		return Graph{}, fmt.Errorf("graph: max degree %d < 2", maxDeg)
	}
	rng := rand.New(rand.NewSource(seed))
	deg := make([]int, n)
	adjSet := make([]map[int]bool, n)
	for i := range adjSet {
		adjSet[i] = make(map[int]bool)
	}
	addEdge := func(u, v int) {
		adjSet[u][v] = true
		adjSet[v][u] = true
		deg[u]++
		deg[v]++
	}
	for i := 0; i+1 < n; i++ { // spine: guarantees connectivity
		addEdge(i, i+1)
	}
	// Random chords up to the degree budget; 4n attempts keeps density
	// proportional to n without quadratic work.
	for attempts := 0; attempts < 4*n; attempts++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || adjSet[u][v] || deg[u] >= maxDeg || deg[v] >= maxDeg {
			continue
		}
		addEdge(u, v)
	}
	adj := make([][]int, n)
	for u := range adj {
		for v := range adjSet[u] {
			adj[u] = append(adj[u], v)
		}
		// Sort first — map iteration order is nondeterministic and would
		// break seed reproducibility — then shuffle so neighbor order
		// carries no structural information.
		sort.Ints(adj[u])
		rng.Shuffle(len(adj[u]), func(i, j int) { adj[u][i], adj[u][j] = adj[u][j], adj[u][i] })
	}
	return Graph{name: fmt.Sprintf("G(%d,Δ≤%d,seed=%d)", n, maxDeg, seed), adj: adj}, nil
}

// N returns the number of nodes.
func (g Graph) N() int { return len(g.adj) }

// Name returns a human-readable topology name such as "C12" or "K3".
func (g Graph) Name() string { return g.name }

// Neighbors returns node u's neighbor list in its fixed arbitrary order.
// The returned slice must not be modified.
func (g Graph) Neighbors(u int) []int { return g.adj[u] }

// Degree returns the degree of node u.
func (g Graph) Degree(u int) int { return len(g.adj[u]) }

// MaxDegree returns Δ, the maximum degree over all nodes (0 for the empty
// graph).
func (g Graph) MaxDegree() int {
	max := 0
	for u := range g.adj {
		if d := len(g.adj[u]); d > max {
			max = d
		}
	}
	return max
}

// Adjacent reports whether u and v share an edge.
func (g Graph) Adjacent(u, v int) bool {
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Edges returns each undirected edge once as ordered pairs (u < v).
func (g Graph) Edges() [][2]int {
	var out [][2]int
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// IsCycle reports whether the graph is a single cycle: connected and
// 2-regular.
func (g Graph) IsCycle() bool {
	n := g.N()
	if n < 3 {
		return false
	}
	for u := 0; u < n; u++ {
		if g.Degree(u) != 2 {
			return false
		}
	}
	return g.Connected()
}

// Connected reports whether the graph is connected (true for the empty and
// single-node graphs).
func (g Graph) Connected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

// ShuffledNeighbors returns a copy of g in which every node's neighbor
// order has been permuted with the given seed. Algorithms must be
// insensitive to neighbor order; tests use this to verify it.
func (g Graph) ShuffledNeighbors(seed int64) Graph {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int, g.N())
	for u := range adj {
		adj[u] = make([]int, len(g.adj[u]))
		copy(adj[u], g.adj[u])
		rng.Shuffle(len(adj[u]), func(i, j int) { adj[u][i], adj[u][j] = adj[u][j], adj[u][i] })
	}
	return Graph{name: g.name + "+shuffled", adj: adj}
}
