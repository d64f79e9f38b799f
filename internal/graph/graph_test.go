package graph

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestCycle(t *testing.T) {
	g, err := Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 {
		t.Errorf("N = %d, want 5", g.N())
	}
	if g.Name() != "C5" {
		t.Errorf("Name = %q, want C5", g.Name())
	}
	if !g.IsCycle() {
		t.Error("IsCycle = false")
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}
	if !g.Adjacent(0, 4) || !g.Adjacent(0, 1) || g.Adjacent(0, 2) {
		t.Error("wrong adjacency around node 0")
	}
	if len(g.Edges()) != 5 {
		t.Errorf("edges = %d, want 5", len(g.Edges()))
	}
}

func TestCycleTooSmall(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 2} {
		if _, err := Cycle(n); !errors.Is(err, ErrTooSmall) {
			t.Errorf("Cycle(%d) err = %v, want ErrTooSmall", n, err)
		}
	}
}

func TestMustCyclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCycle(2) did not panic")
		}
	}()
	MustCycle(2)
}

func TestPath(t *testing.T) {
	g, err := Path(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 1 || g.Degree(3) != 1 || g.Degree(1) != 2 {
		t.Error("wrong path degrees")
	}
	if len(g.Edges()) != 3 {
		t.Errorf("edges = %d, want 3", len(g.Edges()))
	}
	if g.IsCycle() {
		t.Error("path reported as cycle")
	}
	if !g.Connected() {
		t.Error("path not connected")
	}
	if _, err := Path(1); !errors.Is(err, ErrTooSmall) {
		t.Errorf("Path(1) err = %v", err)
	}
}

// TestCycleAndPathLists: the neighbor lists cut from one shared array
// match the per-node lists, in the same order, and each is capped, so an
// append to one node's list leaves the next node's list as it was.
func TestCycleAndPathLists(t *testing.T) {
	for n := 2; n <= 9; n++ {
		var graphs []Graph
		var want [][][]int
		if n >= 3 {
			graphs = append(graphs, MustCycle(n))
			adj := make([][]int, n)
			for i := range adj {
				adj[i] = []int{(i + n - 1) % n, (i + 1) % n}
			}
			want = append(want, adj)
		}
		p, err := Path(n)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, p)
		adj := make([][]int, n)
		for i := range adj {
			if i > 0 {
				adj[i] = append(adj[i], i-1)
			}
			if i < n-1 {
				adj[i] = append(adj[i], i+1)
			}
		}
		want = append(want, adj)

		for gi, g := range graphs {
			for u := 0; u < n; u++ {
				if !slices.Equal(g.Neighbors(u), want[gi][u]) {
					t.Fatalf("%s: neighbors of %d = %v, want %v", g.Name(), u, g.Neighbors(u), want[gi][u])
				}
				if grown := append(g.Neighbors(u), -1); grown[len(grown)-1] != -1 {
					t.Fatalf("%s: append to the neighbors of %d lost its element", g.Name(), u)
				}
			}
			for u := 0; u < n; u++ {
				if !slices.Equal(g.Neighbors(u), want[gi][u]) {
					t.Fatalf("%s: an append overwrote the neighbors of %d: %v, want %v", g.Name(), u, g.Neighbors(u), want[gi][u])
				}
			}
		}
	}
}

func TestComplete(t *testing.T) {
	g, err := Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 4; u++ {
		if g.Degree(u) != 3 {
			t.Errorf("degree(%d) = %d, want 3", u, g.Degree(u))
		}
	}
	if len(g.Edges()) != 6 {
		t.Errorf("edges = %d, want 6", len(g.Edges()))
	}
	if _, err := Complete(1); !errors.Is(err, ErrTooSmall) {
		t.Errorf("Complete(1) err = %v", err)
	}
}

func TestCompleteEqualsCycleForN3(t *testing.T) {
	// The paper's Property 2.3 hinges on C3 = K3: same edge sets.
	c := MustCycle(3)
	k, _ := Complete(3)
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			if u != v && c.Adjacent(u, v) != k.Adjacent(u, v) {
				t.Fatalf("C3 and K3 disagree on edge %d-%d", u, v)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		adj  [][]int
	}{
		{"self-loop", [][]int{{0}}},
		{"out-of-range", [][]int{{1}, {0, 5}}},
		{"duplicate", [][]int{{1, 1}, {0}}},
		{"asymmetric", [][]int{{1}, {}}},
	}
	for _, tt := range tests {
		if _, err := New(tt.name, tt.adj); err == nil {
			t.Errorf("New(%s) accepted invalid adjacency", tt.name)
		}
	}
	if _, err := New("ok", [][]int{{1}, {0}}); err != nil {
		t.Errorf("New rejected valid adjacency: %v", err)
	}
}

func TestNewDeepCopies(t *testing.T) {
	adj := [][]int{{1}, {0}}
	g, err := New("g", adj)
	if err != nil {
		t.Fatal(err)
	}
	adj[0][0] = 99
	if g.Neighbors(0)[0] != 1 {
		t.Error("graph aliases caller adjacency")
	}
}

func TestTorus(t *testing.T) {
	g, err := Torus(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Errorf("N = %d, want 12", g.N())
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != 4 {
			t.Errorf("degree(%d) = %d, want 4", u, g.Degree(u))
		}
	}
	if len(g.Edges()) != 24 { // 4-regular: 4n/2
		t.Errorf("edges = %d, want 24", len(g.Edges()))
	}
	if !g.Connected() {
		t.Error("torus not connected")
	}
	// Spot-check wrap-around adjacency: (0,0) touches (2,0) and (0,3).
	if !g.Adjacent(0, 8) || !g.Adjacent(0, 3) {
		t.Error("wrap-around edges missing")
	}
	if _, err := Torus(2, 5); !errors.Is(err, ErrTooSmall) {
		t.Errorf("Torus(2,5) err = %v", err)
	}
	if _, err := Torus(5, 2); !errors.Is(err, ErrTooSmall) {
		t.Errorf("Torus(5,2) err = %v", err)
	}
}

func TestRandomBoundedDegree(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, maxDeg := range []int{2, 3, 5, 8} {
			g, err := RandomBoundedDegree(64, maxDeg, seed)
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != 64 {
				t.Errorf("N = %d", g.N())
			}
			if got := g.MaxDegree(); got > maxDeg {
				t.Errorf("maxDeg=%d seed=%d: degree %d exceeds cap", maxDeg, seed, got)
			}
			if !g.Connected() {
				t.Errorf("maxDeg=%d seed=%d: not connected", maxDeg, seed)
			}
		}
	}
}

func TestRandomBoundedDegreeDeterministic(t *testing.T) {
	a, _ := RandomBoundedDegree(32, 4, 7)
	b, _ := RandomBoundedDegree(32, 4, 7)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestRandomBoundedDegreeErrors(t *testing.T) {
	if _, err := RandomBoundedDegree(1, 3, 0); err == nil {
		t.Error("accepted n=1")
	}
	if _, err := RandomBoundedDegree(10, 1, 0); err == nil {
		t.Error("accepted maxDeg=1")
	}
}

func TestShuffledNeighborsPreservesEdges(t *testing.T) {
	g := MustCycle(9)
	s := g.ShuffledNeighbors(3)
	if s.N() != g.N() {
		t.Fatal("node count changed")
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != s.Degree(u) {
			t.Fatalf("degree of %d changed", u)
		}
		for _, v := range g.Neighbors(u) {
			if !s.Adjacent(u, v) {
				t.Fatalf("edge %d-%d lost", u, v)
			}
		}
	}
}

func TestConnectedSmall(t *testing.T) {
	empty := Graph{}
	if !empty.Connected() {
		t.Error("empty graph should count as connected")
	}
	two := MustNew("two", [][]int{{}, {}})
	if two.Connected() {
		t.Error("two isolated nodes reported connected")
	}
}

// TestAdjacencySymmetricQuick: on random graphs, Adjacent is symmetric and
// Edges lists each edge exactly once.
func TestAdjacencySymmetricQuick(t *testing.T) {
	prop := func(seed int64, rawN, rawDeg uint8) bool {
		n := 2 + int(rawN)%40
		maxDeg := 2 + int(rawDeg)%6
		g, err := RandomBoundedDegree(n, maxDeg, seed)
		if err != nil {
			return false
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				if !g.Adjacent(v, u) {
					return false
				}
			}
		}
		degSum := 0
		for u := 0; u < n; u++ {
			degSum += g.Degree(u)
		}
		return len(g.Edges())*2 == degSum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
