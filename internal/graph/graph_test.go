package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

func TestFromMatrixGrid(t *testing.T) {
	a := matgen.Grid2D(3, 3)
	g := FromMatrix(a)
	if g.NVtx != 9 {
		t.Fatalf("NVtx = %d, want 9", g.NVtx)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corner has degree 2, edge 3, centre 4.
	if got := g.Degree(0); got != 2 {
		t.Errorf("corner degree = %d, want 2", got)
	}
	if got := g.Degree(4); got != 4 {
		t.Errorf("centre degree = %d, want 4", got)
	}
	if got := g.NEdges(); got != 12 {
		t.Errorf("NEdges = %d, want 12", got)
	}
}

func TestFromMatrixNonsymmetric(t *testing.T) {
	// a_01 stored but a_10 not: the graph must still contain edge {0,1}.
	a := sparse.FromDense([][]float64{
		{1, 5, 0},
		{0, 1, 0},
		{0, 0, 1},
	})
	g := FromMatrix(a)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees = %d,%d, want 1,1", g.Degree(0), g.Degree(1))
	}
	if g.Neighbors(1)[0] != 0 {
		t.Fatal("edge {0,1} missing its reverse")
	}
}

func TestNoSelfLoops(t *testing.T) {
	a := matgen.Grid2D(4, 4) // has diagonal entries
	g := FromMatrix(a)
	for v := 0; v < g.NVtx; v++ {
		for _, u := range g.Neighbors(v) {
			if u == v {
				t.Fatalf("self loop at %d", v)
			}
		}
	}
}

func TestEdgeCutAndBoundary(t *testing.T) {
	// 2×4 grid, split between columns 1 and 2 (vertex = i*4+j).
	a := matgen.Grid2D(2, 4)
	g := FromMatrix(a)
	part := []int{0, 0, 1, 1, 0, 0, 1, 1}
	if got := g.EdgeCut(part); got != 2 {
		t.Errorf("EdgeCut = %d, want 2", got)
	}
	b := g.Boundary(part)
	wantBoundary := map[int]bool{1: true, 2: true, 5: true, 6: true}
	for v, isB := range b {
		if isB != wantBoundary[v] {
			t.Errorf("Boundary[%d] = %v, want %v", v, isB, wantBoundary[v])
		}
	}
}

func TestPartWeights(t *testing.T) {
	a := matgen.Grid2D(2, 2)
	g := FromMatrix(a)
	w := g.PartWeights([]int{0, 1, 1, 1}, 2)
	if w[0] != 1 || w[1] != 3 {
		t.Errorf("PartWeights = %v, want [1 3]", w)
	}
}

func TestComponents(t *testing.T) {
	// Two disjoint 2×2 grids glued into one matrix block-diagonally.
	b := sparse.NewBuilder(8, 8)
	add := func(off int) {
		pairs := [][2]int{{0, 1}, {1, 3}, {3, 2}, {2, 0}}
		for _, p := range pairs {
			b.Add(off+p[0], off+p[1], -1)
			b.Add(off+p[1], off+p[0], -1)
		}
		for i := 0; i < 4; i++ {
			b.Add(off+i, off+i, 4)
		}
	}
	add(0)
	add(4)
	g := FromMatrix(b.Build())
	comp, nc := g.Components()
	if nc != 2 {
		t.Fatalf("components = %d, want 2", nc)
	}
	for i := 0; i < 4; i++ {
		if comp[i] != comp[0] {
			t.Error("first block split across components")
		}
		if comp[4+i] != comp[4] {
			t.Error("second block split across components")
		}
	}
	if comp[0] == comp[4] {
		t.Error("blocks merged into one component")
	}
}

func TestComponentsConnected(t *testing.T) {
	g := FromMatrix(matgen.Grid2D(5, 7))
	_, nc := g.Components()
	if nc != 1 {
		t.Fatalf("grid should be connected, got %d components", nc)
	}
}

// Property: EdgeCut is invariant under part-label swaps and equals a
// brute-force count.
func TestEdgeCutProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(15)
		a := matgen.RandomSPDPattern(n, 4, seed)
		g := FromMatrix(a)
		part := make([]int, n)
		for i := range part {
			part[i] = r.Intn(3)
		}
		got := g.EdgeCut(part)
		// Brute force over unordered vertex pairs.
		want := 0
		seen := map[[2]int]bool{}
		for v := 0; v < n; v++ {
			adj := g.Neighbors(v)
			wgt := g.EdgeWeights(v)
			for k, u := range adj {
				key := [2]int{min(u, v), max(u, v)}
				if seen[key] {
					continue
				}
				seen[key] = true
				if part[u] != part[v] {
					want += wgt[k]
				}
			}
		}
		// Swap labels 0 and 1: cut unchanged.
		swapped := make([]int, n)
		for i, p := range part {
			switch p {
			case 0:
				swapped[i] = 1
			case 1:
				swapped[i] = 0
			default:
				swapped[i] = p
			}
		}
		return got == want && g.EdgeCut(swapped) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// symmetrizedGraph is the triplet-assembly construction FromMatrix
// replaced: the pattern of A + Aᵀ through SymmetrizeStructure, diagonal
// removed. It is the oracle for the merge-built graph.
func symmetrizedGraph(a *sparse.CSR) *Graph {
	s := a.SymmetrizeStructure()
	g := &Graph{NVtx: s.N, Xadj: make([]int, s.N+1), VWgt: make([]int, s.N)}
	for i := 0; i < s.N; i++ {
		g.VWgt[i] = 1
		cols, _ := s.Row(i)
		for _, j := range cols {
			if j != i {
				g.Adj = append(g.Adj, j)
				g.AdjWgt = append(g.AdjWgt, 1)
			}
		}
		g.Xadj[i+1] = len(g.Adj)
	}
	return g
}

// TestFromMatrixMatchesSymmetrizedPattern compares the merge-built graph
// with the symmetrized-pattern oracle on random structurally
// nonsymmetric matrices, with and without stored diagonals and with
// empty rows, plus the generators' matrices.
func TestFromMatrixMatchesSymmetrizedPattern(t *testing.T) {
	same := func(x, y *Graph) bool {
		eq := func(a, b []int) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if a[k] != b[k] {
					return false
				}
			}
			return true
		}
		return x.NVtx == y.NVtx && eq(x.Xadj, y.Xadj) && eq(x.Adj, y.Adj) &&
			eq(x.AdjWgt, y.AdjWgt) && eq(x.VWgt, y.VWgt)
	}
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(30)
		b := sparse.NewBuilder(n, n)
		density := r.Float64() * 0.3
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if r.Float64() < density {
					b.Add(i, j, 1+r.Float64())
				}
			}
		}
		a := b.Build()
		if g, want := FromMatrix(a), symmetrizedGraph(a); !same(g, want) {
			t.Fatalf("trial %d (n=%d): merge-built graph differs from the symmetrized pattern", trial, n)
		}
	}
	for _, a := range []*sparse.CSR{matgen.Grid2D(7, 5), matgen.Torso(5, 4, 3, 2), matgen.ConvDiff2D(6, 6, 3, -2)} {
		if !same(FromMatrix(a), symmetrizedGraph(a)) {
			t.Fatalf("generator matrix n=%d: merge-built graph differs", a.N)
		}
	}
}
