package ilu

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// Params configures the threshold factorizations.
type Params struct {
	// M is the maximum number of entries kept per row in each of L and U
	// (the diagonal of U does not count). M ≤ 0 means unlimited.
	M int
	// Tau is the drop threshold t. Entries smaller in magnitude than
	// Tau × ‖a_i‖₂ (relative to the original row) are dropped.
	Tau float64
	// K, when positive, enables the ILUT* rule: rows of the successively
	// reduced matrices keep at most K·M entries. K ≤ 0 reproduces plain
	// ILUT (reduced rows bounded only by the threshold). K only affects
	// the two-phase/reduced-matrix driver, not the plain serial ILUT.
	K int
	// PivotPerturb, when nonzero, multiplies every computed pivot before
	// the tiny-pivot floor check. It exists for the fault-injection layer
	// (internal/fault, Spec.PivotScale): a denormal factor such as 1e-320
	// deterministically turns every pivot into a repair, driving the
	// breakdown-detection and recovery-ladder paths. Zero — the default,
	// and the only production value — is bitwise inert.
	PivotPerturb float64
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.Tau < 0 {
		return fmt.Errorf("ilu: negative drop tolerance %v", p.Tau)
	}
	return nil
}

// maxFill returns the per-row cap as a concrete bound.
func (p Params) maxFill(n int) int {
	if p.M <= 0 {
		return n
	}
	return p.M
}

// Stats reports what a factorization did; the parallel driver aggregates
// these per virtual processor. Dropped is the total over every dropping
// rule; the DroppedRuleN counters attribute drops to the paper's three
// rules where the kernel can tell them apart (their sum can be below
// Dropped for kernels that predate the split, e.g. ILUTP's column
// pivoting path).
type Stats struct {
	Flops      float64 // multiply-add and divide operations
	Dropped    int     // entries removed by any dropping rule
	FixedPivot int     // zero/tiny pivots replaced

	// DroppedRule1 counts multipliers dropped by the relative threshold
	// during elimination (the paper's 1st dropping rule).
	DroppedRule1 int
	// DroppedRule2 counts entries dropped when a factored row is stored:
	// the relative threshold plus the keep-m-largest cap on the L and U
	// parts (the 2nd rule).
	DroppedRule2 int
	// DroppedRule3 counts entries dropped from reduced-matrix rows: the
	// relative threshold plus, for ILUT*, the k·m cap (the 3rd rule).
	DroppedRule3 int
}

// pivotFloor returns the replacement magnitude for an untenably small
// pivot: the relative threshold when positive, otherwise a fixed tiny
// value. The paper's test matrices never trigger this, but downstream
// users' will.
func pivotFloor(tau float64) float64 {
	if tau > 0 {
		return tau
	}
	return 1e-12
}

// ILUT computes the ILUT(m, t) incomplete factorization of a square
// matrix following Algorithm 1 of the paper: a dual dropping strategy with
// a relative threshold applied during elimination and a per-row fill cap
// applied when the row is stored.
func ILUT(a *sparse.CSR, p Params) (*Factors, Stats, error) {
	if a.N != a.M {
		return nil, Stats{}, fmt.Errorf("ilu: ILUT requires a square matrix, got %d×%d", a.N, a.M)
	}
	if err := p.Validate(); err != nil {
		return nil, Stats{}, err
	}
	n := a.N
	m := p.maxFill(n)

	var st Stats
	w := sparse.NewWorkRow(n)
	var sp sparse.RowSplit
	// L and U are assembled in CSR form as their rows finish. A U row
	// stores its diagonal first, for O(1) pivot access; in an upper
	// triangular row the diagonal is also the smallest column, so U's
	// rows come out sorted.
	l := &sparse.CSR{N: n, M: n, RowPtr: make([]int, n+1),
		Cols: make([]int, 0, a.NNZ()), Vals: make([]float64, 0, a.NNZ())}
	u := &sparse.CSR{N: n, M: n, RowPtr: make([]int, n+1),
		Cols: make([]int, 0, a.NNZ()), Vals: make([]float64, 0, a.NNZ())}
	var lheap colHeap

	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		if len(cols) == 0 {
			return nil, st, fmt.Errorf("ilu: row %d of A is empty", i)
		}
		tau := p.Tau * a.RowNorm2(i)

		w.Scatter(cols, vals)
		lheap = lheap[:0]
		for _, j := range cols {
			if j < i {
				lheap = append(lheap, j)
			}
		}
		heapInit(&lheap)

		// Elimination sweep: process k < i in increasing order, including
		// fill positions created along the way.
		for len(lheap) > 0 {
			k := heapPop(&lheap)
			if !w.Has(k) {
				continue // dropped earlier in this sweep
			}
			piv := u.Vals[u.RowPtr[k]] // diagonal of U stored first in row k
			wk := w.Get(k) / piv
			st.Flops++
			if math.Abs(wk) < tau {
				// 1st dropping rule.
				w.Drop(k)
				st.Dropped++
				st.DroppedRule1++
				continue
			}
			w.Set(k, wk)
			// w ← w − wk·u_k over the strictly-upper part of U's row k.
			for idx := u.RowPtr[k] + 1; idx < u.RowPtr[k+1]; idx++ {
				j := u.Cols[idx]
				if !w.Has(j) && j < i {
					heapPush(&lheap, j)
				}
				w.Add(j, -wk*u.Vals[idx])
				st.Flops += 2
			}
		}

		// 2nd dropping rule: relative threshold then keep the m largest in
		// each of the L and U parts (diagonal always kept). One pass over
		// the row splits it at the diagonal and resets it; the caps are
		// selections over the compact parts.
		w.Drain(i, i, tau, &sp)
		lo, dl := sparse.CapSorted(sp.Lo, m)
		hi, du := sparse.CapSorted(sp.Hi, m)
		d2 := sp.DroppedLo + sp.DroppedHi + dl + du
		st.Dropped += d2
		st.DroppedRule2 += d2

		for _, e := range lo {
			l.Cols = append(l.Cols, e.Col)
			l.Vals = append(l.Vals, e.Val)
		}
		l.RowPtr[i+1] = len(l.Cols)

		d := sp.Keep
		if p.PivotPerturb != 0 {
			d *= p.PivotPerturb
		}
		if math.Abs(d) < pivotFloor(tau)*1e-3 || d == 0 {
			if d >= 0 {
				d = pivotFloor(tau)
			} else {
				d = -pivotFloor(tau)
			}
			st.FixedPivot++
		}
		u.Cols = append(u.Cols, i)
		u.Vals = append(u.Vals, d)
		for _, e := range hi {
			u.Cols = append(u.Cols, e.Col)
			u.Vals = append(u.Vals, e.Val)
		}
		u.RowPtr[i+1] = len(u.Cols)
	}
	return &Factors{L: l, U: u}, st, nil
}

// colHeap is a min-heap of column indices driving the elimination order
// (see heapInit, heapPush and heapPop).
type colHeap []int

func (h colHeap) Len() int { return len(h) }

// CompleteLU computes the exact LU factorization by running ILUT with no
// dropping; small systems only (tests and examples).
func CompleteLU(a *sparse.CSR) (*Factors, error) {
	f, _, err := ILUT(a, Params{M: 0, Tau: 0})
	return f, err
}
