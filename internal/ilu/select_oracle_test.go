package ilu

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sparse"
)

// The oracles below are the sort-based row tails the selection kernels
// replaced, kept test-local: threshold, then sort every candidate of a
// part by descending magnitude (ties toward the smaller column) and keep
// the first cap, then order the survivors by column. The kernels must
// agree with them bit for bit — columns, values and drop counters — on
// rows full of exact magnitude ties. NaN-free rows only: the dropping
// order's NaN rule has its own test in package sparse.

// oracleCap is the old KeepLargest on a candidate list: returns the
// survivors sorted by column and the number dropped. c ≤ 0: no cap.
func oracleCap(cand []sparse.Entry, c int) ([]sparse.Entry, int) {
	cand = slices.Clone(cand)
	dropped := 0
	if c > 0 && len(cand) > c {
		slices.SortFunc(cand, func(x, y sparse.Entry) int {
			ax, ay := math.Abs(x.Val), math.Abs(y.Val)
			switch {
			case ax > ay:
				return -1
			case ax < ay:
				return 1
			default:
				return x.Col - y.Col
			}
		})
		dropped = len(cand) - c
		cand = cand[:c]
	}
	slices.SortFunc(cand, func(x, y sparse.Entry) int { return x.Col - y.Col })
	return cand, dropped
}

// oracleThreshold splits off the entries of row whose magnitude is < tau.
func oracleThreshold(row []sparse.Entry, tau float64) ([]sparse.Entry, int) {
	var kept []sparse.Entry
	for _, e := range row {
		if math.Abs(e.Val) >= tau {
			kept = append(kept, e)
		}
	}
	return kept, len(row) - len(kept)
}

// oracleFinishRow is the old finishRow on a row given as distinct
// (column, value) pairs: DropBelow and a sorting KeepLargest on each side
// of nl1, the diagonal i protected on the reduced side and recreated at
// the pivot floor when absent, then two Gathers.
func oracleFinishRow(row []sparse.Entry, i, nl1 int, tau float64, m, kcap int) (l, red []sparse.Entry, st Stats) {
	var lo, hi []sparse.Entry
	diag, hasDiag := 0.0, false
	for _, e := range row {
		switch {
		case e.Col == i:
			diag, hasDiag = e.Val, true
		case e.Col < nl1:
			lo = append(lo, e)
		default:
			hi = append(hi, e)
		}
	}
	lo, d2 := oracleThreshold(lo, tau)
	hi, d3 := oracleThreshold(hi, tau)
	var d int
	if m > 0 {
		lo, d = oracleCap(lo, m)
		d2 += d
	} else {
		lo, _ = oracleCap(lo, 0)
	}
	if kcap > 0 && m > 0 {
		hi, d = oracleCap(hi, kcap*m)
		d3 += d
	}
	if !hasDiag {
		diag = pivotFloor(tau)
		st.FixedPivot++
	}
	red, _ = oracleCap(append(hi, sparse.Entry{Col: i, Val: diag}), 0)
	st.Dropped = d2 + d3
	st.DroppedRule2, st.DroppedRule3 = d2, d3
	return lo, red, st
}

// oracleFactorPivotRow is the old FactorPivotRow: threshold the
// off-diagonal entries, repair a zero or denormal pivot, insertion-sort
// by magnitude and keep m (m ≤ 0: all), then order by column.
func oracleFactorPivotRow(row []sparse.Entry, i int, tau float64, m int) (diag float64, u []sparse.Entry, st Stats) {
	var off []sparse.Entry
	for _, e := range row {
		if e.Col == i {
			diag = e.Val
		} else {
			off = append(off, e)
		}
	}
	off, d := oracleThreshold(off, tau)
	if diag == 0 || math.Abs(diag) < 1e-300 {
		if diag >= 0 {
			diag = pivotFloor(tau)
		} else {
			diag = -pivotFloor(tau)
		}
		st.FixedPivot++
	}
	u, dc := oracleCap(off, m)
	st.Dropped, st.DroppedRule2 = d+dc, d+dc
	return diag, u, st
}

// tieRow draws a row over [0, n) whose values come from a small set, so
// most magnitude comparisons are exact ties, plus values straddling the
// thresholds used below. diagMode: 0 no diagonal, 1 a regular diagonal,
// 2 an explicit zero diagonal.
func tieRow(r *rand.Rand, n, i, diagMode int) []sparse.Entry {
	vals := []float64{0.5, -0.5, 1, -1, 2, -2, 0.01}
	var row []sparse.Entry
	for _, j := range r.Perm(n) {
		switch {
		case j == i && diagMode == 1:
			row = append(row, sparse.Entry{Col: j, Val: vals[r.Intn(len(vals))]})
		case j == i && diagMode == 2:
			row = append(row, sparse.Entry{Col: j, Val: 0})
		case j != i && r.Intn(3) > 0:
			row = append(row, sparse.Entry{Col: j, Val: vals[r.Intn(len(vals))]})
		}
	}
	return row
}

func sameEntries(e []sparse.Entry, cols []int, vals []float64) bool {
	if len(e) != len(cols) || len(e) != len(vals) {
		return false
	}
	for k := range e {
		if e[k].Col != cols[k] || math.Float64bits(e[k].Val) != math.Float64bits(vals[k]) {
			return false
		}
	}
	return true
}

// TestFinishRowMatchesSortOracle drives the one-pass tail both through a
// pooled-style Scratch (arena mode) and through the EliminateRow wrapper
// (fresh mode, with an empty pivot range so only the tail runs) and
// compares both with the sort-based oracle. It covers caps of 0, 1, m
// and at least the row length, ILUT and ILUT* (kcap 0, 1, 2), present,
// absent and explicit-zero diagonals, and L/reduced splits at both
// edges (nl1 = 0: everything reduced; nl1 = i: the diagonal is the first
// reduced column).
func TestFinishRowMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 600; trial++ {
		n := 1 + r.Intn(48)
		i := r.Intn(n)
		row := tieRow(r, n, i, r.Intn(3))
		tau := []float64{0, 0.1, 1, 1.5}[r.Intn(4)] // 1 sits exactly on a magnitude
		for _, nl1 := range []int{0, i, r.Intn(i + 1)} {
			for _, m := range []int{0, 1, 3, n} {
				for _, kcap := range []int{0, 1, 2} {
					wantL, wantR, wantSt := oracleFinishRow(row, i, nl1, tau, m, kcap)

					s := NewScratch(n)
					for _, e := range row {
						s.W().Set(e.Col, e.Val)
					}
					var st Stats
					lc, lv, rc, rv := s.finishRow(i, nl1, tau, m, kcap, &st)
					if !sameEntries(wantL, lc, lv) || !sameEntries(wantR, rc, rv) || st != wantSt {
						t.Fatalf("trial %d i=%d nl1=%d tau=%v m=%d kcap=%d:\n got L %v %v R %v %v %+v\nwant L %v R %v %+v",
							trial, i, nl1, tau, m, kcap, lc, lv, rc, rv, st, wantL, wantR, wantSt)
					}
					s.Poison() // panics unless the tail left the scratch clean

					cols := make([]int, len(row))
					vals := make([]float64, len(row))
					for k, e := range row {
						cols[k], vals[k] = e.Col, e.Val
					}
					st = Stats{}
					lc, lv, rc, rv = EliminateRow(sparse.NewWorkRow(n), i, cols, vals, nil, nil,
						func(int) *URow { return nil }, nl1, nl1, tau, m, kcap, &st)
					if !sameEntries(wantL, lc, lv) || !sameEntries(wantR, rc, rv) || st != wantSt {
						t.Fatalf("trial %d (fresh mode) i=%d nl1=%d m=%d kcap=%d: disagrees with the oracle", trial, i, nl1, m, kcap)
					}
					if len(wantL) == 0 && lc != nil {
						t.Fatalf("trial %d: empty L part must be nil", trial)
					}
				}
			}
		}
	}
}

// TestFactorPivotRowMatchesSortOracle compares the selection-capped
// pivot-row kernel with the sort-based oracle, in arena and fresh mode.
func TestFactorPivotRowMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	s := NewScratch(1)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(48)
		i := r.Intn(n)
		row := tieRow(r, n, i, 1+r.Intn(2))
		slices.SortFunc(row, func(x, y sparse.Entry) int { return x.Col - y.Col })
		cols := make([]int, len(row))
		vals := make([]float64, len(row))
		for k, e := range row {
			cols[k], vals[k] = e.Col, e.Val
		}
		tau := []float64{0, 0.1, 1, 1.5}[r.Intn(4)] // 1 sits exactly on a magnitude
		for _, m := range []int{0, 1, 3, n} {
			wantDiag, wantU, wantSt := oracleFactorPivotRow(row, i, tau, m)
			var st Stats
			u, err := s.FactorPivotRow(i, cols, vals, tau, m, 0, &st)
			if err != nil {
				t.Fatal(err)
			}
			var stFresh Stats
			uf, err := FactorPivotRow(i, cols, vals, tau, m, &stFresh)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []struct {
				u  URow
				st Stats
			}{{u, st}, {uf, stFresh}} {
				if math.Float64bits(got.u.Diag) != math.Float64bits(wantDiag) ||
					!sameEntries(wantU, got.u.Cols, got.u.Vals) || got.st != wantSt {
					t.Fatalf("trial %d i=%d tau=%v m=%d:\n got %v %v %v %+v\nwant %v %v %+v",
						trial, i, tau, m, got.u.Diag, got.u.Cols, got.u.Vals, got.st, wantDiag, wantU, wantSt)
				}
			}
		}
	}
}
