package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortOracleKeep is the sort-based keep-the-m-largest rule the selection
// kernels replaced: sort every candidate by descending magnitude, ties
// toward the smaller column, and keep the first m. It returns the kept
// columns in increasing order. NaN-free input only: with a NaN the
// comparator below is not a total order.
func sortOracleKeep(cand []Entry, m int) []int {
	c := slices.Clone(cand)
	slices.SortFunc(c, func(x, y Entry) int {
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
	if m < len(c) {
		c = c[:m]
	}
	cols := make([]int, len(c))
	for k, e := range c {
		cols[k] = e.Col
	}
	slices.Sort(cols)
	return cols
}

// tieValues are the magnitudes of random rows: a handful of exact values
// so most comparisons are magnitude ties decided by column.
var tieValues = []float64{0.5, -0.5, 1, -1, 2, -2}

// randomTieRow scatters a random subset of [0, n) with tie-heavy values,
// in random insertion order.
func randomTieRow(r *rand.Rand, n int) []Entry {
	var e []Entry
	for _, j := range r.Perm(n) {
		if r.Intn(3) > 0 {
			e = append(e, Entry{j, tieValues[r.Intn(len(tieValues))]})
		}
	}
	return e
}

func TestKeepLargestMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(60)
		row := randomTieRow(r, n)
		lo := r.Intn(n + 1)
		hi := lo + r.Intn(n-lo+1)
		keep := -1
		if r.Intn(2) == 0 {
			keep = r.Intn(n)
		}
		var cand []Entry
		for _, e := range row {
			if e.Col >= lo && e.Col < hi && e.Col != keep {
				cand = append(cand, e)
			}
		}
		for _, m := range []int{0, 1, 3, len(cand), len(cand) + 2} {
			w := NewWorkRow(n)
			for _, e := range row {
				w.Set(e.Col, e.Val)
			}
			dropped := w.KeepLargest(lo, hi, m, keep)
			want := sortOracleKeep(cand, m)
			var got []int
			for _, e := range cand {
				if w.Has(e.Col) {
					got = append(got, e.Col)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) || dropped != len(cand)-len(want) {
				t.Fatalf("trial %d m=%d [%d,%d) keep=%d: kept %v dropped %d, oracle %v dropped %d",
					trial, m, lo, hi, keep, got, dropped, want, len(cand)-len(want))
			}
			// Entries outside the window and the protected one survive.
			for _, e := range row {
				if (e.Col < lo || e.Col >= hi || e.Col == keep) && !w.Has(e.Col) {
					t.Fatalf("trial %d: entry %d outside the cap was dropped", trial, e.Col)
				}
			}
		}
	}
}

func TestCapSortedMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		row := randomTieRow(r, 1+r.Intn(80))
		for _, m := range []int{-1, 0, 1, 4, len(row), len(row) + 1} {
			got, dropped := CapSorted(slices.Clone(row), m)
			want := sortOracleKeep(row, len(row))
			if m > 0 {
				want = sortOracleKeep(row, m)
			}
			if dropped != len(row)-len(want) || len(got) != len(want) {
				t.Fatalf("trial %d m=%d: kept %d dropped %d, oracle kept %d", trial, m, len(got), dropped, len(want))
			}
			for k, e := range got {
				if e.Col != want[k] {
					t.Fatalf("trial %d m=%d: kept %v, oracle %v", trial, m, got, want)
				}
				// Values travel with their columns, bit for bit.
				for _, x := range row {
					if x.Col == e.Col && math.Float64bits(x.Val) != math.Float64bits(e.Val) {
						t.Fatalf("trial %d: value of column %d changed", trial, e.Col)
					}
				}
			}
		}
	}
}

// TestDropOrderNaN pins how the dropping order treats NaN: above every
// magnitude, +Inf included, all NaNs equal (so the smaller column wins
// among them), and never removed by the threshold.
func TestDropOrderNaN(t *testing.T) {
	nan := math.NaN()
	row := []Entry{{0, 1}, {2, nan}, {3, math.Inf(-1)}, {5, 2}, {7, -nan}}
	for _, tc := range []struct {
		m    int
		want []int
	}{
		{1, []int{2}},
		{2, []int{2, 7}},
		{3, []int{2, 3, 7}},
		{4, []int{2, 3, 5, 7}},
	} {
		got, _ := CapSorted(slices.Clone(row), tc.m)
		var cols []int
		for _, e := range got {
			cols = append(cols, e.Col)
		}
		if !slices.Equal(cols, tc.want) {
			t.Errorf("m=%d: kept %v, want %v", tc.m, cols, tc.want)
		}

		w := NewWorkRow(8)
		for _, e := range row {
			w.Set(e.Col, e.Val)
		}
		w.KeepLargest(0, 8, tc.m, -1)
		cols = cols[:0]
		for _, e := range row {
			if w.Has(e.Col) {
				cols = append(cols, e.Col)
			}
		}
		if !slices.Equal(cols, tc.want) {
			t.Errorf("KeepLargest m=%d: kept %v, want %v", tc.m, cols, tc.want)
		}
	}

	w := NewWorkRow(8)
	for _, e := range row {
		w.Set(e.Col, e.Val)
	}
	var sp RowSplit
	w.Drain(4, -1, math.MaxFloat64, &sp)
	// Every finite entry is below the largest finite threshold; -Inf is
	// not, and the NaNs are not below anything.
	if len(sp.Lo) != 2 || sp.Lo[0].Col != 2 || sp.Lo[1].Col != 3 || len(sp.Hi) != 1 || sp.Hi[0].Col != 7 {
		t.Errorf("threshold kept %v | %v, want the NaNs and -Inf", sp.Lo, sp.Hi)
	}
	if sp.DroppedLo != 1 || sp.DroppedHi != 1 {
		t.Errorf("dropped %d|%d, want 1|1", sp.DroppedLo, sp.DroppedHi)
	}
}

// TestDrainSplitsAndResets checks the one-pass tail primitive against
// DropBelow + Gather: same survivors on each side, same drop counts, the
// protected position reported apart, and the row left clean.
func TestDrainSplitsAndResets(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var sp RowSplit
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(40)
		row := randomTieRow(r, n)
		if len(row) > 0 && r.Intn(4) == 0 {
			row[0].Val = 0 // an explicit zero
		}
		split := r.Intn(n + 1)
		keep := -1
		if r.Intn(2) == 0 {
			keep = r.Intn(n)
		}
		tol := []float64{0, 0.75, 1.5}[r.Intn(3)]
		ref := NewWorkRow(n)
		w := NewWorkRow(n)
		for _, e := range row {
			ref.Set(e.Col, e.Val)
			w.Set(e.Col, e.Val)
		}
		w.Drop(n - 1) // a dropped position still on the index list
		ref.Drop(n - 1)
		wantLo := ref.DropBelow(0, split, tol, keep)
		wantHi := ref.DropBelow(split, n, tol, keep)
		wantKeep, wantHas := 0.0, keep >= 0 && ref.Has(keep)
		if wantHas {
			wantKeep = ref.Get(keep)
			ref.Drop(keep)
		}
		lc, lv := ref.Gather(0, split, nil, nil)
		hc, hv := ref.Gather(split, n, nil, nil)

		w.Drain(split, keep, tol, &sp)
		SortByCol(sp.Lo)
		SortByCol(sp.Hi)
		same := func(e []Entry, cols []int, vals []float64) bool {
			if len(e) != len(cols) {
				return false
			}
			for k := range e {
				if e[k].Col != cols[k] || math.Float64bits(e[k].Val) != math.Float64bits(vals[k]) {
					return false
				}
			}
			return true
		}
		if !same(sp.Lo, lc, lv) || !same(sp.Hi, hc, hv) ||
			sp.DroppedLo != wantLo || sp.DroppedHi != wantHi ||
			sp.HasKeep != wantHas || sp.Keep != wantKeep {
			t.Fatalf("trial %d split=%d keep=%d tol=%v: Drain disagrees with DropBelow+Gather", trial, split, keep, tol)
		}
		w.PoisonClean() // panics unless Drain left the row reset
	}
}
