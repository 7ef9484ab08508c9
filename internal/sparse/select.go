package sparse

import "math"

// Entry is one stored (column, value) pair of a sparse row.
type Entry struct {
	Col int
	Val float64
}

// The dropping order ranks entries for the keep-the-m-largest rules:
// larger magnitude first, equal magnitudes toward the smaller column.
// Columns within a row are distinct, so it is a strict total order and
// the kept set is unique — any correct selection keeps the same entries
// as a full sort, which is what makes selection bitwise-safe.
//
// NaN ranks above every magnitude, ±Inf included, and all NaNs rank
// equal (then by column). A NaN that survives the threshold (|NaN| < t
// is false) therefore also survives every cap and reaches the factor,
// where breakdown detection sees it, instead of being silently dropped.
//
// magKey maps a value to an integer whose unsigned order is that
// magnitude order: the bits of |v| order like |v| for every non-NaN v,
// and canonicalizing NaN to one key just above +Inf's ties all NaNs.
//
//pilut:hotpath
func magKey(v float64) uint64 {
	const inf = 0x7FF0000000000000
	k := math.Float64bits(v) &^ (1 << 63)
	if k > inf {
		k = inf + 1
	}
	return k
}

// ranksBefore reports whether a precedes b in the dropping order.
//
//pilut:hotpath
func ranksBefore(a, b Entry) bool {
	ka, kb := magKey(a.Val), magKey(b.Val)
	return ka > kb || (ka == kb && a.Col < b.Col)
}

// smallSort is the length up to which insertion sort beats the general
// sorts on these short rows.
const smallSort = 16

// selectLargest reorders e so that e[:m] holds the m entries that rank
// first in the dropping order (in no particular order among themselves)
// and e[m:] the rest: a quickselect with a median-of-three pivot, which
// costs O(len(e)) on average where sorting every candidate costs
// O(len(e) log len(e)). Requires 0 ≤ m ≤ len(e).
//
//pilut:hotpath
func selectLargest(e []Entry, m int) {
	lo, hi := 0, len(e)-1
	for hi-lo >= smallSort {
		mid := lo + (hi-lo)/2
		if ranksBefore(e[mid], e[lo]) {
			e[mid], e[lo] = e[lo], e[mid]
		}
		if ranksBefore(e[hi], e[lo]) {
			e[hi], e[lo] = e[lo], e[hi]
		}
		if ranksBefore(e[mid], e[hi]) {
			e[mid], e[hi] = e[hi], e[mid]
		}
		// e[hi] is now the median of the three: the partition pivot. Its
		// key is computed once for the whole pass.
		pk, pc := magKey(e[hi].Val), e[hi].Col
		st := lo
		for k := lo; k < hi; k++ {
			if ka := magKey(e[k].Val); ka > pk || (ka == pk && e[k].Col < pc) {
				e[k], e[st] = e[st], e[k]
				st++
			}
		}
		e[st], e[hi] = e[hi], e[st]
		// e[lo:st] rank before the pivot at e[st]; e[st+1:hi+1] after it.
		switch {
		case st == m:
			return
		case st < m:
			lo = st + 1
		default:
			hi = st - 1
		}
	}
	// Short remaining window: order it completely.
	for i := lo + 1; i <= hi; i++ {
		x := e[i]
		j := i - 1
		for j >= lo && ranksBefore(x, e[j]) {
			e[j+1] = e[j]
			j--
		}
		e[j+1] = x
	}
}

// SortByCol sorts entries by increasing column (columns are distinct): a
// quicksort with a median-of-three pivot over insertion-sorted short
// windows, specialized to Entry so every comparison is an inlined integer
// compare rather than a comparator call.
//
//pilut:hotpath
func SortByCol(e []Entry) {
	for len(e) > smallSort {
		last := len(e) - 1
		mid := last / 2
		if e[mid].Col < e[0].Col {
			e[mid], e[0] = e[0], e[mid]
		}
		if e[last].Col < e[0].Col {
			e[last], e[0] = e[0], e[last]
		}
		if e[mid].Col < e[last].Col {
			e[mid], e[last] = e[last], e[mid]
		}
		pc := e[last].Col
		st := 0
		for k := 0; k < last; k++ {
			if e[k].Col < pc {
				e[k], e[st] = e[st], e[k]
				st++
			}
		}
		e[st], e[last] = e[last], e[st]
		// Recurse into the shorter side, loop on the longer one.
		if st < last-st {
			SortByCol(e[:st])
			e = e[st+1:]
		} else {
			SortByCol(e[st+1:])
			e = e[:st]
		}
	}
	for i := 1; i < len(e); i++ {
		x := e[i]
		j := i - 1
		for j >= 0 && e[j].Col > x.Col {
			e[j+1] = e[j]
			j--
		}
		e[j+1] = x
	}
}

// CapSorted applies a keep-the-m-largest rule to a row's candidates: it
// keeps the m entries of e that rank first in the dropping order (all of
// them when m ≤ 0 or len(e) ≤ m) and returns them sorted by column,
// together with the number of entries dropped. Only the survivors are
// sorted; the cap itself is a selection. The result aliases e.
//
//pilut:hotpath
func CapSorted(e []Entry, m int) ([]Entry, int) {
	dropped := 0
	if m > 0 && len(e) > m {
		selectLargest(e, m)
		dropped = len(e) - m
		e = e[:m]
	}
	SortByCol(e)
	return e, dropped
}
