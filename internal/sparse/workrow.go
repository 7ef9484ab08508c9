package sparse

import (
	"math"
	"sort"
)

// WorkRow is the full-length working row of Algorithm 1 in the paper: a
// dense value array w paired with a companion list of its nonzero
// positions, so that scatter, gather and reset are all sparse operations.
// One WorkRow is reused across all rows of a factorization.
type WorkRow struct {
	val   []float64
	mark  []bool // position currently holds a live entry
	inIdx []bool // position present in the companion index list (may be dropped)
	idx   []int
	cand  []Entry // scratch for KeepLargest; per-row so concurrent WorkRows never share
}

// NewWorkRow returns a WorkRow over vectors of length n.
func NewWorkRow(n int) *WorkRow {
	return &WorkRow{val: make([]float64, n), mark: make([]bool, n), inIdx: make([]bool, n)}
}

// Len reports the full (dense) length of the row.
func (w *WorkRow) Len() int { return len(w.val) }

// Resize grows the dense arrays to length n; it never shrinks, so a
// pooled WorkRow serves factorizations of any size it has ever seen.
// The row must be reset (Resize preserves no marked state).
func (w *WorkRow) Resize(n int) {
	if n <= len(w.val) {
		return
	}
	w.val = make([]float64, n)
	w.mark = make([]bool, n)
	w.inIdx = make([]bool, n)
	w.idx = w.idx[:0]
	w.cand = w.cand[:0]
}

// PoisonClean verifies the row is fully reset — no marks, no live
// indices, every value zero — and then scribbles sentinel garbage over
// the spare capacity of the index and candidate lists, the only storage
// a correct kernel may not read. It panics if the row is dirty. This is
// the stale-scratch tripwire of the poisoning property tests: a kernel
// that consumes leftover state from a previous factorization either
// trips the clean check here or reads a sentinel and corrupts its output
// in a way the bitwise run-to-run comparison catches.
func (w *WorkRow) PoisonClean() {
	for j := range w.val {
		if w.val[j] != 0 || w.mark[j] || w.inIdx[j] {
			panic("sparse: WorkRow not clean: stale state survived a Reset")
		}
	}
	if len(w.idx) != 0 {
		panic("sparse: WorkRow not clean: index list non-empty")
	}
	const sentinel = -0x5A5A5A5A
	spare := w.idx[:cap(w.idx)]
	for k := range spare {
		spare[k] = sentinel
	}
	cand := w.cand[:cap(w.cand)]
	for k := range cand {
		cand[k] = Entry{Col: sentinel, Val: math.NaN()}
	}
	w.cand = w.cand[:0]
}

// NNZ reports the number of positions currently marked (explicit zeros
// that were Set remain counted until dropped or reset).
func (w *WorkRow) NNZ() int {
	n := 0
	for _, j := range w.idx {
		if w.mark[j] {
			n++
		}
	}
	return n
}

// Scatter loads the sparse row (cols, vals) into the working row,
// accumulating into any positions already present.
//
//pilut:hotpath
func (w *WorkRow) Scatter(cols []int, vals []float64) {
	for k, j := range cols {
		w.Add(j, vals[k])
	}
}

// Add accumulates v into position j, marking it if previously unset.
//
//pilut:hotpath
func (w *WorkRow) Add(j int, v float64) {
	w.mark[j] = true
	if !w.inIdx[j] {
		w.inIdx[j] = true
		w.idx = append(w.idx, j) //pilutlint:ok hotalloc index list grows to peak row nnz once, then is reused across rows
	}
	w.val[j] += v
}

// Set overwrites position j with v, marking it if previously unset.
//
//pilut:hotpath
func (w *WorkRow) Set(j int, v float64) {
	w.mark[j] = true
	if !w.inIdx[j] {
		w.inIdx[j] = true
		w.idx = append(w.idx, j) //pilutlint:ok hotalloc index list grows to peak row nnz once, then is reused across rows
	}
	w.val[j] = v
}

// Get returns the value at position j (0 when unset).
//
//pilut:hotpath
func (w *WorkRow) Get(j int) float64 { return w.val[j] }

// Has reports whether position j is currently marked.
//
//pilut:hotpath
func (w *WorkRow) Has(j int) bool { return w.mark[j] }

// Drop unmarks position j and zeroes its value. The companion index list
// is compacted lazily by Indices/Gather, so Drop is O(1).
//
//pilut:hotpath
func (w *WorkRow) Drop(j int) {
	if w.mark[j] {
		w.mark[j] = false
		w.val[j] = 0
	}
}

// Indices returns the sorted list of currently-marked positions. The
// returned slice is freshly compacted and owned by the WorkRow; it is valid
// until the next mutating call.
//
//pilut:hotpath
func (w *WorkRow) Indices() []int {
	out := w.idx[:0]
	for _, j := range w.idx {
		if w.mark[j] {
			out = append(out, j) //pilutlint:ok hotalloc compacts in place into idx's own backing array, never grows
		} else {
			w.inIdx[j] = false
		}
	}
	w.idx = out
	sort.Ints(w.idx)
	return w.idx
}

// Reset clears every marked position; an O(nnz) sparse operation
// corresponding to "w = 0" in Algorithm 1.
//
//pilut:hotpath
func (w *WorkRow) Reset() {
	for _, j := range w.idx {
		w.mark[j] = false
		w.inIdx[j] = false
		w.val[j] = 0
	}
	w.idx = w.idx[:0]
}

// Gather appends the marked positions in [lo, hi) in increasing column
// order to (cols, vals) and returns the extended slices. The working row
// is left unchanged.
//
//pilut:hotpath
func (w *WorkRow) Gather(lo, hi int, cols []int, vals []float64) ([]int, []float64) {
	for _, j := range w.Indices() {
		if j >= lo && j < hi {
			cols = append(cols, j)        //pilutlint:ok hotalloc appends into the caller's slice, which owns the final row storage
			vals = append(vals, w.val[j]) //pilutlint:ok hotalloc appends into the caller's slice, which owns the final row storage
		}
	}
	return cols, vals
}

// DropBelow unmarks every position in [lo, hi) whose magnitude is < tol,
// except the protected position keep (pass −1 to protect nothing).
// Returns the number of dropped entries.
//
//pilut:hotpath
func (w *WorkRow) DropBelow(lo, hi int, tol float64, keep int) int {
	dropped := 0
	for _, j := range w.idx {
		if !w.mark[j] || j < lo || j >= hi || j == keep {
			continue
		}
		if math.Abs(w.val[j]) < tol {
			w.Drop(j)
			dropped++
		}
	}
	return dropped
}

// KeepLargest retains at most m marked positions within [lo, hi) — the m
// that rank first in the dropping order (larger magnitude first, ties
// toward the smaller column; see magKey for NaN) — and unmarks the rest.
// The protected position keep is never dropped and does not count toward
// m (pass −1 for none). The cap is a selection, not a sort. Returns the
// number of dropped entries.
//
//pilut:hotpath
func (w *WorkRow) KeepLargest(lo, hi, m int, keep int) int {
	cand := w.cand[:0]
	for _, j := range w.idx {
		if w.mark[j] && j >= lo && j < hi && j != keep {
			cand = append(cand, Entry{j, w.val[j]}) //pilutlint:ok hotalloc candidate scratch grows to peak row nnz once, then is reused across rows
		}
	}
	w.cand = cand
	if len(cand) <= m {
		return 0
	}
	selectLargest(cand, m)
	for _, e := range cand[m:] {
		w.Drop(e.Col)
	}
	return len(cand) - m
}

// RowSplit receives what WorkRow.Drain takes out of a row. Lo and Hi are
// reused buffers: a holder keeps one RowSplit per working row, and each
// Drain overwrites it.
type RowSplit struct {
	Lo, Hi []Entry // survivors with column < split / ≥ split, in index-list order
	Keep   float64 // value at the protected position (0 when unmarked)
	// HasKeep reports whether the protected position was marked.
	HasKeep bool
	// DroppedLo/DroppedHi count threshold drops on each side of the split.
	DroppedLo, DroppedHi int
}

// Drain empties the working row in a single pass over its index list: it
// drops every marked entry whose magnitude is < tol, splits the
// survivors at column split into sp.Lo and sp.Hi, and leaves the row
// reset as Reset does. The protected position keep (−1 for none) is
// never dropped and goes to sp.Keep instead of either list. It is the
// one-pass row tail of the threshold factorizations: threshold, split
// and reset in one sweep, with the caps (CapSorted) applied afterwards to
// the compact lists.
//
//pilut:hotpath
func (w *WorkRow) Drain(split, keep int, tol float64, sp *RowSplit) {
	sp.Lo, sp.Hi = sp.Lo[:0], sp.Hi[:0]
	sp.Keep, sp.HasKeep = 0, false
	sp.DroppedLo, sp.DroppedHi = 0, 0
	for _, j := range w.idx {
		v, live := w.val[j], w.mark[j]
		w.mark[j], w.inIdx[j], w.val[j] = false, false, 0
		switch {
		case !live:
		case j == keep:
			sp.Keep, sp.HasKeep = v, true
		case math.Abs(v) < tol:
			if j < split {
				sp.DroppedLo++
			} else {
				sp.DroppedHi++
			}
		case j < split:
			sp.Lo = append(sp.Lo, Entry{j, v}) //pilutlint:ok hotalloc split buffer grows to peak row nnz once, then is reused across rows
		default:
			sp.Hi = append(sp.Hi, Entry{j, v}) //pilutlint:ok hotalloc split buffer grows to peak row nnz once, then is reused across rows
		}
	}
	w.idx = w.idx[:0]
}
