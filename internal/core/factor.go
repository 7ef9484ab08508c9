package core

import (
	"fmt"

	"repro/internal/ilu"
	"repro/internal/mis"
	"repro/internal/pcomm"
	"repro/internal/trace"
)

// Message tags used by this package.
const (
	tagPivotRows = 9301
)

// Options configure a parallel factorization.
type Options struct {
	// Params carries M (fill per row), Tau (threshold) and K: K > 0
	// selects ILUT*(M, Tau, K); K ≤ 0 selects plain parallel ILUT(M, Tau).
	Params ilu.Params
	// MISRounds bounds the Luby augmentation rounds per level (default 5,
	// the paper's choice).
	MISRounds int
	// Seed drives the independent-set randomness.
	Seed int64
	// MaxRepairRate, when positive, arms collective numerical-breakdown
	// detection at the end of Factor: if the global fraction of pivots
	// that needed floor repairs exceeds it, or any non-finite value
	// reached the factors, every processor panics with the same
	// *BreakdownError (the decision inputs are AllGathered integers, so
	// the check never perturbs a floating-point result). The service's
	// recovery ladder catches it through pcomm.Guard. Zero — the default
	// — disables the check.
	MaxRepairRate float64
	// Schur enables the paper's §7 future-work variant: before each
	// independent-set level, every processor factors — sequentially and
	// with no synchronization — the interface rows that currently couple
	// only to its own rows (a partition-extracted block of the reduced
	// matrix). Independent sets then handle only the genuinely coupled
	// remainder, shrinking q further.
	Schur bool
}

// LevelInfo describes one independent set in the elimination order.
type LevelInfo struct {
	Start int // first new id of the level
	Size  int // number of unknowns in the level (global)
}

// LevelStats records one phase-2 level as seen from one processor: the
// global level shape plus local work counters. The slice of LevelStats has
// the same length on every processor (the level loop is collective), so
// aggregating across processors with SummarizeLevels yields the global
// per-level picture the paper's Tables 2–4 are built from. Recording is a
// handful of integer stores per level and happens whether or not a trace
// recorder is attached.
type LevelStats struct {
	Start           int // first new id of the level (global)
	Size            int // global unknowns eliminated at the level
	PivotsLocal     int // pivots this processor factored
	RowsLocal       int // local unfactored rows entering the level
	ReducedNNZLocal int // local reduced-matrix entries entering the level
	DroppedLocal    int // local entries dropped during the level (all rules)
}

// Stats reports what the factorization did on one processor, plus the
// shared level structure.
type Stats struct {
	ILU           ilu.Stats
	NumLevels     int // q: independent sets used for the interface
	NInterface    int // global interface unknowns
	NInterior     int // local interior unknowns
	ReducedNNZ0   int // local reduced-matrix entries entering phase 2
	CopiedEntries int // reduced-matrix entries copied across levels

	// Levels holds one record per phase-2 independent-set level.
	Levels []LevelStats
	// Modelled seconds per phase on this processor's virtual clock:
	// interior factorization (1a), interior elimination from interface
	// rows (1b), and the level-by-level interface factorization (2).
	Phase1InteriorSeconds  float64
	Phase1InterfaceSeconds float64
	Phase2Seconds          float64
}

// ProcPrecond is one processor's piece of the distributed preconditioner:
// the L/U rows of its owned unknowns in final elimination-order indices,
// plus the level structure that drives the triangular solves.
type ProcPrecond struct {
	plan *Plan
	me   int

	owned []int // global rows, increasing (== Lay.Rows[me])
	newOf []int // final new id per owned row

	lCols [][]int
	lVals [][]float64
	uCols [][]int // diagonal NOT included; strictly-upper in new ids
	uVals [][]float64
	uDiag []float64

	interiorLocal []int // local indices of interior rows, ascending new id
	levels        []LevelInfo
	levelMembers  [][]int // per level: local indices, ascending new id

	// solve buffers, reused across applications
	xInt   []float64
	xIface []float64

	Stats Stats
}

// Factor runs the two-phase parallel ILUT/ILUT* factorization from
// scratch-built preprocessing: it is the composition Analyze + Bind +
// numeric kernels, kept as the entry point for one-off factorizations.
// It is an SPMD collective: every processor of the machine must call it
// with the same plan and options. The returned piece belongs to the
// calling processor.
func Factor(p pcomm.Comm, plan *Plan, opt Options) *ProcPrecond {
	return Refactor(p, plan, opt)
}

// Refactor runs ONLY the numeric phase of the factorization: the
// value-dependent ILUT/Schur kernels against a prebuilt symbolic
// analysis. The plan is a Symbolic (pattern-only, typically reused
// across a matrix sequence) bound to the current value set via
// Symbolic.Bind — so "refactor for new values" is spelled
//
//	plan, err := sym.Bind(a2)        // cheap: row norms + pattern guard
//	pc := core.Refactor(p, plan, opt)
//
// The MIS level schedule is recomputed here, not read from the symbolic
// artifact: the reduced matrix's adjacency depends on threshold dropping
// and therefore on the values, and the schedule is interleaved with the
// elimination level by level. That choice is what keeps Refactor on a
// rebound plan bitwise identical to a one-shot Factor on the same
// values (see DESIGN.md §14). Like Factor it is an SPMD collective.
func Refactor(p pcomm.Comm, plan *Plan, opt Options) *ProcPrecond {
	if opt.MISRounds <= 0 {
		opt.MISRounds = mis.DefaultRounds
	}
	par := opt.Params
	n := plan.A.N
	lay := plan.Lay
	me := p.ID()

	pc := &ProcPrecond{
		plan:  plan,
		me:    me,
		owned: lay.Rows[me],
	}
	nLocal := len(pc.owned)
	pc.newOf = make([]int, nLocal)
	pc.lCols = make([][]int, nLocal)
	pc.lVals = make([][]float64, nLocal)
	pc.uCols = make([][]int, nLocal)
	pc.uVals = make([][]float64, nLocal)
	pc.uDiag = make([]float64, nLocal)
	pc.Stats.NInterface = plan.NInterface
	pc.Stats.NInterior = plan.NIntLocal[me]

	// enc maps a global column to the combined index space.
	enc := func(j int) int {
		if nid := plan.NewOfInterior[j]; nid >= 0 {
			return nid
		}
		return n + j
	}

	st := &pc.Stats.ILU
	// The scratch comes from the per-process pool: after the first few
	// factorizations every kernel call runs allocation-free, and the
	// factored rows themselves are carved from the scratch's output arena
	// (detached to the ProcPrecond when the scratch is returned).
	s := getScratch(2 * n)
	defer putScratch(s)
	intBase := plan.IntBase[me]
	nInt := plan.NIntLocal[me]

	// Charge the virtual clock for local work accumulated since the last
	// synchronization point; copied reduced-matrix entries count too (the
	// paper identifies this copying as a main ILUT overhead). Charging at
	// phase boundaries instead of one deferred lump does not change any
	// arrival time — no communication happens between charges — but it
	// makes the phase spans below reflect modelled durations.
	var flopsCharged float64
	charge := func() {
		pending := pc.Stats.ILU.Flops + float64(pc.Stats.CopiedEntries) - flopsCharged
		if pending > 0 {
			p.Work(pending)
			flopsCharged += pending
		}
	}
	tr := p.Tracer()
	tStart := p.Time()

	// ---- Phase 1a: factor the interior rows (local ILUT) ---------------
	// localU[nid-intBase] is the U row of interior pivot nid, kernel form.
	// A value slice, not []*URow: storing a pivot is a copy into
	// preallocated memory instead of a per-row heap escape, and the looked-
	// up pointers stay valid because the slice is never regrown.
	localU := make([]ilu.URow, nInt)
	localUSet := make([]bool, nInt)
	pivotLookup := func(k int) *ilu.URow {
		if !localUSet[k-intBase] {
			return nil
		}
		return &localU[k-intBase]
	}
	encCols := make([]int, 0, 64)
	encVals := make([]float64, 0, 64)
	for li, g := range pc.owned {
		if !plan.Interior[g] {
			continue
		}
		myNew := plan.NewOfInterior[g]
		pc.newOf[li] = myNew
		pc.interiorLocal = append(pc.interiorLocal, li)
		tau := par.Tau * plan.RowTau[g]

		cols, vals := plan.A.Row(g)
		encCols = encCols[:0]
		encVals = encVals[:0]
		for k, j := range cols {
			encCols = append(encCols, enc(j))
			encVals = append(encVals, vals[k])
		}
		sortPair(encCols, encVals)

		// The interior block is sequential: use the heap-driven kernel
		// with the pivot range covering my already-factored interiors.
		lC, lV, rC, rV := s.EliminateRowSeq(myNew, encCols, encVals,
			pivotLookup, intBase, myNew, tau, par.M, 0, st)
		// For an interior row the "reduced" part is its U row: everything
		// at or after the diagonal in elimination order, i.e. combined
		// indices ≥ myNew. EliminateRowSeq split at myNew, so rC holds
		// diag + later interiors + interface columns. Cap it to M like the
		// standard 2nd dropping rule (diagonal excluded from the cap).
		urow, err := s.FactorPivotRow(myNew, rC, rV, tau, par.M, par.PivotPerturb, st)
		if err != nil {
			panic(err)
		}
		localU[myNew-intBase] = urow
		localUSet[myNew-intBase] = true
		pc.lCols[li], pc.lVals[li] = lC, lV
		pc.uCols[li], pc.uVals[li] = urow.Cols, urow.Vals
		pc.uDiag[li] = urow.Diag
	}
	// Phase 1 is embarrassingly parallel; account the local work and move
	// on — no synchronization is needed until the interface phase.
	charge()
	tInterior := p.Time()
	pc.Stats.Phase1InteriorSeconds = tInterior - tStart
	if tr.Enabled() {
		tr.Span("factor", "phase1.interior", tStart, tInterior,
			trace.I("rows", nInt), trace.F("flops", st.Flops))
	}

	// ---- Phase 1b: eliminate interior unknowns from interface rows -----
	reduced := make([]redRow, nLocal)
	var remaining []int // local indices of unfactored interface rows
	for li, g := range pc.owned {
		if plan.Interior[g] {
			continue
		}
		tau := par.Tau * plan.RowTau[g]
		cols, vals := plan.A.Row(g)
		encCols = encCols[:0]
		encVals = encVals[:0]
		for k, j := range cols {
			encCols = append(encCols, enc(j))
			encVals = append(encVals, vals[k])
		}
		sortPair(encCols, encVals)
		lC, lV, rC, rV := s.EliminateRowSeq(n+g, encCols, encVals,
			pivotLookup, intBase, intBase+nInt, tau, par.M, par.K, st)
		pc.lCols[li], pc.lVals[li] = lC, lV
		reduced[li] = redRow{rC, rV}
		remaining = append(remaining, li)
		pc.Stats.ReducedNNZ0 += len(rC)
	}

	charge()
	tIface := p.Time()
	pc.Stats.Phase1InterfaceSeconds = tIface - tInterior
	if tr.Enabled() {
		tr.Span("factor", "phase1.interface-elim", tInterior, tIface,
			trace.I("rows", len(remaining)), trace.I("reduced_nnz", pc.Stats.ReducedNNZ0))
	}

	// ---- Phase 2: level-by-level interface factorization ---------------
	nl := plan.TotInterior
	ownerOf := func(g int) int { return lay.PartOf[g] }
	// My factored interface pivots, by local index: value storage with a
	// presence mask, so storing a pivot never heap-escapes and &uF[li]
	// stays valid for the level's pivot lookups.
	uF := make([]ilu.URow, nLocal)
	uFSet := make([]bool, nLocal)
	// Per-level structures, allocated once and recycled each level: the
	// adjacency of the reduced matrix as one flat buffer plus offsets, the
	// id-translation buffer, the independent-set workspace, and two dense
	// global-id tables in place of maps — reset sparsely at the end of
	// each level, so a level costs what it touches, not O(n).
	//
	//   - levelNew[g] is the new id of pivot g this level (−1 otherwise)
	//     for the pivots this processor can see: its own plus every
	//     pushed row; levelOrig lists the g set, for the reset.
	//   - pivotAt[k] is the U row of the level's pivot with new id k.
	var (
		ownedIDs  []int
		adj       [][]int
		adjFlat   []int
		adjOff    []int
		tBuf      []int
		levelOrig []int
	)
	misWS := mis.NewWorkspace(n)
	levelNew := make([]int, n)
	for g := range levelNew {
		levelNew[g] = -1
	}
	pivotAt := make([]*ilu.URow, n)
	pivotGet := func(k int) *ilu.URow { return pivotAt[k] }

	for {
		charge()
		levelT0 := p.Time()
		droppedIn := st.Dropped

		if opt.Schur {
			var factored bool
			remaining, factored = pc.schurBlockRound(p, s, remaining, reduced, &nl, uF, uFSet, par, st)
			if factored {
				continue
			}
		}

		// Adjacency of the current reduced matrix (original ids, with all
		// fill included — the paper's dynamic dependency structure). Built
		// in the recycled flat buffer: neighbour lists are slices of
		// adjFlat cut at the recorded offsets, so a level's adjacency costs
		// no allocation once the buffers have grown to the high-water mark.
		// DistributedPlan does not retain adj past its return.
		rowsIn := len(remaining)
		nnzIn := 0
		ownedIDs = ownedIDs[:0]
		adjFlat = adjFlat[:0]
		adjOff = adjOff[:0]
		for _, li := range remaining {
			g := pc.owned[li]
			ownedIDs = append(ownedIDs, g)
			nnzIn += len(reduced[li].cols)
			adjOff = append(adjOff, len(adjFlat))
			for _, c := range reduced[li].cols {
				if o := c - n; o != g {
					adjFlat = append(adjFlat, o)
				}
			}
		}
		adjOff = append(adjOff, len(adjFlat))
		adj = adj[:0]
		for k := range remaining {
			adj = append(adj, adjFlat[adjOff[k]:adjOff[k+1]:adjOff[k+1]])
		}
		sel, ex := misWS.DistributedPlan(p, ownedIDs, adj, nil, ownerOf,
			opt.MISRounds, opt.Seed+int64(len(pc.levels))*7919)
		if ex.GlobalActive == 0 {
			break
		}

		// Assign the level's new ids: members are ordered by (processor,
		// local order), so a single counts exchange fixes every rank.
		mineCount := 0
		for k := range remaining {
			if sel[k] {
				mineCount++
			}
		}
		counts := pcomm.AllGatherInts(p, []int{mineCount})
		levelSize := 0
		myOffset := nl
		for q := 0; q < lay.P; q++ {
			if q < me {
				myOffset += counts[q][0]
			}
			levelSize += counts[q][0]
		}
		nl1 := nl + levelSize
		pc.levels = append(pc.levels, LevelInfo{Start: nl, Size: levelSize})

		// Factor my pivots: only their U rows are created (independent
		// rows need no elimination), 2nd dropping rule applied. Members
		// are appended in rank order, so they are already ascending by
		// new id.
		var members []int
		rank := 0
		for k, li := range remaining {
			if !sel[k] {
				continue
			}
			g := pc.owned[li]
			tau := par.Tau * plan.RowTau[g]
			urow, err := s.FactorPivotRow(n+g, reduced[li].cols, reduced[li].vals, tau, par.M, par.PivotPerturb, st)
			if err != nil {
				panic(err)
			}
			urow.Col = myOffset + rank
			urow.Orig = g
			rank++
			uF[li] = urow
			uFSet[li] = true
			levelNew[g] = urow.Col
			levelOrig = append(levelOrig, g)
			pivotAt[urow.Col] = &uF[li]
			pc.newOf[li] = urow.Col
			pc.uCols[li], pc.uVals[li] = urow.Cols, urow.Vals
			pc.uDiag[li] = urow.Diag
			reduced[li] = redRow{}
			members = append(members, li)
		}
		pc.levelMembers = append(pc.levelMembers, members)

		// Push pivot rows along the MIS exchange plan: the processors
		// that requested a vertex's MIS state are exactly those whose
		// rows reference it, so the communication can be posted before
		// any elimination (§4 of the paper).
		for q := 0; q < lay.P; q++ {
			if q == me || len(ex.NeedBy[q]) == 0 {
				continue
			}
			var rows []ilu.URow
			for _, k := range ex.NeedBy[q] {
				if !sel[k] {
					continue
				}
				rows = append(rows, uF[remaining[k]])
			}
			p.Send(q, tagPivotRows, rows, ilu.BytesOfURows(rows))
		}
		for q := 0; q < lay.P; q++ {
			if q == me || len(ex.ReqFrom[q]) == 0 {
				continue
			}
			rows := p.Recv(q, tagPivotRows).([]ilu.URow)
			for k := range rows {
				levelNew[rows[k].Orig] = rows[k].Col
				levelOrig = append(levelOrig, rows[k].Orig)
				pivotAt[rows[k].Col] = &rows[k]
			}
		}

		// Eliminate the level's unknowns from my remaining rows
		// (Algorithm 2; single sweep thanks to independence).
		var next []int
		for k, li := range remaining {
			if sel[k] {
				continue
			}
			g := pc.owned[li]
			tau := par.Tau * plan.RowTau[g]
			// Translate this level's pivot columns to their new ids, in
			// the recycled translation buffer (the kernel does not retain
			// its column input).
			rc := reduced[li].cols
			rv := reduced[li].vals
			tC := append(tBuf[:0], rc...)
			tBuf = tC
			for idx, c := range rc {
				if c >= n && levelNew[c-n] >= 0 {
					tC[idx] = levelNew[c-n]
				}
			}
			sortPair(tC, rv)
			lC, lV, nrC, nrV := s.EliminateRow(n+g, tC, rv,
				pc.lCols[li], pc.lVals[li], pivotGet,
				nl, nl1, tau, par.M, par.K, st)
			pc.lCols[li], pc.lVals[li] = lC, lV
			reduced[li] = redRow{nrC, nrV}
			pc.Stats.CopiedEntries += len(nrC)
			next = append(next, li)
		}
		remaining = next
		for _, g := range levelOrig {
			levelNew[g] = -1
		}
		levelOrig = levelOrig[:0]
		clear(pivotAt[nl:nl1])
		nl = nl1

		charge()
		pc.Stats.Levels = append(pc.Stats.Levels, LevelStats{
			Start:           nl1 - levelSize,
			Size:            levelSize,
			PivotsLocal:     mineCount,
			RowsLocal:       rowsIn,
			ReducedNNZLocal: nnzIn,
			DroppedLocal:    st.Dropped - droppedIn,
		})
		if tr.Enabled() {
			tr.Span("factor", fmt.Sprintf("phase2.level%d", len(pc.Stats.Levels)-1),
				levelT0, p.Time(),
				trace.I("size", levelSize), trace.I("pivots_local", mineCount),
				trace.I("rows_local", rowsIn), trace.I("reduced_nnz_local", nnzIn))
		}
	}
	charge()
	tPhase2 := p.Time()
	pc.Stats.Phase2Seconds = tPhase2 - tIface
	pc.Stats.NumLevels = len(pc.levels)

	// ---- Final translation: combined indices → elimination order -------
	// One gather publishes every interface row's (original, new) pair so
	// stored U rows can be renumbered.
	var pairs []int
	for li, g := range pc.owned {
		if !plan.Interior[g] {
			pairs = append(pairs, g, pc.newOf[li])
		}
	}
	allPairs := pcomm.AllGatherInts(p, pairs)
	// The level tables are clean again; levelNew takes every interface
	// row's final new id.
	newOfIface := levelNew
	for _, pp := range allPairs {
		for i := 0; i < len(pp); i += 2 {
			newOfIface[pp[i]] = pp[i+1]
		}
	}
	for li := range pc.uCols {
		for k, c := range pc.uCols[li] {
			if c >= n {
				nid := newOfIface[c-n]
				if nid < 0 {
					panic("core: unfactored column survived the factorization")
				}
				pc.uCols[li][k] = nid
			}
		}
		sortPair(pc.uCols[li], pc.uVals[li])
	}

	pc.xInt = make([]float64, nInt)
	pc.xIface = make([]float64, plan.NInterface)
	if opt.MaxRepairRate > 0 {
		pc.checkBreakdown(p, opt.MaxRepairRate)
	}
	p.Barrier()
	if tr.Enabled() {
		tr.Span("factor", "finalize", tPhase2, p.Time(),
			trace.I("levels", pc.Stats.NumLevels))
	}
	return pc
}

// SummarizeLevels aggregates the per-processor level records of one
// factorization into the global per-level table of the paper: for each
// independent-set level, the global level size plus reduced-matrix rows,
// entries and dropped counts summed across processors. All pieces must come
// from the same collective Factor call (their Levels slices then have equal
// length by construction).
type LevelSummary struct {
	Start      int
	Size       int
	Pivots     int
	Rows       int
	ReducedNNZ int
	Dropped    int
}

func SummarizeLevels(pcs []*ProcPrecond) []LevelSummary {
	if len(pcs) == 0 {
		return nil
	}
	nlev := len(pcs[0].Stats.Levels)
	out := make([]LevelSummary, nlev)
	for _, pc := range pcs {
		if len(pc.Stats.Levels) != nlev {
			panic("core: SummarizeLevels: pieces from different factorizations")
		}
		for l, ls := range pc.Stats.Levels {
			out[l].Start = ls.Start
			out[l].Size = ls.Size
			out[l].Pivots += ls.PivotsLocal
			out[l].Rows += ls.RowsLocal
			out[l].ReducedNNZ += ls.ReducedNNZLocal
			out[l].Dropped += ls.DroppedLocal
		}
	}
	return out
}

// sortPair sorts cols ascending, permuting vals alongside.
func sortPair(cols []int, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
}
