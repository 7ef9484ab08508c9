package core

import (
	"sort"

	"repro/internal/ilu"
	"repro/internal/mis"
	"repro/internal/pcomm"
)

// FactorILU0 is the parallel zero-fill factorization the paper contrasts
// PILUT with (§3, Figure 1(a), and reference [9]): because ILU(0) creates
// no fill, the reduced matrices' structure is known in advance, so the
// *entire* elimination schedule — every independent set of the interface —
// is computed before a single numeric operation. The numeric phase then
// runs the levels with only the pivot-row exchanges, no per-level
// scheduling synchronization.
//
// The result is a ProcPrecond with the same solve machinery as Factor;
// its factors have exactly the pattern of the permuted matrix.
func FactorILU0(p pcomm.Comm, plan *Plan, misRounds int, seed int64) *ProcPrecond {
	if misRounds <= 0 {
		misRounds = mis.DefaultRounds
	}
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

	enc := func(j int) int {
		if nid := plan.NewOfInterior[j]; nid >= 0 {
			return nid
		}
		return n + j
	}
	st := &pc.Stats.ILU
	s := getScratch(2 * n)
	defer putScratch(s)
	intBase := plan.IntBase[me]
	nInt := plan.NIntLocal[me]

	// ---- Phase 1: interiors, then interface rows, pattern-restricted ---
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
	encRow := func(g int) ([]int, []float64) {
		cols, vals := plan.A.Row(g)
		ec := encCols[:0]
		ev := encVals[:0]
		for k, j := range cols {
			ec = append(ec, enc(j))
			ev = append(ev, vals[k])
		}
		sortPair(ec, ev)
		encCols, encVals = ec, ev
		return ec, ev
	}
	for li, g := range pc.owned {
		if !plan.Interior[g] {
			continue
		}
		myNew := plan.NewOfInterior[g]
		pc.newOf[li] = myNew
		pc.interiorLocal = append(pc.interiorLocal, li)
		ec, ev := encRow(g)
		lC, lV, rC, rV := s.EliminateRowStatic(myNew, ec, ev, nil, nil,
			pivotLookup, intBase, myNew, st)
		urow, err := s.FactorPivotRow(myNew, rC, rV, 0, 0, 0, st)
		if err != nil {
			panic(err)
		}
		localU[myNew-intBase] = urow
		localUSet[myNew-intBase] = true
		pc.lCols[li], pc.lVals[li] = lC, lV
		pc.uCols[li], pc.uVals[li] = urow.Cols, urow.Vals
		pc.uDiag[li] = urow.Diag
	}
	reduced := make([]redRow, nLocal)
	var ifaceLocal []int
	for li, g := range pc.owned {
		if plan.Interior[g] {
			continue
		}
		ec, ev := encRow(g)
		lC, lV, rC, rV := s.EliminateRowStatic(n+g, ec, ev, nil, nil,
			pivotLookup, intBase, intBase+nInt, st)
		pc.lCols[li], pc.lVals[li] = lC, lV
		reduced[li] = redRow{rC, rV}
		ifaceLocal = append(ifaceLocal, li)
		pc.Stats.ReducedNNZ0 += len(rC)
	}

	var flopsCharged float64
	charge := func() {
		if pending := pc.Stats.ILU.Flops - flopsCharged; pending > 0 {
			p.Work(pending)
			flopsCharged += pending
		}
	}
	charge()

	// ---- Phase 2a: precompute the whole schedule (no numeric work) -----
	// The static reduced structure never changes, so the independent sets
	// are just successive MIS calls with a shrinking active mask — all of
	// them before any elimination, the defining property of ILU(0).
	ownedIDs := make([]int, len(ifaceLocal))
	adj := make([][]int, len(ifaceLocal))
	for k, li := range ifaceLocal {
		g := pc.owned[li]
		ownedIDs[k] = g
		var nbrs []int
		for _, c := range reduced[li].cols {
			if o := c - n; o != g {
				nbrs = append(nbrs, o)
			}
		}
		adj[k] = nbrs
	}
	ownerOf := func(g int) int { return lay.PartOf[g] }
	active := make([]bool, len(ifaceLocal))
	for i := range active {
		active[i] = true
	}
	type levelPlan struct {
		sel      []bool
		ex       *mis.Exchange
		myOffset int
		size     int
	}
	var schedule []levelPlan
	nl := plan.TotInterior
	misWS := mis.NewWorkspace(n)
	for {
		sel, ex := misWS.DistributedPlan(p, ownedIDs, adj, active, ownerOf,
			misRounds, seed+int64(len(schedule))*7919)
		if ex.GlobalActive == 0 {
			break
		}
		mineCount := 0
		for k := range sel {
			if sel[k] {
				mineCount++
				active[k] = false
			}
		}
		counts := pcomm.AllGatherInts(p, []int{mineCount})
		lp := levelPlan{sel: sel, ex: ex, myOffset: nl}
		for q := 0; q < lay.P; q++ {
			if q < me {
				lp.myOffset += counts[q][0]
			}
			lp.size += counts[q][0]
		}
		schedule = append(schedule, lp)
		nl += lp.size
	}

	// ---- Phase 2b: numeric elimination over the precomputed levels -----
	nl = plan.TotInterior
	factored := make([]bool, len(ifaceLocal))
	for _, lp := range schedule {
		nl1 := nl + lp.size
		pc.levels = append(pc.levels, LevelInfo{Start: nl, Size: lp.size})

		levelNew := make(map[int]int, lp.size)
		pivotByNew := make(map[int]*ilu.URow)
		var members []int
		rank := 0
		ufLocal := make(map[int]*ilu.URow)
		for k, li := range ifaceLocal {
			if !lp.sel[k] {
				continue
			}
			g := pc.owned[li]
			urow, err := ilu.FactorPivotRowStatic(n+g, reduced[li].cols, reduced[li].vals, st)
			if err != nil {
				panic(err)
			}
			urow.Col = lp.myOffset + rank
			urow.Orig = g
			rank++
			levelNew[g] = urow.Col
			pivotByNew[urow.Col] = &urow
			ufLocal[g] = &urow
			pc.newOf[li] = urow.Col
			pc.uCols[li], pc.uVals[li] = urow.Cols, urow.Vals
			pc.uDiag[li] = urow.Diag
			reduced[li] = redRow{}
			factored[k] = true
			members = append(members, li)
		}
		sort.Slice(members, func(a, b int) bool { return pc.newOf[members[a]] < pc.newOf[members[b]] })
		pc.levelMembers = append(pc.levelMembers, members)

		// Pivot-row pushes along the level's exchange plan.
		for q := 0; q < lay.P; q++ {
			if q == me || len(lp.ex.NeedBy[q]) == 0 {
				continue
			}
			var rows []ilu.URow
			for _, k := range lp.ex.NeedBy[q] {
				if !lp.sel[k] {
					continue
				}
				rows = append(rows, *ufLocal[ownedIDs[k]])
			}
			p.Send(q, tagPivotRows, rows, ilu.BytesOfURows(rows))
		}
		for q := 0; q < lay.P; q++ {
			if q == me || len(lp.ex.ReqFrom[q]) == 0 {
				continue
			}
			rows := p.Recv(q, tagPivotRows).([]ilu.URow)
			for k := range rows {
				levelNew[rows[k].Orig] = rows[k].Col
				pivotByNew[rows[k].Col] = &rows[k]
			}
		}

		for k, li := range ifaceLocal {
			if lp.sel[k] || factored[k] {
				continue
			}
			g := pc.owned[li]
			rc := reduced[li].cols
			rv := reduced[li].vals
			tC := make([]int, len(rc))
			copy(tC, rc)
			for idx, c := range rc {
				if nid, ok := levelNew[c-n]; ok {
					tC[idx] = nid
				}
			}
			sortPair(tC, rv)
			lC, lV, nrC, nrV := s.EliminateRowStatic(n+g, tC, rv,
				pc.lCols[li], pc.lVals[li],
				func(k int) *ilu.URow { return pivotByNew[k] },
				nl, nl1, st)
			pc.lCols[li], pc.lVals[li] = lC, lV
			reduced[li] = redRow{nrC, nrV}
		}
		charge()
		nl = nl1
	}
	pc.Stats.NumLevels = len(pc.levels)

	// Final translation, identical to Factor's.
	var pairs []int
	for li, g := range pc.owned {
		if !plan.Interior[g] {
			pairs = append(pairs, g, pc.newOf[li])
		}
	}
	allPairs := pcomm.AllGatherInts(p, pairs)
	newOfIface := make(map[int]int, plan.NInterface)
	for _, pp := range allPairs {
		for i := 0; i < len(pp); i += 2 {
			newOfIface[pp[i]] = pp[i+1]
		}
	}
	for li := range pc.uCols {
		for k, c := range pc.uCols[li] {
			if c >= n {
				nid, ok := newOfIface[c-n]
				if !ok {
					panic("core: unfactored column survived ILU(0)")
				}
				pc.uCols[li][k] = nid
			}
		}
		sortPair(pc.uCols[li], pc.uVals[li])
	}

	pc.xInt = make([]float64, nInt)
	pc.xIface = make([]float64, plan.NInterface)
	p.Barrier()
	return pc
}
