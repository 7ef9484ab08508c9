package mis

import (
	"sort"

	"repro/internal/pcomm"
	"repro/internal/trace"
)

// Message tags used by Distributed; callers sharing a machine must avoid
// this range.
const (
	tagState = 9102
	tagCand  = 9103
	tagSel   = 9104
	tagExcl  = 9105
)

type stateMsg struct {
	Keys   []uint64
	Active []bool
}

// stateMsg crosses the communicator, so the multi-process backend must
// be able to serialize it.
func init() { pcomm.RegisterWire(stateMsg{}) }

// Exchange describes the communication plan the setup phase derived and
// the global activity count observed in the first round. The parallel
// factorization reuses the plan to push pivot rows: the processors that
// requested a vertex's MIS state are exactly the processors whose rows
// reference that vertex.
type Exchange struct {
	// NeedBy[q] lists local indices of owned vertices processor q needs.
	NeedBy [][]int
	// ReqFrom[q] lists global ids this processor requested from q.
	ReqFrom [][]int
	// GlobalActive is the total number of active vertices at entry.
	GlobalActive int
}

// Distributed computes an independent set of a directed graph whose
// vertices are distributed over the processors of a virtual machine.
// It mirrors the paper's implementation: a communication setup phase
// determines which vertex keys each processor pair must exchange (the
// boundary vertices), then each augmentation round performs three
// neighbour exchanges (keys, tentative flags, selected flags) plus the
// exclusion notices required by the directed two-step fix-up.
//
//   - owned lists this processor's global vertex ids;
//   - adj[i] lists the out-neighbours (global ids) of owned[i];
//   - active[i] marks vertices still eligible (nil = all);
//   - owner maps any global id appearing in adj to its processor.
//
// All processors must call Distributed collectively with the same rounds
// and seed. The returned mask is over owned, and the union across
// processors is independent and nonempty whenever any vertex is active.
// It runs on a workspace sized to the largest id it is given; callers
// that compute one independent set after another hold a Workspace and
// call its DistributedPlan instead.
func Distributed(p pcomm.Comm, owned []int, adj [][]int, active []bool, owner func(int) int, rounds int, seed int64) []bool {
	n := 0
	for _, g := range owned {
		n = max(n, g+1)
	}
	for _, nbrs := range adj {
		for _, g := range nbrs {
			n = max(n, g+1)
		}
	}
	sel, _ := NewWorkspace(n).DistributedPlan(p, owned, adj, active, owner, rounds, seed)
	return sel
}

// Workspace is the dense global-id index DistributedPlan resolves
// vertices through, in place of hash maps: one slot per global id,
// reused across calls and reset sparsely (only the slots a call touched)
// before each call returns. A processor computing one independent set
// per level keeps one Workspace for all of them.
type Workspace struct {
	// at[g] is 0 for an id the current call has not seen, li+1 for the
	// owned vertex owned[li], and −(s+1) for the remote vertex in slot s
	// of the remote state arrays.
	at []int32
}

// NewWorkspace returns a workspace for global ids in [0, n).
func NewWorkspace(n int) *Workspace { return &Workspace{at: make([]int32, n)} }

// DistributedPlan is Distributed exposing the communication plan and the
// global activity count (see Exchange). Every id in owned and adj must be
// below the workspace's n.
func (ws *Workspace) DistributedPlan(p pcomm.Comm, owned []int, adj [][]int, active []bool, owner func(int) int, rounds int, seed int64) ([]bool, *Exchange) {
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	nLocal := len(owned)
	P := p.P()

	at := ws.at
	for i, g := range owned {
		at[g] = int32(i + 1)
	}

	// --- communication setup phase -------------------------------------
	// Collect the remote vertices whose state we need: every out-neighbour
	// we do not own.
	reqFrom := make([][]int, P)
	defer func() {
		for _, g := range owned {
			at[g] = 0
		}
		for _, ids := range reqFrom {
			for _, g := range ids {
				at[g] = 0
			}
		}
	}()
	for _, nbrs := range adj {
		for _, g := range nbrs {
			if at[g] != 0 {
				continue // owned, or already requested
			}
			at[g] = -1
			q := owner(g)
			reqFrom[q] = append(reqFrom[q], g)
		}
	}
	// Slot remotes in (proc, id) order so message payloads are positional.
	nRemote := 0
	for q := range reqFrom {
		sort.Ints(reqFrom[q])
		for _, g := range reqFrom[q] {
			nRemote++
			at[g] = int32(-nRemote)
		}
	}

	// Tell every owner which of its vertices we need: flatten request
	// lists as [dst, count, ids...]* and allgather.
	var flat []int
	for q := 0; q < P; q++ {
		if len(reqFrom[q]) == 0 {
			continue
		}
		flat = append(flat, q, len(reqFrom[q]))
		flat = append(flat, reqFrom[q]...)
	}
	allReq := pcomm.AllGatherInts(p, flat)
	needBy := make([][]int, P) // needBy[q]: local indices of vertices proc q needs
	for src := 0; src < P; src++ {
		f := allReq[src]
		for i := 0; i < len(f); {
			dst, cnt := f[i], f[i+1]
			ids := f[i+2 : i+2+cnt]
			i += 2 + cnt
			if dst != p.ID() {
				continue
			}
			for _, g := range ids {
				if at[g] <= 0 {
					panic("mis: processor asked for a vertex we do not own")
				}
				needBy[src] = append(needBy[src], int(at[g])-1)
			}
		}
	}

	// --- augmentation rounds --------------------------------------------
	act := make([]bool, nLocal)
	if active == nil {
		for i := range act {
			act[i] = true
		}
	} else {
		copy(act, active)
	}
	sel := make([]bool, nLocal)
	cand := make([]bool, nLocal)
	keys := make([]uint64, nLocal)

	remKey := make([]uint64, nRemote)
	remAct := make([]bool, nRemote)
	remCand := make([]bool, nRemote)
	remSel := make([]bool, nRemote)

	// exchange sends one flag/key set per boundary vertex in both
	// directions, following the setup lists.
	exchangeBools := func(tag int, local []bool, remote []bool) {
		for q := 0; q < P; q++ {
			if q == p.ID() || len(needBy[q]) == 0 {
				continue
			}
			msg := make([]bool, len(needBy[q]))
			for k, li := range needBy[q] {
				msg[k] = local[li]
			}
			p.Send(q, tag, msg, pcomm.BytesOfBools(len(msg)))
		}
		pos := 0
		for q := 0; q < P; q++ {
			if q == p.ID() || len(reqFrom[q]) == 0 {
				continue
			}
			msg := p.Recv(q, tag).([]bool)
			copy(remote[pos:pos+len(msg)], msg)
			pos += len(msg)
		}
	}

	// Tracing is local-only: round counts and candidate/selected tallies are
	// recorded on this processor's timeline without any added communication,
	// so the cost model is identical with and without a recorder attached.
	tr := p.Tracer()
	tMIS := p.Time()
	roundsRun := 0

	ex := &Exchange{NeedBy: needBy, ReqFrom: reqFrom}
	for r := 0; r < rounds; r++ {
		nActive := 0
		for i := range owned {
			if act[i] {
				keys[i] = key(seed, r, owned[i])
				nActive++
			}
		}
		// A single global reduction in the first round detects the
		// nothing-to-do case; later rounds run unconditionally (messages
		// stay matched, and an empty round is cheap), keeping the
		// synchronization count at one per MIS call.
		if r == 0 {
			ex.GlobalActive = p.AllReduceInt(nActive, pcomm.OpSum)
		}
		if ex.GlobalActive == 0 {
			break
		}

		// Exchange keys + active state of boundary vertices.
		for q := 0; q < P; q++ {
			if q == p.ID() || len(needBy[q]) == 0 {
				continue
			}
			msg := stateMsg{Keys: make([]uint64, len(needBy[q])), Active: make([]bool, len(needBy[q]))}
			for k, li := range needBy[q] {
				msg.Keys[k] = keys[li]
				msg.Active[k] = act[li]
			}
			p.Send(q, tagState, msg,
				pcomm.BytesOfUint64s(len(needBy[q]))+pcomm.BytesOfBools(len(needBy[q])))
		}
		pos := 0
		for q := 0; q < P; q++ {
			if q == p.ID() || len(reqFrom[q]) == 0 {
				continue
			}
			msg := p.Recv(q, tagState).(stateMsg)
			copy(remKey[pos:], msg.Keys)
			copy(remAct[pos:], msg.Active)
			pos += len(msg.Keys)
		}

		// Step 1: tentative insertion.
		scanned := 0
		for i, g := range owned {
			cand[i] = false
			if !act[i] {
				continue
			}
			ok := true
			for _, u := range adj[i] {
				if u == g {
					continue
				}
				scanned++
				var uk uint64
				var ua bool
				if x := at[u]; x > 0 {
					uk, ua = keys[x-1], act[x-1]
				} else {
					uk, ua = remKey[-x-1], remAct[-x-1]
				}
				if ua && !less(keys[i], g, uk, u) {
					ok = false
					break
				}
			}
			cand[i] = ok
		}
		p.Work(float64(scanned))

		// Exchange tentative flags; step 2 withdraws members that see
		// another tentative member along an out-edge.
		exchangeBools(tagCand, cand, remCand)
		newSel := make([]bool, nLocal)
		for i, g := range owned {
			if !cand[i] {
				continue
			}
			keep := true
			for _, u := range adj[i] {
				if u == g {
					continue
				}
				var uc bool
				if x := at[u]; x > 0 {
					uc = cand[x-1]
				} else {
					uc = remCand[-x-1]
				}
				if uc {
					keep = false
					break
				}
			}
			if keep {
				newSel[i] = true
				sel[i] = true
				act[i] = false
			}
		}

		// Exchange selected flags: a vertex whose out-neighbour was
		// selected deactivates.
		exchangeBools(tagSel, newSel, remSel)
		for i, g := range owned {
			if !act[i] {
				continue
			}
			for _, u := range adj[i] {
				if u == g {
					continue
				}
				var us bool
				if x := at[u]; x > 0 {
					us = newSel[x-1]
				} else {
					us = remSel[-x-1]
				}
				if us {
					act[i] = false
					break
				}
			}
		}

		// Exclusion notices along out-edges of selected vertices: the head
		// of each such edge must deactivate even though it may not see the
		// selected tail. Notices flow opposite to the request lists.
		excl := make([][]int, P)
		for i, g := range owned {
			if !newSel[i] {
				continue
			}
			for _, u := range adj[i] {
				if u == g {
					continue
				}
				if x := at[u]; x > 0 {
					act[x-1] = false
				} else {
					excl[owner(u)] = append(excl[owner(u)], u)
				}
			}
		}
		for q := 0; q < P; q++ {
			if q == p.ID() || len(reqFrom[q]) == 0 {
				continue
			}
			// Copy before sending: excl[q] stays referenced by the sender
			// for the rest of the round, and a sent slice must never share
			// memory with anything the sender may touch again.
			p.Send(q, tagExcl, pcomm.CopyInts(excl[q]), pcomm.BytesOfInts(len(excl[q])))
		}
		for q := 0; q < P; q++ {
			if q == p.ID() || len(needBy[q]) == 0 {
				continue
			}
			ids := p.Recv(q, tagExcl).([]int)
			for _, g := range ids {
				if x := at[g]; x > 0 {
					act[x-1] = false
				}
			}
		}

		roundsRun++
		if tr.Enabled() {
			nCand, nSel := 0, 0
			for i := range owned {
				if cand[i] {
					nCand++
				}
				if newSel[i] {
					nSel++
				}
			}
			tr.Instant("mis", "round", p.Time(),
				trace.I("round", r), trace.I("candidates", nCand),
				trace.I("selected", nSel), trace.I("active_in", nActive))
		}
	}
	if tr.Enabled() {
		nSel := 0
		for i := range sel {
			if sel[i] {
				nSel++
			}
		}
		tr.Span("mis", "distributed", tMIS, p.Time(),
			trace.I("rounds", roundsRun), trace.I("global_active", ex.GlobalActive),
			trace.I("selected_local", nSel), trace.I("owned", nLocal))
	}
	return sel, ex
}
