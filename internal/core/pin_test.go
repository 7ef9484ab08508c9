package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/pcommtest"
	"repro/internal/sparse"
)

// The absolute bitwise pin. The backend-equivalence and determinism tests
// compare runs against each other, so a kernel rewrite that changed bits
// the same way on every backend and every run would pass them. These
// constants are sha256 digests of the Float64bits of everything a
// factor+solve produces on a small fixed TORSO matrix, recorded once: any
// change to a dropping rule, a tie-break, an elimination order or a
// reduction order shows up here as a different digest. A deliberate
// numerical change must update them (the failure message prints the new
// digest) and say why in its change notes.
var pinnedDigests = map[string]string{
	"seq/ILUT":       "254447e1fc80fb267105b52fb0fd35c896a6f7be2a86c46f8397a25b4cfa1354",
	"p1/ILUT(10)":    "0f5879c24b5400c128a74ccc99ecf384aecf7a9f3c17d461c21108afb64fbdbe",
	"p2/ILUT(10)":    "008b285f8bc9a9ef09b1796c2040360610f3dbd211c70b1d763f840fed77301a",
	"p4/ILUT(10)":    "9a5f9607b6f7578188b4f262b6019fea962445b9cc13bdac5c509043be1bcfa2",
	"p1/ILUT*(10,2)": "0f5879c24b5400c128a74ccc99ecf384aecf7a9f3c17d461c21108afb64fbdbe",
	"p2/ILUT*(10,2)": "06df58397425e0dc22f844c3620e0eef4819323032b128080cfe4106e3bdebb1",
	"p4/ILUT*(10,2)": "143192023bcf6889f30da83b3c649a5bf903d429f3689bc560e513b4555d4f28",
	"seq/ILUT(3)":    "3d4bd4d441701d5fba9e4976eb08e8c983b5bacec92572c8a3a0e91fcfe74769",
	"p2/ILUT*(3,1)":  "c73d99f623524bd78f42db834faf9cee6c49b5a804a2fcbba7417bbdbf5ab874",
}

// pinMatrix is the pinned problem: TORSO 10³ (n=1000) with a fixed
// jitter seed. Its size is independent of PILUT_TEST_FAST on purpose.
func pinMatrix() *sparse.CSR { return matgen.Torso(10, 10, 10, 31) }

var pinGMRES = krylov.Options{Restart: 30, Tol: 1e-8, MaxMatVec: 2000}

type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	d.h.Write(b[:])
}

func (d *digest) float(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	d.h.Write(b[:])
}

func (d *digest) ints(v []int) {
	d.int(len(v))
	for _, x := range v {
		d.int(x)
	}
}

func (d *digest) floats(v []float64) {
	d.int(len(v))
	for _, x := range v {
		d.float(x)
	}
}

func (d *digest) csr(a *sparse.CSR) {
	d.int(a.N)
	d.int(a.M)
	d.ints(a.RowPtr)
	d.ints(a.Cols)
	d.floats(a.Vals)
}

func (d *digest) stats(s ilu.Stats) {
	d.float(s.Flops)
	d.int(s.Dropped)
	d.int(s.FixedPivot)
	d.int(s.DroppedRule1)
	d.int(s.DroppedRule2)
	d.int(s.DroppedRule3)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// pinRHS is A·1, so the exact solution is the ones vector.
func pinRHS(a *sparse.CSR) []float64 {
	b := make([]float64, a.N)
	a.MulVec(b, sparse.Ones(a.N))
	return b
}

func seqDigest(t *testing.T, a *sparse.CSR, par ilu.Params) string {
	t.Helper()
	f, st, err := ilu.ILUT(a, par)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.N)
	r, err := krylov.GMRES(a, f, x, pinRHS(a), pinGMRES)
	if err != nil || !r.Converged {
		t.Fatalf("sequential GMRES: converged=%v err=%v", r.Converged, err)
	}
	d := newDigest()
	d.csr(f.L)
	d.csr(f.U)
	d.stats(st)
	d.int(r.NMatVec)
	d.floats(x)
	return d.sum()
}

func parDigest(t *testing.T, a *sparse.CSR, P int, opt core.Options) string {
	t.Helper()
	part := partition.KWay(graph.FromMatrix(a), P, partition.Options{Seed: 5})
	lay, err := dist.NewLayout(a.N, P, part)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(a, lay)
	if err != nil {
		t.Fatal(err)
	}
	bParts := lay.Scatter(pinRHS(a))
	pcs := make([]*core.ProcPrecond, P)
	xParts := make([][]float64, P)
	res := make([]krylov.Result, P)
	pcommtest.New(t, P, machine.T3D()).Run(func(p pcomm.Comm) {
		id := p.ID()
		pc := core.Factor(p, plan, opt)
		x := make([]float64, lay.NLocal(id))
		r, err := krylov.DistGMRES(p, dist.NewMatrix(p, lay, a), pc, x, bParts[id], pinGMRES)
		if err != nil {
			panic(err)
		}
		pcs[id], xParts[id], res[id] = pc, x, r
	})
	if !res[0].Converged {
		t.Fatalf("P=%d: DistGMRES did not converge", P)
	}
	f, perm, err := core.GatherFactors(pcs)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	d.csr(f.L)
	d.csr(f.U)
	d.ints(perm)
	for _, pc := range pcs {
		d.stats(pc.Stats.ILU)
	}
	d.int(pcs[0].Stats.NumLevels)
	d.int(res[0].NMatVec)
	d.floats(lay.Gather(xParts))
	return d.sum()
}

// TestAbsoluteBitwisePin factors and solves the pinned TORSO with
// sequential ILUT and with the parallel factorization at p ∈ {1, 2, 4}
// for ILUT and ILUT* (plus one tight-cap variant of each), and compares each digest against its recorded
// constant.
func TestAbsoluteBitwisePin(t *testing.T) {
	if pcommtest.Netcomm() {
		t.Skip("collects per-rank results into shared slices")
	}
	a := pinMatrix()
	got := map[string]string{
		"seq/ILUT":    seqDigest(t, a, ilu.Params{M: 10, Tau: 1e-4}),
		"seq/ILUT(3)": seqDigest(t, a, ilu.Params{M: 3, Tau: 1e-4}),
	}
	for _, v := range []struct {
		name string
		par  ilu.Params
		ps   []int
	}{
		{"ILUT(10)", ilu.Params{M: 10, Tau: 1e-4}, []int{1, 2, 4}},
		{"ILUT*(10,2)", ilu.Params{M: 10, Tau: 1e-4, K: 2}, []int{1, 2, 4}},
		// A tight cap: most rows hit the keep-largest rules.
		{"ILUT*(3,1)", ilu.Params{M: 3, Tau: 1e-4, K: 1}, []int{2}},
	} {
		for _, P := range v.ps {
			name := fmt.Sprintf("p%d/%s", P, v.name)
			got[name] = parDigest(t, a, P, core.Options{Params: v.par, Seed: 7})
		}
	}
	for name, want := range pinnedDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, pinned %s", name, got[name], want)
		}
	}
}
