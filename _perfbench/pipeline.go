package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/ilu"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/pcomm"
	"repro/internal/pcomm/modelled"
	"repro/internal/pcomm/realcomm"
	"repro/internal/sparse"
)

// Solver settings shared by every workload: ILUT*(10, 1e-4, 2) and
// GMRES(50) to a 1e-8 preconditioned relative residual, the paper's
// configuration and the service defaults.
var (
	params  = ilu.Params{M: 10, Tau: 1e-4, K: 2}
	restart = 50
	tol     = 1e-8
)

// residualBound is the one fixed bound on the true relative residual
// ‖b−A·x‖/‖b‖ every answer is checked against. GMRES stops on the
// preconditioned residual, so the true one may sit an order or two above
// tol on the ill-conditioned TORSO operator.
const residualBound = 1e-6

// procs is the world size of every parallel run except the p=1 lane: the
// CPU count of the host the baseline was recorded on.
const procs = 2

// lane is one configuration of the library pipeline.
type lane int

const (
	laneP2       lane = iota // realcomm, p=2: the measured configuration
	laneP1                   // realcomm, p=1
	laneSeq                  // sequential ilu.ILUT + krylov.GMRES
	laneModelled             // modelled backend, p=2 (the CLI/daemon default)
)

func (l lane) String() string {
	return [...]string{"p2", "p1", "seq", "modelled"}[l]
}

// pipeOut is one cold pipeline's answer and the counters the program
// returned along the way.
type pipeOut struct {
	x         []float64
	kr        krylov.Result
	factorRes pcomm.Result
	solveRes  pcomm.Result
	edgeCut   int
	levels    int
	iface     int
	factorNNZ int
	dropped   int
}

// pipeline runs one cold time-to-solution on lane l: graph → partition →
// layout → symbolic analysis → bind → numeric factorization → GMRES, each
// stage a span under root (the operation's span).
func pipeline(tr *tracer, root, op int, a *sparse.CSR, b []float64, l lane) (pipeOut, error) {
	var out pipeOut
	if l == laneSeq {
		return seqPipeline(tr, root, op, a, b)
	}
	p := procs
	if l == laneP1 {
		p = 1
	}
	newWorld := func() pcomm.World {
		if l == laneModelled {
			return modelled.New(p, machine.Zero())
		}
		return realcomm.New(p)
	}

	var g *graph.Graph
	tr.do("graph.from_matrix", root, op, -1, func() { g = graph.FromMatrix(a) })
	var part []int
	tr.do("partition.kway", root, op, -1, func() { part = partition.KWay(g, p, partition.Options{Seed: 1}) })
	out.edgeCut = g.EdgeCut(part)
	var lay *dist.Layout
	var err error
	tr.do("dist.layout", root, op, -1, func() { lay, err = dist.NewLayout(a.N, p, part) })
	if err != nil {
		return out, err
	}
	var sym *core.Symbolic
	tr.do("core.analyze", root, op, -1, func() { sym, err = core.Analyze(a, lay) })
	if err != nil {
		return out, err
	}
	var plan *core.Plan
	tr.do("core.bind", root, op, -1, func() { plan, err = sym.Bind(a) })
	if err != nil {
		return out, err
	}

	pcs := make([]*core.ProcPrecond, p)
	fid := tr.begin("core.factor", root, op, -1)
	out.factorRes = newWorld().Run(func(c pcomm.Comm) {
		tr.do("core.factor_rank", fid, op, c.ID(), func() {
			pcs[c.ID()] = core.Factor(c, plan, core.Options{Params: params, Seed: 1})
		})
	})
	tr.end(fid)
	out.levels = pcs[0].Stats.NumLevels
	out.iface = pcs[0].Stats.NInterface
	for _, pc := range pcs {
		out.factorNNZ += pc.NNZ()
		out.dropped += pc.Stats.ILU.Dropped
	}

	sid := tr.begin("solve", root, op, -1)
	bParts := lay.Scatter(b)
	xParts := make([][]float64, p)
	results := make([]krylov.Result, p)
	errs := make([]error, p)
	out.solveRes = newWorld().Run(func(c pcomm.Comm) {
		me := c.ID()
		var m *dist.Matrix
		tr.do("dist.new_matrix", sid, op, me, func() { m = dist.NewMatrix(c, lay, a) })
		xParts[me] = make([]float64, lay.NLocal(me))
		var dop krylov.DistOperator = m
		var dprec krylov.DistPreconditioner = pcs[me]
		gid := tr.begin("krylov.gmres", sid, op, me)
		if tr != nil {
			dop = tracedOp{m, tr, gid, op}
			dprec = tracedPrec{pcs[me], tr, gid, op}
		}
		results[me], errs[me] = krylov.DistGMRES(c, dop, dprec, xParts[me], bParts[me],
			krylov.Options{Restart: restart, Tol: tol})
		tr.end(gid)
	})
	out.x = lay.Gather(xParts)
	tr.end(sid)
	out.kr = results[0]
	return out, errs[0]
}

func seqPipeline(tr *tracer, root, op int, a *sparse.CSR, b []float64) (pipeOut, error) {
	var out pipeOut
	var f *ilu.Factors
	var st ilu.Stats
	var err error
	tr.do("seq.ilut", root, op, -1, func() { f, st, err = ilu.ILUT(a, params) })
	if err != nil {
		return out, err
	}
	out.dropped = st.Dropped
	out.factorNNZ = f.NNZ()
	out.x = make([]float64, a.N)
	tr.do("seq.gmres", root, op, -1, func() {
		out.kr, err = krylov.GMRES(a, f, out.x, b, krylov.Options{Restart: restart, Tol: tol})
	})
	return out, err
}

// tracedOp and tracedPrec time every matrix–vector product and
// preconditioner application GMRES makes, as children of its span.
type tracedOp struct {
	m          *dist.Matrix
	tr         *tracer
	parent, op int
}

func (t tracedOp) MulVec(c pcomm.Comm, y, x []float64) {
	id := t.tr.begin("dist.matvec", t.parent, t.op, c.ID())
	t.m.MulVec(c, y, x)
	t.tr.end(id)
}

type tracedPrec struct {
	pc         *core.ProcPrecond
	tr         *tracer
	parent, op int
}

func (t tracedPrec) Solve(c pcomm.Comm, x, b []float64) {
	id := t.tr.begin("core.precond_apply", t.parent, t.op, c.ID())
	t.pc.Solve(c, x, b)
	t.tr.end(id)
}

// checkAnswer is the correctness check every answer passes: the solver
// reported convergence and the true relative residual is within
// residualBound.
func checkAnswer(a *sparse.CSR, b, x []float64, converged bool) error {
	if !converged {
		return wrong("did not converge")
	}
	if len(x) != a.N {
		return wrong("solution has %d entries, want %d", len(x), a.N)
	}
	r := make([]float64, a.N)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rel := sparse.Norm2(r) / sparse.Norm2(b)
	if !(rel <= residualBound) {
		return wrong("true relative residual %.3g exceeds %.0e", rel, residualBound)
	}
	return nil
}

// wrongAnswer marks an error as a failed correctness check, as opposed
// to an operation that errored or was refused.
type wrongAnswer struct{ error }

func wrong(format string, args ...any) error {
	return wrongAnswer{fmt.Errorf(format, args...)}
}

func isWrong(err error) bool {
	var w wrongAnswer
	return errors.As(err, &w)
}

// sameBits reports whether two solutions are bitwise identical.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// since is the wall time elapsed since t0, in milliseconds.
func since(t0 time.Time) float64 { return ms(time.Since(t0)) }
