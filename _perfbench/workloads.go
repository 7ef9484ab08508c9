package main

import (
	"math/rand"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// Seed streams: each kind of input draws from its own stream of the
// workload seed, so adding operations never shifts another kind's inputs.
const (
	streamSetup = iota + 1
	streamOps
	streamRef
	streamKeys
	streamSchedule
	streamRHS
)

// subSeed derives the seed of item i of a stream (splitmix64 mixing).
func (r *run) subSeed(stream, i int) int64 {
	z := uint64(r.seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// rhs is a seeded right-hand side with entries uniform in (−1, 1).
func rhs(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return b
}

// torsoSide is the TORSO grid side: n = 16³ = 4096, nnz = 27,136.
const torsoSide = 16

// torso generates a TORSO matrix whose node numbering (and so its
// sparsity pattern and key) depends on seed, with a right-hand side from
// the same seed.
func torso(seed int64) (*sparse.CSR, []float64) {
	a := matgen.Torso(torsoSide, torsoSide, torsoSide, seed)
	return a, rhs(seed, a.N)
}

type problem struct {
	a *sparse.CSR
	b []float64
}

// torsoCold: one caller, closed loop; each operation runs the full cold
// pipeline on a fresh TORSO matrix on realcomm at p=2.
func torsoCold(r *run) error {
	err := r.repeatSetup(func() (func(), error) {
		a, b := torso(r.subSeed(streamSetup, len(r.setups)))
		_, err := r.runPipeline(nil, r.newOp(), a, b, laneP2)
		r.check("warm-up pipeline", err)
		return nil, err
	})
	if err != nil {
		return err
	}
	ref := &refLanes{r: r, sample: func(k int) (*sparse.CSR, []float64) { return torso(r.subSeed(streamRef, k)) }}
	timed(r, func(i int) problem {
		a, b := torso(r.subSeed(streamOps, i))
		return problem{a, b}
	}, func(id int, tr *tracer, in problem) (int, error) {
		out, err := r.runPipeline(tr, id, in.a, in.b, laneP2)
		return out.kr.NMatVec, err
	}, ref)
	return nil
}
