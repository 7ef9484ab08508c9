package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/matgen"
	"repro/internal/service"
	"repro/internal/sparse"
)

// Service workload settings: service defaults (Workers=2, MaxBatch=8)
// on the real backend at p=2.
const (
	hotKeys = 8    // pre-factored TORSO keys serve-hot picks from
	hotZipf = 1.2  // zipf exponent of the key choice
	hotRate = 40.0 // serve-hot arrivals per second (Poisson)
	// hotRefRounds is how many reference rounds serve-hot runs after its
	// timed phase; the closed-loop workloads interleave theirs with the
	// operations instead (see timed).
	hotRefRounds = 12
	seqSide      = 64   // serve-sequence Grid2D side: n = 4096
	seqAmp       = 1e-3 // relative value drift per sequence step
	seqChain     = 16   // steps per chain; each chain starts again from the base matrix
	maxBatch     = 8    // the service default, for the backlog test

	// sequenceCacheMiB budgets the factor cache of the sequence workloads
	// (serve-sequence, and each cluster-cold daemon) below the 256 MiB
	// default. Their operations never revisit a key, so the budget only
	// decides how much dead weight the process carries: at the default a
	// 20 s serve-sequence run peaks above 1 GiB, which a shared benchmark
	// host should not pay for nothing.
	sequenceCacheMiB = 32
)

var solveOpts = service.SolveOptions{Restart: restart, Tol: tol}

// newServer starts an in-process service; cacheMiB 0 keeps the default
// factor cache budget.
func newServer(cacheMiB int64) *service.Server {
	return service.New(service.Config{Procs: procs, Backend: "real", Seed: 1, CacheBytes: cacheMiB << 20})
}

func shutdown(srv *service.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: service shutdown: %v\n", err)
	}
}

// answer checks a service reply: the call's own error, or else the
// correctness check of its answer.
func answer(a *sparse.CSR, b []float64, res service.SolveResult, err error) error {
	if err != nil {
		return err
	}
	return checkAnswer(a, b, res.X, res.Converged)
}

// serviceLayers sets the service per-layer metrics from the replies'
// counters and the StatsSnapshot delta over the timed phase.
func (r *run) serviceLayers(before, after service.Stats, waitMs, runMs, submitMs []float64) {
	for name, xs := range map[string][]float64{
		"service.wait_ms": waitMs, "service.run_ms": runMs, "sparse.submit_ms": submitMs,
	} {
		if len(xs) > 0 {
			r.m[name] = median(xs)
		}
	}
	ds := after.Solves
	if batches := ds.Batches - before.Solves.Batches; batches > 0 {
		r.m["service.batch_size.mean"] = float64(ds.BatchedRHS-before.Solves.BatchedRHS) / float64(batches)
	}
	c, c0 := after.Cache, before.Cache
	if lookups := c.Hits + c.Misses - c0.Hits - c0.Misses; lookups > 0 {
		r.m["service.cache_hit_ratio"] = float64(c.Hits-c0.Hits) / float64(lookups)
	}
	if builds := c.SymbolicHits + c.SymbolicMisses - c0.SymbolicHits - c0.SymbolicMisses; builds > 0 {
		r.m["service.symbolic_hit_ratio"] = float64(c.SymbolicHits-c0.SymbolicHits) / float64(builds)
	}
}

// serveHot: open loop, Poisson arrivals at hotRate; each request solves
// a fresh right-hand side against one of hotKeys pre-factored TORSO keys
// picked zipf(hotZipf), timed from its due time.
func serveHot(r *run) error {
	var (
		srv      *service.Server
		mats     []*sparse.CSR
		keys     []string
		submitMs []float64
	)
	err := r.repeatSetup(func() (func(), error) {
		srv = newServer(0)
		mats, keys, submitMs = nil, nil, nil
		teardown := func() { shutdown(srv) }
		for k := 0; k < hotKeys; k++ {
			a, b := torso(r.subSeed(streamKeys, k))
			t0 := time.Now()
			key, _, err := srv.Submit(a)
			submitMs = append(submitMs, since(t0))
			if err != nil {
				return teardown, err
			}
			res, err := srv.Solve(context.Background(), key, b, solveOpts)
			err = answer(a, b, res, err)
			r.check("warm-up solve", err)
			if err != nil {
				return teardown, err
			}
			mats, keys = append(mats, a), append(keys, key)
		}
		return teardown, nil
	})
	if err != nil {
		return err
	}

	// The schedule and key choices come from the seed alone.
	rng := rand.New(rand.NewSource(r.subSeed(streamSchedule, 0)))
	zipf := rand.NewZipf(rng, hotZipf, 1, hotKeys-1)
	type arrival struct {
		due time.Duration
		key int
	}
	var sched []arrival
	for t := rng.ExpFloat64() / hotRate; t < r.seconds.Seconds(); t += rng.ExpFloat64() / hotRate {
		sched = append(sched, arrival{time.Duration(t * float64(time.Second)), int(zipf.Uint64())})
	}

	var (
		mu            sync.Mutex
		waitMs, runMs []float64
		lagMax        float64
		depths        []float64
		wg            sync.WaitGroup
	)
	n := mats[0].N
	before := srv.StatsSnapshot()
	start := time.Now()
	for i, q := range sched {
		b := rhs(r.subSeed(streamRHS, i), n)
		due := start.Add(q.due)
		time.Sleep(time.Until(due))
		lagMax = max(lagMax, since(due))
		depths = append(depths, float64(srv.StatsSnapshot().QueueDepth))
		id, tr := r.startOp()
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			res, err := srv.Solve(context.Background(), keys[q.key], b, solveOpts)
			t1 := time.Now()
			err = answer(mats[q.key], b, res, err)
			r.done(id, tr != nil, ms(t1.Sub(due)), res.Iterations, err)
			if tr != nil {
				root := tr.record("op", -1, id, -1, due, t1)
				tr.record("service.solve", root, id, -1, t0, t1)
			}
			if err == nil {
				mu.Lock()
				runMs = append(runMs, res.ModelledSeconds*1e3)
				waitMs = append(waitMs, ms(t1.Sub(t0))-res.ModelledSeconds*1e3)
				mu.Unlock()
			}
		}()
	}

	// A backlog that still holds requests a second after the last one
	// was due, or a queue that deepens towards the end, means the rate is
	// past what the server sustains: the run is invalid, not measured.
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	var backlog error
	select {
	case <-drained:
	case <-time.After(time.Until(start.Add(sched[len(sched)-1].due + time.Second))):
		backlog = fmt.Errorf("backlog grew: requests still pending 1s after the last arrival at %.0f/s", hotRate)
		<-drained
	}
	r.busy = time.Since(start) // open loop: the whole timed phase
	r.rssMB = selfPeakRSS()
	q := len(depths) / 4
	if early, late := mean(depths[:3*q]), mean(depths[3*q:]); backlog == nil && late > 2*early+maxBatch {
		backlog = fmt.Errorf("backlog grew: mean queue depth %.1f in the last quarter vs %.1f before", late, early)
	}
	if backlog != nil {
		return backlog
	}
	r.serviceLayers(before, srv.StatsSnapshot(), waitMs, runMs, submitMs)
	r.m["service.queue_depth.max"] = maxOf(depths)
	r.m["bench.gen_lag_ms.max"] = lagMax
	r.notes["requests_scheduled"] = len(sched)

	// The reference rounds cannot share the open loop's CPUs, so they
	// follow it, in a quiet process: the server is gone and its heap
	// collected.
	r.cleanup()
	runtime.GC()
	ref := &refLanes{r: r, sample: func(k int) (*sparse.CSR, []float64) { return torso(r.subSeed(streamKeys, k%hotKeys)) }}
	ref.rounds(hotRefRounds)
	return nil
}

// serveSequence: one caller, closed loop; each operation is one step of
// a fixed-pattern Grid2D chain: Submit the new values, then Solve
// warm-started from the previous step's solution. Chains restart from
// the base matrix every seqChain steps, so a run averages over many
// chains instead of following one long random walk of the values.
func serveSequence(r *run) error {
	var (
		srv   *service.Server
		prevA *sparse.CSR
		prevX []float64
	)
	base := matgen.Grid2D(seqSide, seqSide)
	b := rhs(r.subSeed(streamRHS, 0), base.N)
	err := r.repeatSetup(func() (func(), error) {
		srv = newServer(sequenceCacheMiB)
		teardown := func() { shutdown(srv) }
		key, _, err := srv.Submit(base)
		if err != nil {
			return teardown, err
		}
		res, err := srv.Solve(context.Background(), key, b, solveOpts)
		err = answer(base, b, res, err)
		r.check("warm-up solve", err)
		prevA, prevX = base, res.X
		return teardown, err
	})
	if err != nil {
		return err
	}

	var waitMs, runMs, submitMs []float64
	ref := &refLanes{r: r, sample: func(k int) (*sparse.CSR, []float64) {
		return matgen.Evolve(base, 1, seqAmp, r.subSeed(streamRef, k))[0], b
	}}
	before := srv.StatsSnapshot()
	timed(r, func(i int) *sparse.CSR {
		if i%seqChain == 0 {
			prevA = base
		}
		prevA = matgen.Evolve(prevA, 1, seqAmp, r.subSeed(streamOps, i))[0]
		return prevA
	}, func(id int, tr *tracer, a *sparse.CSR) (int, error) {
		t0 := time.Now()
		key, _, err := srv.Submit(a)
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		res, err := srv.Solve(context.Background(), key, b, service.SolveOptions{Restart: restart, Tol: tol, X0: prevX})
		t2 := time.Now()
		if tr != nil {
			root := tr.record("op", -1, id, -1, t0, t2)
			tr.record("service.submit", root, id, -1, t0, t1)
			tr.record("service.solve", root, id, -1, t1, t2)
		}
		if err := answer(a, b, res, err); err != nil {
			return 0, err
		}
		prevX = res.X
		submitMs = append(submitMs, ms(t1.Sub(t0)))
		runMs = append(runMs, res.ModelledSeconds*1e3)
		waitMs = append(waitMs, ms(t2.Sub(t1))-res.ModelledSeconds*1e3)
		return res.Iterations, nil
	}, ref)
	after := srv.StatsSnapshot()
	r.serviceLayers(before, after, waitMs, runMs, submitMs)
	r.notes["service_stats"] = after
	return nil
}
