package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// clusterOfSize builds n in-process servers joined into one cluster
// (replication on, probing under manual control), each already holding
// every matrix in mats.
func clusterOfSize(t *testing.T, n int, mats []*sparse.CSR) (srvs []*Server, shutdown func()) {
	t.Helper()
	srvs = make([]*Server, n)
	tss := make([]*httptest.Server, n)
	for i := range tss {
		i := i
		tss[i] = httptest.NewServer(memberHandler(func() *Server { return srvs[i] }))
	}
	peers := make([]string, n)
	for i, ts := range tss {
		peers[i] = ts.URL
	}
	for i := range srvs {
		srvs[i] = New(Config{Procs: 2, Workers: 2, Backend: "real", Cluster: &ClusterConfig{
			Self: peers[i], Peers: peers, OpTimeout: 10 * time.Second,
			Replicas: 1, ProbeInterval: -1,
		}})
	}
	// Submit only after every daemon exists: Submit forwards matrices to
	// their keys' holders, and an unborn peer cannot answer.
	for _, srv := range srvs {
		for _, a := range mats {
			if _, _, err := srv.Submit(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	return srvs, func() {
		for _, ts := range tss {
			ts.Close()
		}
		for _, srv := range srvs {
			srv.Shutdown(context.Background())
		}
	}
}

// TestEmitClusterBench writes BENCH_cluster.json: solve throughput of
// in-process clusters of 1, 2 and 4 daemons over a zipfian key mix
// (hot keys are answered from caches and replicas, cold ones routed to
// their HRW owner), plus the recovery comparison the replication layer
// exists for — serving a dead owner's key from a successor's replica
// versus rebuilding the factorization cold. Gated on
// PILUT_BENCH_CLUSTER_OUT (the path to write); `make bench-cluster`
// sets it.
func TestEmitClusterBench(t *testing.T) {
	out := os.Getenv("PILUT_BENCH_CLUSTER_OUT")
	if out == "" {
		t.Skip("set PILUT_BENCH_CLUSTER_OUT=<path> to emit BENCH_cluster.json")
	}

	const (
		nMats = 8
		nOps  = 160
		side  = 32
	)
	mats := make([]*sparse.CSR, nMats)
	keys := make([]string, nMats)
	rhss := make([][]float64, nMats)
	for i := range mats {
		// Distinct fingerprints via distinct grids: side, side+1, ...
		mats[i] = matgen.Grid2D(side+i, side)
		keys[i] = sparse.Fingerprint(mats[i])
		rhss[i] = rhs(mats[i].N, int64(i+1))
	}
	// The zipfian op mix: op o solves matrix workload[o]. Fixed seed so
	// every cluster size replays the same workload.
	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.2, 1, nMats-1)
	workload := make([]int, nOps)
	for o := range workload {
		workload[o] = int(zipf.Uint64())
	}
	opt := SolveOptions{Tol: 1e-8}

	type sizeResult struct {
		Daemons    int     `json:"daemons"`
		Ops        int     `json:"ops"`
		ElapsedMs  float64 `json:"elapsed_ms"`
		OpsPerSec  float64 `json:"ops_per_sec"`
		PeerHits   int64   `json:"peer_fetch_hits"`
		RepImports int64   `json:"replica_imports"`
		Factored   int64   `json:"factorizations"`
	}
	var sizes []sizeResult
	for _, n := range []int{1, 2, 4} {
		srvs, shutdown := clusterOfSize(t, n, mats)
		// One goroutine per daemon models n concurrent clients; ops are
		// dealt round-robin so every size replays the same workload.
		start := time.Now()
		var wg sync.WaitGroup
		errc := make(chan error, n)
		for d := range srvs {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				for o := d; o < nOps; o += n {
					m := workload[o]
					res, err := srvs[d].Solve(context.Background(), keys[m], rhss[m], opt)
					if err == nil && !res.Converged {
						err = fmt.Errorf("op %d (matrix %d) did not converge", o, m)
					}
					if err != nil {
						select {
						case errc <- err:
						default:
						}
						return
					}
				}
			}(d)
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errc:
			t.Fatalf("cluster of %d: %v", n, err)
		default:
		}
		var hits, imports, factored int64
		for _, srv := range srvs {
			st := srv.StatsSnapshot()
			factored += st.Cache.Factorizations
			if st.Cluster != nil {
				hits += st.Cluster.PeerFetchHits
				imports += st.Cluster.ReplicaImports
			}
		}
		shutdown()
		ms := float64(elapsed) / float64(time.Millisecond)
		sizes = append(sizes, sizeResult{
			Daemons: n, Ops: nOps, ElapsedMs: ms,
			OpsPerSec: float64(nOps) / elapsed.Seconds(),
			PeerHits:  hits, RepImports: imports, Factored: factored,
		})
		t.Logf("daemons=%d: %d ops in %.0f ms (%.1f ops/s, %d builds, %d fetch hits, %d replica imports)",
			n, nOps, ms, float64(nOps)/elapsed.Seconds(), factored, hits, imports)
	}

	// Recovery: a dead owner's key answered from the successor's replica
	// (the proactive push already delivered the bytes) against the
	// alternative world where the survivor rebuilds the factorization
	// from scratch.
	srvs, shutdown := clusterOfSize(t, 3, nil)
	defer shutdown()
	key, b := keys[0], rhss[0]
	ranked := srvs[0].cluster.ranked(key)
	byURL := map[string]*Server{}
	for _, srv := range srvs {
		byURL[srv.cluster.self] = srv
	}
	owner, successor := byURL[ranked[0]], byURL[ranked[1]]
	// Submit on the owner: the successor receives the matrix too, but
	// only the owner builds.
	if _, _, err := owner.Submit(mats[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Solve(context.Background(), key, b, opt); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for successor.cluster.snapshot().ReplicaImports == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never landed: %+v", owner.cluster.snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	res, err := successor.Solve(context.Background(), key, b, opt)
	if err != nil || !res.Converged {
		t.Fatalf("replica-served recovery solve: res=%+v err=%v", res, err)
	}
	replicaMs := float64(time.Since(start)) / float64(time.Millisecond)
	if got := successor.StatsSnapshot().Cache.Factorizations; got != 0 {
		t.Fatalf("recovery solve built %d factorizations; the replica should have served", got)
	}

	cold := New(Config{Procs: 2, Workers: 2, Backend: "real"})
	defer cold.Shutdown(context.Background())
	if _, _, err := cold.Submit(mats[0]); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	res, err = cold.Solve(context.Background(), key, b, opt)
	if err != nil || !res.Converged {
		t.Fatalf("cold rebuild solve: res=%+v err=%v", res, err)
	}
	coldMs := float64(time.Since(start)) / float64(time.Millisecond)

	report := map[string]any{
		"benchmark": "cluster_throughput_and_recovery",
		"matrices":  map[string]any{"kind": "grid2d", "count": nMats, "side": side, "n_min": mats[0].N},
		"workload":  map[string]any{"ops": nOps, "mix": "zipf", "s": 1.2, "seed": 7},
		"tol":       opt.Tol,
		"sizes":     sizes,
		"recovery": map[string]any{
			"replica_served_ms": replicaMs,
			"cold_rebuild_ms":   coldMs,
			"speedup":           coldMs / replicaMs,
		},
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recovery: replica-served %.2f ms vs cold rebuild %.2f ms (×%.1f) → %s",
		replicaMs, coldMs, coldMs/replicaMs, out)
}
