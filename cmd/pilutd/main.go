// Command pilutd runs the parallel-ILUT solver as a long-lived HTTP
// daemon on top of internal/service: submit a matrix once (MatrixMarket
// body, content-addressed), then solve any number of right-hand sides
// against its cached factorization. Concurrent solves of the same matrix
// are coalesced into multi-RHS runs.
//
//	POST /v1/matrices   MatrixMarket body      → {"key", "n", "nnz", "known"}
//	POST /v1/solve      {"key", "b", ...}      → solution + solver stats
//	POST /v1/sequences  {"keys", "b", ...}     → per-step solutions; same-pattern
//	                                             steps reuse the symbolic analysis
//	                                             and warm-start from the previous step
//	GET  /v1/stats                             → service counters
//	GET  /metrics                              → Prometheus text metrics
//	GET  /healthz                              → {"status", "queue_depth", ...}; 503 while draining
//
// Every error response is a JSON object {"error": "..."}. Overload (full
// queue) answers 429 and an open per-matrix circuit breaker answers 503,
// both with a Retry-After header. SIGINT/SIGTERM drain in-flight
// requests before exiting; /healthz reports "draining" (503) meanwhile.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/ilu"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/pcomm/backend"
	"repro/internal/service"
	"repro/internal/sparse"
)

const maxMatrixBytes = 256 << 20

type solveRequest struct {
	Key       string    `json:"key"`
	B         []float64 `json:"b"`
	Restart   int       `json:"restart"`
	Tol       float64   `json:"tol"`
	MaxMatVec int       `json:"max_matvec"`
	// TimeoutMs, when positive, bounds the request: an exceeded deadline
	// cancels the solve collectively and answers 504.
	TimeoutMs int `json:"timeout_ms"`
}

type sequenceRequest struct {
	// Keys are the registered matrix keys solved in order against the one
	// right-hand side B — the matrix-sequence workflow. Same-pattern steps
	// reuse the cached symbolic analysis; WarmStart (default true, use a
	// pointer-less false via "warm_start": false) seeds each step with the
	// previous step's solution.
	Keys      []string  `json:"keys"`
	B         []float64 `json:"b"`
	Restart   int       `json:"restart"`
	Tol       float64   `json:"tol"`
	MaxMatVec int       `json:"max_matvec"`
	TimeoutMs int       `json:"timeout_ms"`
	WarmStart *bool     `json:"warm_start"`
}

type sequenceReply struct {
	Steps []service.SolveResult `json:"steps"`
	// Aggregates over the steps, for clients that only want the headline.
	PatternHits int `json:"pattern_hits"`
	CacheHits   int `json:"cache_hits"`
	WarmStarted int `json:"warm_started"`
}

type errorReply struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("pilutd: encoding response: %v", err)
	}
}

func solveStatus(err error) int {
	switch {
	case errors.Is(err, service.ErrUnknownMatrix):
		return http.StatusNotFound
	case errors.Is(err, service.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, service.ErrBreakerOpen),
		errors.Is(err, service.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, krylov.ErrCanceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusUnprocessableEntity
	}
}

// retryAfter extracts the back-off hint carried by shed and breaker-open
// errors, rounded up to whole seconds for the Retry-After header.
func retryAfter(err error) (time.Duration, bool) {
	var ov *service.OverloadedError
	if errors.As(err, &ov) {
		return ov.RetryAfter, true
	}
	var bo *service.BreakerOpenError
	if errors.As(err, &bo) {
		return bo.RetryAfter, true
	}
	return 0, false
}

// writeError renders the structured JSON error body every non-200 answer
// uses, attaching Retry-After when the error carries a back-off hint.
func writeError(w http.ResponseWriter, status int, err error) {
	if wait, ok := retryAfter(err); ok {
		secs := int64(wait / time.Second)
		if wait%time.Second != 0 || secs == 0 {
			secs++
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, errorReply{err.Error()})
}

func newMux(svc *service.Server, maxTimeoutMs int) *http.ServeMux {
	mux := http.NewServeMux()

	// peerGuard wraps the daemon-to-daemon surface (/v1/peer/*,
	// /v1/cluster/*) with the shared-secret check: a missing or wrong
	// token answers 403 and bumps the rejected-peer-request counter.
	peerGuard := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if !svc.PeerAuthOK(r.Header.Get(service.ClusterTokenHeader)) {
				writeJSON(w, http.StatusForbidden, errorReply{"cluster token mismatch"})
				return
			}
			h(w, r)
		}
	}

	mux.HandleFunc("POST /v1/matrices", func(w http.ResponseWriter, r *http.Request) {
		a, err := sparse.ReadMatrixMarket(http.MaxBytesReader(w, r.Body, maxMatrixBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parsing MatrixMarket body: %w", err))
			return
		}
		key, known, err := svc.Submit(a)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, service.ErrClosed) {
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"key": key, "n": a.N, "nnz": a.NNZ(), "known": known,
		})
	})

	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		var req solveRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMatrixBytes)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parsing solve request: %w", err))
			return
		}
		if req.TimeoutMs < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("timeout_ms must be non-negative, got %d", req.TimeoutMs))
			return
		}
		// Cap client deadlines at the server maximum so a single request
		// cannot pin a worker arbitrarily long; 0 means the cap itself.
		timeout := req.TimeoutMs
		if maxTimeoutMs > 0 && (timeout == 0 || timeout > maxTimeoutMs) {
			timeout = maxTimeoutMs
		}
		ctx := r.Context()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(timeout)*time.Millisecond)
			defer cancel()
		}
		res, err := svc.Solve(ctx, req.Key, req.B, service.SolveOptions{
			Restart: req.Restart, Tol: req.Tol, MaxMatVec: req.MaxMatVec,
		})
		if err != nil {
			writeError(w, solveStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})

	mux.HandleFunc("POST /v1/sequences", func(w http.ResponseWriter, r *http.Request) {
		var req sequenceRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMatrixBytes)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parsing sequence request: %w", err))
			return
		}
		if len(req.Keys) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("sequence needs at least one key"))
			return
		}
		if req.TimeoutMs < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("timeout_ms must be non-negative, got %d", req.TimeoutMs))
			return
		}
		// The deadline covers the whole sequence, capped like /v1/solve.
		timeout := req.TimeoutMs
		if maxTimeoutMs > 0 && (timeout == 0 || timeout > maxTimeoutMs) {
			timeout = maxTimeoutMs
		}
		ctx := r.Context()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(timeout)*time.Millisecond)
			defer cancel()
		}
		warm := req.WarmStart == nil || *req.WarmStart
		steps, err := svc.SolveSequence(ctx, req.Keys, req.B, service.SolveOptions{
			Restart: req.Restart, Tol: req.Tol, MaxMatVec: req.MaxMatVec,
		}, warm)
		if err != nil {
			writeError(w, solveStatus(err), err)
			return
		}
		reply := sequenceReply{Steps: steps}
		for _, res := range steps {
			if res.SymbolicHit {
				reply.PatternHits++
			}
			if res.CacheHit {
				reply.CacheHits++
			}
			if res.WarmStarted {
				reply.WarmStarted++
			}
		}
		writeJSON(w, http.StatusOK, reply)
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.StatsSnapshot())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := svc.WriteMetrics(w); err != nil {
			log.Printf("pilutd: writing metrics: %v", err)
		}
	})

	// In a cluster, /healthz aggregates every peer's liveness; peers
	// probe each other with ?scope=local, which answers this daemon's
	// own health without recursing. A down peer degrades the status but
	// keeps it 200 — the daemon still answers everything it can serve
	// alone; only draining (this daemon going away) is a 503.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !svc.ClusterEnabled() || r.URL.Query().Get("scope") == "local" {
			h := svc.Health()
			status := http.StatusOK
			if h.Status != "ok" {
				status = http.StatusServiceUnavailable
			}
			writeJSON(w, status, h)
			return
		}
		h := svc.ClusterHealthCheck()
		status := http.StatusOK
		if h.Status != "ok" && h.Status != "degraded" {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, h)
	})

	// Internal peer API: daemon-to-daemon factorization transfer, matrix
	// replication and proactive factor replicas (gob bodies, not part of
	// the public surface). All token-guarded.
	mux.HandleFunc("GET /v1/peer/factor/{key}", peerGuard(func(w http.ResponseWriter, r *http.Request) {
		data, err := svc.ExportFactor(r.PathValue("key"))
		if err != nil {
			status := http.StatusNotFound
			if !errors.Is(err, service.ErrUnknownMatrix) && !errors.Is(err, service.ErrNotExportable) {
				status = http.StatusUnprocessableEntity
			}
			writeError(w, status, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := w.Write(data); err != nil {
			log.Printf("pilutd: writing peer factor response: %v", err)
		}
	}))

	mux.HandleFunc("POST /v1/peer/matrix", peerGuard(func(w http.ResponseWriter, r *http.Request) {
		key, known, err := svc.ImportMatrix(http.MaxBytesReader(w, r.Body, maxMatrixBytes))
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, service.ErrClosed) {
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"key": key, "known": known})
	}))

	mux.HandleFunc("POST /v1/peer/replica/{key}", peerGuard(func(w http.ResponseWriter, r *http.Request) {
		known, err := svc.ImportReplica(r.PathValue("key"), http.MaxBytesReader(w, r.Body, maxMatrixBytes))
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"known": known})
	}))

	// Cluster membership: the gossiped view, runtime join and the
	// administrative drain. GET view doubles as the health probe other
	// members run every -probe-interval-ms.
	mux.HandleFunc("GET /v1/cluster/view", peerGuard(func(w http.ResponseWriter, r *http.Request) {
		v, ok := svc.ClusterView()
		if !ok {
			writeJSON(w, http.StatusNotFound, errorReply{"this daemon is not a cluster member"})
			return
		}
		writeJSON(w, http.StatusOK, v)
	}))

	mux.HandleFunc("POST /v1/cluster/view", peerGuard(func(w http.ResponseWriter, r *http.Request) {
		var v service.View
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&v); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parsing view: %w", err))
			return
		}
		merged, ok := svc.MergeView(v)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorReply{"this daemon is not a cluster member"})
			return
		}
		writeJSON(w, http.StatusOK, merged)
	}))

	mux.HandleFunc("POST /v1/cluster/join", peerGuard(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			URL string `json:"url"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parsing join request: %w", err))
			return
		}
		v, err := svc.HandleJoin(req.URL)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	}))

	mux.HandleFunc("POST /v1/cluster/leave", peerGuard(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			URL string `json:"url"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parsing leave request: %w", err))
			return
		}
		v, err := svc.HandleLeave(req.URL)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	}))

	// Unknown paths get the same structured JSON error shape as every
	// other failure instead of the default text/plain 404 page.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, errorReply{fmt.Sprintf("no such endpoint: %s %s", r.Method, r.URL.Path)})
	})

	return mux
}

// splitPeers parses the -peers list, trimming blanks.
func splitPeers(list string) []string {
	var out []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// launchPeers is the cluster launcher: it re-executes this binary once
// per other -peers entry, with -self switched to that entry, -addr
// derived from its URL, and -spawn-peers off (exactly one process
// launches the cluster). Children inherit every other flag, so the
// whole cluster shares one configuration — which ownership transfer
// requires. Children die with the launcher (SIGKILL on parent death)
// and are otherwise left to run; each drains independently on SIGTERM.
func launchPeers(peerList []string, self string) error {
	for _, peer := range peerList {
		if peer == self {
			continue
		}
		u, err := url.Parse(peer)
		if err != nil || u.Host == "" {
			return fmt.Errorf("peer %q is not a URL with a host", peer)
		}
		args := []string{"-addr", u.Host, "-self", peer, "-spawn-peers=false"}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "addr", "self", "spawn-peers", "join", "faults":
				// -join would make every child re-join (the static -peers
				// list already covers them); -faults (e.g. killpeer) must
				// hit only the daemon it was aimed at.
				return
			}
			args = append(args, "-"+f.Name+"="+f.Value.String())
		})
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting daemon for %s: %w", peer, err)
		}
		log.Printf("pilutd: launched peer daemon %s (pid %d)", peer, cmd.Process.Pid)
		go func(peer string) {
			if err := cmd.Wait(); err != nil {
				log.Printf("pilutd: peer daemon %s exited: %v", peer, err)
			}
		}(peer)
	}
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8417", "listen address (host:port, port 0 picks a free one)")
	procs := flag.Int("procs", 4, "virtual processors per factorization/solve")
	m := flag.Int("m", 10, "ILUT fill bound per row")
	tau := flag.Float64("tau", 1e-4, "ILUT drop threshold")
	k := flag.Int("k", 2, "ILUT* parameter K (0 selects plain ILUT)")
	workers := flag.Int("workers", 2, "concurrent batch executors")
	maxBatch := flag.Int("max-batch", 8, "right-hand sides coalesced per run")
	cacheMB := flag.Int64("cache-mb", 256, "factorization cache budget in MiB")
	t3d := flag.Bool("t3d", false, "model Cray T3D communication costs instead of free communication")
	backendKind := flag.String("backend", "modelled", "communication backend: modelled (virtual time) or real (wall-clock shared memory)")
	peers := flag.String("peers", "", "comma-separated base URLs of every cluster daemon (including this one); empty runs standalone")
	self := flag.String("self", "", "this daemon's base URL in -peers (e.g. http://127.0.0.1:8417)")
	spawnPeers := flag.Bool("spawn-peers", false, "launch one child pilutd per other -peers entry, forming the whole cluster from one command")
	peerTimeoutMs := flag.Int("peer-timeout-ms", 10000, "per-operation timeout for daemon-to-daemon calls (factor fetch, replication, health probes)")
	joinURL := flag.String("join", "", "base URL of a running cluster member to join at startup (requires -self; works with or without -peers)")
	replicas := flag.Int("replicas", 1, "HRW successors that hold each key besides its owner, receiving its matrix on submit and the owner's factor (0 disables replication)")
	probeIntervalMs := flag.Int("probe-interval-ms", 1000, "membership probe period in milliseconds (0 disables probing)")
	clusterToken := flag.String("cluster-token", os.Getenv("PILUT_CLUSTER_TOKEN"), "shared secret required on /v1/peer/* and /v1/cluster/* requests (default $PILUT_CLUSTER_TOKEN; empty disables)")
	traceDir := flag.String("trace-dir", "", "write a Chrome trace JSON file per machine run into this directory")
	maxTimeoutMs := flag.Int("max-timeout-ms", 600000, "per-request deadline cap in milliseconds; requests without timeout_ms get this deadline (0 disables)")
	maxQueue := flag.Int("max-queue", 1024, "queued solve requests beyond which the server sheds load with 429")
	faults := flag.String("faults", os.Getenv(fault.EnvVar), "deterministic fault-injection spec, e.g. \"seed=7,delay=0.2,panic=1@5\" (default $"+fault.EnvVar+")")
	flag.Parse()

	var spec *fault.Spec
	if *faults != "" {
		s, err := fault.Parse(*faults)
		if err != nil {
			log.Fatalf("pilutd: parsing fault spec: %v", err)
		}
		spec = s
		log.Printf("pilutd: FAULT INJECTION ACTIVE: %s", spec)
	}

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			log.Fatalf("pilutd: trace dir: %v", err)
		}
	}

	cost := machine.Zero()
	if *t3d {
		cost = machine.T3D()
	}
	// Validate, don't build: constructing a netcomm world here would
	// rendezvous a whole process group just to check a flag (the service
	// rejects multi-process backends anyway — cluster distribution
	// happens at this HTTP layer, via -peers).
	if err := backend.Validate(*backendKind); err != nil {
		log.Fatalf("pilutd: %v", err)
	}
	var clusterCfg *service.ClusterConfig
	if *peers != "" || *joinURL != "" {
		peerList := splitPeers(*peers)
		if *self == "" {
			log.Fatalf("pilutd: -peers/-join require -self (this daemon's URL)")
		}
		probe := time.Duration(*probeIntervalMs) * time.Millisecond
		if *probeIntervalMs <= 0 {
			probe = -1 // explicit "disabled" — zero means "default" to the service
		}
		repl := *replicas
		if repl <= 0 {
			repl = -1 // same: flag 0 disables, config 0 defaults
		}
		clusterCfg = &service.ClusterConfig{
			Self:          *self,
			Peers:         peerList,
			OpTimeout:     time.Duration(*peerTimeoutMs) * time.Millisecond,
			Replicas:      repl,
			ProbeInterval: probe,
			Token:         *clusterToken,
		}
		if *spawnPeers {
			if err := launchPeers(peerList, *self); err != nil {
				log.Fatalf("pilutd: launching peers: %v", err)
			}
		}
	} else if *spawnPeers {
		log.Fatalf("pilutd: -spawn-peers requires -peers")
	}
	svc := service.New(service.Config{
		Procs:      *procs,
		Params:     ilu.Params{M: *m, Tau: *tau, K: *k},
		Cost:       cost,
		Backend:    *backendKind,
		Workers:    *workers,
		MaxBatch:   *maxBatch,
		CacheBytes: *cacheMB << 20,
		TraceDir:   *traceDir,
		MaxQueue:   *maxQueue,
		Faults:     spec,
		Cluster:    clusterCfg,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("pilutd: listen: %v", err)
	}
	srv := &http.Server{Handler: newMux(svc, *maxTimeoutMs)}
	log.Printf("pilutd listening on %s (procs=%d workers=%d max-batch=%d)",
		ln.Addr(), *procs, *workers, *maxBatch)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// killpeer fault: hard-stop the listener after the deadline without
	// exiting the process — the daemon goes deaf mid-workload exactly like
	// a crashed peer, so chaos runs can watch the cluster write it off.
	var killFired atomic.Bool
	if d, ok := spec.KillPeerAfter(); ok {
		time.AfterFunc(d, func() {
			killFired.Store(true)
			log.Printf("pilutd: FAULT killpeer: closing listener after %v", d)
			srv.Close()
		})
	}

	if *joinURL != "" {
		// Listener is serving, so the seed's join broadcast can reach us.
		if err := svc.JoinCluster(*joinURL); err != nil {
			log.Fatalf("pilutd: joining cluster via %s: %v", *joinURL, err)
		}
		log.Printf("pilutd: joined cluster via %s", *joinURL)
	}

	select {
	case err := <-serveErr:
		if errors.Is(err, http.ErrServerClosed) && killFired.Load() {
			// Stay alive but deaf until signalled, as a real crash would
			// leave the process table entry behind.
			<-ctx.Done()
			log.Printf("pilutd: killpeer daemon reaped")
			return
		}
		log.Fatalf("pilutd: serve: %v", err)
	case <-ctx.Done():
	}
	log.Printf("pilutd: signal received, draining in-flight solves")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Start draining the service first so /healthz answers 503
	// ("draining") while the HTTP server is still up finishing in-flight
	// solves; then stop accepting connections and wait for both.
	svcDone := make(chan error, 1)
	go func() { svcDone <- svc.Shutdown(shutCtx) }()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("pilutd: http shutdown: %v", err)
	}
	if err := <-svcDone; err != nil {
		log.Printf("pilutd: service shutdown: %v", err)
	}
	log.Printf("pilutd: bye")
}
