package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/sparse"
)

// clusterDaemons is the cluster size of cluster-cold.
const clusterDaemons = 2

type daemon struct {
	url  string
	cmd  *exec.Cmd
	done chan struct{}
}

// startCluster starts clusterDaemons pilutd processes on free loopback
// ports, peered with each other, and waits until each reports the whole
// cluster healthy. Their stderr goes to log files in the results
// directory. The returned stop kills them and waits for them to exit; it
// is also registered with the run's cleanup, so an error or interrupt
// anywhere later still stops them.
func (r *run) startCluster(rep int) ([]*daemon, func(), error) {
	urls := make([]string, clusterDaemons)
	for i := range urls {
		port, err := freePort()
		if err != nil {
			return nil, func() {}, err
		}
		urls[i] = "http://127.0.0.1:" + strconv.Itoa(port)
	}
	var ds []*daemon
	var once sync.Once
	stop := func() {
		once.Do(func() {
			for _, d := range ds {
				_ = d.cmd.Process.Kill() // fails only if it already exited
				<-d.done
			}
		})
	}
	r.onCleanup(stop)
	for i, u := range urls {
		path := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d-trace%d-setup%d-daemon%d.log",
			r.workload, r.seed, boolInt(r.traced), rep, i))
		logf, err := os.Create(path)
		if err != nil {
			return ds, stop, err
		}
		cmd := exec.Command(r.pilutd, "-addr", strings.TrimPrefix(u, "http://"),
			"-backend", "real", "-procs", strconv.Itoa(procs), "-replicas", "1",
			"-cache-mb", strconv.Itoa(sequenceCacheMiB),
			"-peers", strings.Join(urls, ","), "-self", u)
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			return ds, stop, fmt.Errorf("starting pilutd: %w", err)
		}
		d := &daemon{url: u, cmd: cmd, done: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // a killed daemon's exit status is expected
			logf.Close()
			close(d.done)
		}()
		ds = append(ds, d)
		r.mu.Lock()
		logs, _ := r.notes["daemon_logs"].([]string)
		r.notes["daemon_logs"] = append(logs, path)
		r.mu.Unlock()
	}
	for _, d := range ds {
		if err := waitHealthy(d); err != nil {
			return ds, stop, err
		}
	}
	return ds, stop, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

var client = &http.Client{Timeout: 60 * time.Second}

// waitHealthy polls /healthz until the daemon answers "ok" for the whole
// cluster (every peer reachable).
func waitHealthy(d *daemon) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var h struct {
			Status string `json:"status"`
		}
		err := getJSON(d.url+"/healthz", &h)
		if err == nil && h.Status == "ok" {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("pilutd %s exited before becoming healthy", d.url)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pilutd %s not healthy after 30s: status %q, %v", d.url, h.Status, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func getJSON(url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func post(url, ctype string, body []byte, out any) error {
	resp, err := client.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort, for the error text
		return fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// submit POSTs a MatrixMarket body and returns the key.
func submit(d *daemon, body []byte) (string, error) {
	var reply struct {
		Key string `json:"key"`
	}
	err := post(d.url+"/v1/matrices", "text/plain", body, &reply)
	return reply.Key, err
}

func solve(d *daemon, key string, b []float64) (service.SolveResult, error) {
	req, err := json.Marshal(map[string]any{"key": key, "b": b, "restart": restart, "tol": tol})
	if err != nil {
		return service.SolveResult{}, err
	}
	var res service.SolveResult
	err = post(d.url+"/v1/solve", "application/json", req, &res)
	return res, err
}

// clusterStats sums /v1/stats over the daemons.
func clusterStats(ds []*daemon) (service.Stats, error) {
	var sum service.Stats
	sum.Cluster = &service.ClusterStats{}
	for _, d := range ds {
		var s service.Stats
		if err := getJSON(d.url+"/v1/stats", &s); err != nil {
			return sum, err
		}
		sum.Solves.Batches += s.Solves.Batches
		sum.Solves.BatchedRHS += s.Solves.BatchedRHS
		sum.Cache.Hits += s.Cache.Hits
		sum.Cache.Misses += s.Cache.Misses
		sum.Cache.SymbolicHits += s.Cache.SymbolicHits
		sum.Cache.SymbolicMisses += s.Cache.SymbolicMisses
		sum.Cache.Factorizations += s.Cache.Factorizations
		if c := s.Cluster; c != nil {
			sum.Cluster.PeerFetchHits += c.PeerFetchHits
			sum.Cluster.PeerFetchFailures += c.PeerFetchFailures
			sum.Cluster.ReplicaImports += c.ReplicaImports
			sum.Cluster.ReplicasPushed += c.ReplicasPushed
		}
	}
	return sum, nil
}

type clusterInput struct {
	a    *sparse.CSR
	b    []float64
	body []byte
}

func clusterProblem(seed int64) clusterInput {
	a, b := torso(seed)
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, a); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	return clusterInput{a, b, buf.Bytes()}
}

// clusterOp is one key's lifecycle under the two-node contract: POST the
// matrix to both daemons, solve on the first, then on the second. Both
// answers are checked and must be bitwise identical.
func (r *run) clusterOp(ds []*daemon, id int, tr *tracer, in clusterInput, phase map[string][]float64) (int, error) {
	t0 := time.Now()
	var key string
	for _, d := range ds {
		k, err := submit(d, in.body)
		if err != nil {
			return 0, err
		}
		if key != "" && k != key {
			return 0, wrong("daemons disagree on the key: %s vs %s", key, k)
		}
		key = k
	}
	t1 := time.Now()
	first, err := solve(ds[0], key, in.b)
	t2 := time.Now()
	if err := answer(in.a, in.b, first, err); err != nil {
		return 0, fmt.Errorf("first solve: %w", err)
	}
	second, err := solve(ds[1], key, in.b)
	t3 := time.Now()
	if err := answer(in.a, in.b, second, err); err != nil {
		return 0, fmt.Errorf("second solve: %w", err)
	}
	if !sameBits(first.X, second.X) {
		return 0, wrong("the two daemons' solutions differ")
	}
	if tr != nil {
		root := tr.record("op", -1, id, -1, t0, t3)
		tr.record("pilutd.submit", root, id, -1, t0, t1)
		tr.record("pilutd.solve_first", root, id, -1, t1, t2)
		tr.record("pilutd.solve_second", root, id, -1, t2, t3)
	}
	if phase != nil {
		phase["pilutd.submit_ms"] = append(phase["pilutd.submit_ms"], ms(t1.Sub(t0)))
		phase["pilutd.solve_first_ms"] = append(phase["pilutd.solve_first_ms"], ms(t2.Sub(t1)))
		phase["pilutd.solve_second_ms"] = append(phase["pilutd.solve_second_ms"], ms(t3.Sub(t2)))
	}
	return first.Iterations, nil
}

// clusterCold: two pilutd processes (real backend, p=2, one replica,
// factor cache of sequenceCacheMiB), one HTTP client, closed loop; each
// operation is the lifecycle of a never-seen TORSO key.
func clusterCold(r *run) error {
	if r.pilutd == "" {
		return fmt.Errorf("cluster-cold needs -pilutd")
	}
	var ds []*daemon
	err := r.repeatSetup(func() (func(), error) {
		var stop func()
		var err error
		ds, stop, err = r.startCluster(len(r.setups))
		if err != nil {
			return stop, err
		}
		_, err = r.clusterOp(ds, r.newOp(), nil, clusterProblem(r.subSeed(streamSetup, len(r.setups))), nil)
		r.check("warm-up key", err)
		return stop, err
	})
	if err != nil {
		return err
	}

	before, err := clusterStats(ds)
	if err != nil {
		return err
	}
	phase := map[string][]float64{}
	ref := &refLanes{r: r, sample: func(k int) (*sparse.CSR, []float64) { return torso(r.subSeed(streamRef, k)) }}
	timed(r, func(i int) clusterInput { return clusterProblem(r.subSeed(streamOps, i)) },
		func(id int, tr *tracer, in clusterInput) (int, error) {
			return r.clusterOp(ds, id, tr, in, phase)
		}, ref)
	after, err := clusterStats(ds)
	if err != nil {
		return err
	}
	r.rssMB = 0
	for _, d := range ds {
		r.rssMB += peakRSS(strconv.Itoa(d.cmd.Process.Pid))
	}
	for k, xs := range phase {
		r.m[k] = median(xs)
	}
	r.serviceLayers(before, after, nil, nil, nil)
	keys := float64(r.completed)
	c, c0 := after.Cluster, before.Cluster
	builds := float64(after.Cache.Factorizations - before.Cache.Factorizations)
	r.m["cluster.peer_fetch_hits"] = float64(c.PeerFetchHits-c0.PeerFetchHits) / keys
	r.m["cluster.peer_fetch_failures"] = float64(c.PeerFetchFailures-c0.PeerFetchFailures) / keys
	r.m["cluster.replica_imports"] = float64(c.ReplicaImports-c0.ReplicaImports) / keys
	r.m["cluster.builds_per_key"] = builds / keys
	if builds > 0 {
		r.m["cluster.pushed_per_build"] = float64(c.ReplicasPushed-c0.ReplicasPushed) / builds
	}

	return nil
}
