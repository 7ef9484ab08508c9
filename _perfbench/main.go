// Command perfbench is the repository's benchmark: one program that runs
// the solver's four workloads against its public entry points — the
// library pipeline, the in-process service and a two-daemon pilutd
// cluster — checks every answer, and prints the end-to-end metrics
// (untraced runs) or the per-layer metrics (traced runs) named in
// BENCHMARK.json. See README.md for the workloads, the metrics and the
// layer → metric → workload map.
//
// Usage (from the repository root, through run.py, which builds it):
//
//	python3 _perfbench/run.py --workload torso-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/pcomm"
	"repro/internal/sparse"
)

// setupReps is how many times each run sets its workload up; setup_s is
// the median, and the last set-up serves the timed phase.
const setupReps = 3

var workloads = map[string]func(*run) error{
	"torso-cold":     torsoCold,
	"serve-hot":      serveHot,
	"serve-sequence": serveSequence,
	"cluster-cold":   clusterCold,
}

// run is one benchmark run: its settings, what it measured and what
// failed.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	tr       *tracer // non-nil in traced runs
	outDir   string
	pilutd   string

	mu         sync.Mutex
	nextOp     int
	timedOps   int
	attempted  int
	failed     int
	wrong      int                // answers that failed a correctness check
	lat        map[bool][]float64 // op latency in ms, keyed by "traced"
	matvecs    []float64
	setups     []float64 // seconds
	completed  int
	busy       time.Duration // time the program spent on timed operations
	rssMB      float64
	opLane     map[int]lane // pipeline ops: which lane ran them
	pipes      []pipeOut    // traced p2 pipelines, for the per-layer counters
	tts        map[lane][]float64
	m          map[string]float64 // metrics set directly by a workload
	notes      map[string]any     // provenance extras kept in the results file
	cleanupFns []func()
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		wl      = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "length of the timed phase")
		traceN  = flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
		pilutd  = flag.String("pilutd", "", "path of the pilutd binary (cluster-cold)")
		outDir  = flag.String("out", ".bench_build/results", "directory for the results file, spans and daemon logs")
		commit  = flag.String("commit", "unknown", "commit of the measured source")
		source  = flag.String("source-sha256", "", "hash of the measured source files")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark definition listing the metrics to print")
	)
	flag.Parse()
	f, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	def, err := loadSpec(*spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	r := &run{
		workload: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceN == 1, outDir: *outDir, pilutd: *pilutd,
		lat: map[bool][]float64{}, opLane: map[int]lane{}, tts: map[lane][]float64{},
		m: map[string]float64{}, notes: map[string]any{},
	}
	if r.traced {
		r.tr = newTracer()
	}

	// Daemons die with the benchmark on every exit path: deferred cleanup
	// on return, this handler on interrupts, and the kernel's parent-death
	// signal (set on each daemon) if the process itself crashes.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		r.cleanup()
		fmt.Fprintf(os.Stderr, "perfbench: %v, daemons stopped\n", s)
		os.Exit(130)
	}()
	defer r.cleanup()

	if err := f(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}

	prov := map[string]any{
		"workload": *wl, "seed": *seed, "seconds": *seconds, "trace": *traceN,
		"host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "commit": *commit, "source_sha256": *source,
		"os_arch": runtime.GOOS + "/" + runtime.GOARCH,
	}
	names := def.EndToEnd
	if r.traced {
		names = def.PerLayer
	}
	metrics, err := r.metrics(names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if r.traced {
		path := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d.trace.json", *wl, *seed))
		if err := writeChrome(path, r.tr.snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		r.notes["spans_file"] = path
	}
	result := map[string]any{
		"correct":   r.wrong == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}
	full := map[string]any{"provenance": prov, "notes": r.notes, "result": result}
	buf, err := json.MarshalIndent(full, "", "  ")
	if err == nil {
		path := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", *wl, *seed, *traceN))
		err = os.WriteFile(path, append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing results: %v\n", err)
		return 1
	}

	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n.Name, metrics[n.Name].Value, n.Unit)
	}
	pbuf, _ := json.Marshal(prov) // a map of plain values always encodes
	fmt.Printf("provenance %s\n", pbuf)
	rbuf, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(rbuf))
	return 0
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading benchmark definition: %w", err)
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics computes every named metric. A per-layer metric of a layer the
// workload never crosses reads 0; any other name this program does not
// produce is an error, so BENCHMARK.json and the code cannot drift apart.
func (r *run) metrics(names []metricDef) (map[string]metricValue, error) {
	vals := r.endToEnd()
	if r.traced {
		vals = r.perLayer()
	}
	out := make(map[string]metricValue, len(names))
	for _, n := range names {
		v, ok := vals[n.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is listed in BENCHMARK.json but not produced", n.Name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // a failed op misses every latency limit
		}
		out[n.Name] = metricValue{Value: v, Unit: n.Unit}
	}
	return out, nil
}

func (r *run) endToEnd() map[string]float64 {
	lat := r.lat[false]
	v := map[string]float64{
		"setup_s":          median(r.setups),
		"latency_ms.p50":   quantile(lat, 0.5),
		"latency_ms.p90":   quantile(lat, 0.9),
		"throughput_ops_s": float64(r.completed) / r.busy.Seconds(),
		"ok_ratio":         float64(r.attempted-r.failed) / float64(r.attempted),
		"matvecs_per_op":   mean(r.matvecs),
		"peak_rss_mb":      r.rssMB,
		"tts_ms.p1":        median(r.tts[laneP1]),
		"tts_ms.seq":       median(r.tts[laneSeq]),
		"tts_ms.modelled":  median(r.tts[laneModelled]),
	}
	return v
}

// perLayerNames is every per-layer metric; those a workload does not set
// read 0 (the workload does not cross that layer).
var perLayerNames = []string{
	"graph.from_matrix_ms", "partition.kway_ms", "partition.edge_cut", "dist.layout_ms",
	"core.analyze_ms", "core.bind_ms",
	"core.factor_ms", "core.factor_rank_ms.max", "core.factor_rank_ms.min",
	"core.levels", "core.interface_rows", "core.factor_nnz", "ilu.dropped",
	"core.precond_apply_ms", "dist.matvec_ms", "dist.new_matrix_ms",
	"krylov.gmres_ms", "krylov.self_ms", "krylov.matvecs",
	"pcomm.factor_msgs", "pcomm.factor_bytes", "pcomm.factor_collectives",
	"pcomm.solve_msgs", "pcomm.solve_bytes", "pcomm.solve_collectives",
	"seq.ilut_ms", "seq.gmres_ms",
	"service.wait_ms", "service.run_ms", "service.batch_size.mean", "service.queue_depth.max",
	"service.cache_hit_ratio", "service.symbolic_hit_ratio", "sparse.submit_ms",
	"pilutd.submit_ms", "pilutd.solve_first_ms", "pilutd.solve_second_ms",
	"cluster.peer_fetch_hits", "cluster.peer_fetch_failures", "cluster.replica_imports",
	"cluster.builds_per_key", "cluster.pushed_per_build",
	"bench.gen_lag_ms.max", "bench.trace_overhead", "bench.stage_coverage.min",
}

func (r *run) perLayer() map[string]float64 {
	v := make(map[string]float64, len(perLayerNames))
	for _, n := range perLayerNames {
		v[n] = 0
	}
	for k, x := range r.libraryLayers() {
		v[k] = x
	}
	for k, x := range r.m {
		v[k] = x
	}
	if t, u := quantile(r.lat[true], 0.5), quantile(r.lat[false], 0.5); u > 0 {
		v["bench.trace_overhead"] = t / u
	}
	return v
}

// newOp allocates an operation id.
func (r *run) newOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextOp++
	return r.nextOp
}

// startOp allocates the id of a timed operation and its tracer: traced
// runs trace every other timed operation, so the untraced half measures
// tracing overhead in the same run.
func (r *run) startOp() (int, *tracer) {
	id := r.newOp()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.timedOps++
	if r.timedOps%2 == 0 {
		return id, r.tr
	}
	return id, nil
}

// done records one finished timed operation. A failed operation counts
// in failed and misses every latency limit.
func (r *run) done(op int, traced bool, latMs float64, matvecs int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if isWrong(err) {
			r.wrong++
		}
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", op, err)
		}
		r.lat[traced] = append(r.lat[traced], math.Inf(1))
		return
	}
	r.completed++
	r.lat[traced] = append(r.lat[traced], latMs)
	r.matvecs = append(r.matvecs, float64(matvecs))
}

// check records an operation outside the timed phase (set-up warm-ups
// and reference lanes): it counts as attempted and, on error, as failed.
func (r *run) check(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if isWrong(err) {
			r.wrong++
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
	}
}

// repeatSetup sets the workload up setupReps times, tearing down every
// set-up but the last, which the timed phase uses.
func (r *run) repeatSetup(f func() (teardown func(), err error)) error {
	var teardown func()
	for i := 0; i < setupReps; i++ {
		if teardown != nil {
			teardown()
		}
		t0 := time.Now()
		td, err := f()
		r.setups = append(r.setups, time.Since(t0).Seconds())
		teardown = td
		if err != nil {
			if teardown != nil {
				teardown()
			}
			return fmt.Errorf("set-up: %w", err)
		}
	}
	if teardown != nil {
		r.onCleanup(teardown)
	}
	return nil
}

func (r *run) onCleanup(f func()) {
	r.mu.Lock()
	r.cleanupFns = append(r.cleanupFns, f)
	r.mu.Unlock()
}

// cleanup runs the registered teardowns once, last first.
func (r *run) cleanup() {
	r.mu.Lock()
	fns := r.cleanupFns
	r.cleanupFns = nil
	r.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// sampler returns the k-th reference matrix of a workload's input family
// and its right-hand side.
type sampler func(k int) (*sparse.CSR, []float64)

// timed runs op in a closed loop until the run's seconds are spent.
// gen builds each operation's inputs before its clock starts. After each
// operation one reference lane runs, outside the operation's clock, so
// the lanes sample the same stretch of time as the operations. Only the
// operations' own time counts towards throughput.
func timed[T any](r *run, gen func(i int) T, op func(id int, tr *tracer, in T) (matvecs int, err error), ref *refLanes) {
	deadline := time.Now().Add(r.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		in := gen(i)
		id, tr := r.startOp()
		t0 := time.Now()
		mv, err := op(id, tr, in)
		d := time.Since(t0)
		r.busy += d
		r.done(id, tr != nil, ms(d), mv, err)
		ref.next()
	}
	r.rssMB = selfPeakRSS()
}

// refLanes runs the reference lanes one at a time: round k solves the
// workload's k-th reference matrix cold on p2, p1, seq and modelled, in
// that order. Lanes p1, seq and modelled give the tts_ms metrics; the p2
// runs feed the library per-layer metrics and the realcomm ≡ modelled
// bitwise check at the end of each round.
type refLanes struct {
	r      *run
	sample sampler
	k      int
	l      lane
	a      *sparse.CSR
	b      []float64
	xP2    []float64
}

func (q *refLanes) next() {
	r := q.r
	if q.l == laneP2 {
		q.a, q.b = q.sample(q.k)
		q.xP2 = nil
	}
	id := r.newOp()
	t0 := time.Now()
	out, err := r.runPipeline(r.tr, id, q.a, q.b, q.l)
	tts := since(t0)
	r.check(fmt.Sprintf("reference %d lane %s", q.k, q.l), err)
	if err == nil {
		r.mu.Lock()
		r.tts[q.l] = append(r.tts[q.l], tts)
		r.mu.Unlock()
	}
	switch q.l {
	case laneP2:
		q.xP2 = out.x
	case laneModelled:
		if q.xP2 != nil && out.x != nil {
			err = nil
			if !sameBits(q.xP2, out.x) {
				err = wrong("p=2 solutions differ between realcomm and modelled")
			}
			r.check(fmt.Sprintf("reference %d bitwise", q.k), err)
		}
		q.k++
	}
	q.l = (q.l + 1) % 4
}

// rounds runs n whole reference rounds.
func (q *refLanes) rounds(n int) {
	for i := 0; i < 4*n; i++ {
		q.next()
	}
}

// runPipeline runs one cold pipeline as operation id under its own root
// span, checks its answer and keeps its counters.
func (r *run) runPipeline(tr *tracer, id int, a *sparse.CSR, b []float64, l lane) (out pipeOut, err error) {
	root := tr.begin("op", -1, id, -1)
	out, err = pipeline(tr, root, id, a, b, l)
	tr.end(root)
	if err == nil {
		err = checkAnswer(a, b, out.x, out.kr.Converged)
	}
	if err != nil {
		return pipeOut{}, fmt.Errorf("%s pipeline: %w", l, err)
	}
	r.mu.Lock()
	r.opLane[id] = l
	if l == laneP2 && tr != nil {
		rec := out
		rec.x = nil
		r.pipes = append(r.pipes, rec)
	}
	r.mu.Unlock()
	return out, nil
}

// commTotals sums the message, byte and collective counters over ranks.
func commTotals(per []pcomm.Stats) (msgs, bytes, colls float64) {
	for _, s := range per {
		msgs += float64(s.MsgsSent)
		bytes += float64(s.BytesSent)
		colls += float64(s.Collectives)
	}
	return msgs, bytes, colls
}

// libraryLayers computes the library per-layer metrics from the spans of
// every traced p=2 pipeline and the counters those pipelines returned:
// medians over operations, rank 0 for the per-rank solve spans.
func (r *run) libraryLayers() map[string]float64 {
	spans := r.tr.snapshot()
	kids := children(spans)
	byOp := map[int][]int{}
	for i, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], i)
	}
	series := map[string][]float64{}
	add := func(k string, v float64) { series[k] = append(series[k], v) }
	for op, ids := range byOp {
		l, ok := r.opLane[op]
		if !ok {
			continue
		}
		sum := map[string]float64{}
		var rankFactor []float64
		for _, i := range ids {
			s := spans[i]
			d := ms(s.End - s.Start)
			switch {
			case s.Name == "op":
				if l == laneP2 {
					add("bench.stage_coverage", ms(covered(s.Start, s.End, kids[i]))/d)
				}
			case s.Name == "core.factor_rank":
				rankFactor = append(rankFactor, d)
			case s.Rank <= 0:
				sum[s.Name] += d
				if s.Name == "krylov.gmres" {
					sum["krylov.self"] += ms(selfTime(i, spans, kids))
				}
			}
		}
		if l == laneSeq {
			add("seq.ilut_ms", sum["seq.ilut"])
			add("seq.gmres_ms", sum["seq.gmres"])
			continue
		}
		if l != laneP2 {
			continue
		}
		for _, k := range []string{"graph.from_matrix", "partition.kway", "dist.layout", "core.analyze",
			"core.bind", "core.factor", "core.precond_apply", "dist.matvec", "dist.new_matrix",
			"krylov.gmres", "krylov.self"} {
			add(k+"_ms", sum[k])
		}
		add("core.factor_rank_ms.max", maxOf(rankFactor))
		add("core.factor_rank_ms.min", minOf(rankFactor))
	}
	for _, o := range r.pipes {
		add("partition.edge_cut", float64(o.edgeCut))
		add("core.levels", float64(o.levels))
		add("core.interface_rows", float64(o.iface))
		add("core.factor_nnz", float64(o.factorNNZ))
		add("ilu.dropped", float64(o.dropped))
		add("krylov.matvecs", float64(o.kr.NMatVec))
		fm, fb, fc := commTotals(o.factorRes.PerProc)
		sm, sb, sc := commTotals(o.solveRes.PerProc)
		add("pcomm.factor_msgs", fm)
		add("pcomm.factor_bytes", fb)
		add("pcomm.factor_collectives", fc)
		add("pcomm.solve_msgs", sm)
		add("pcomm.solve_bytes", sb)
		add("pcomm.solve_collectives", sc)
	}
	out := map[string]float64{}
	for k, xs := range series {
		out[k] = median(xs)
	}
	if xs := series["bench.stage_coverage"]; len(xs) > 0 {
		out["bench.stage_coverage.min"] = minOf(xs)
	}
	return out
}

// --- statistics -------------------------------------------------------

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile by linear interpolation between order
// statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

// selfPeakRSS is this process's peak resident set (VmHWM) in MiB.
func selfPeakRSS() float64 { return peakRSS("self") }

// peakRSS reads VmHWM of /proc/<pid>/status in MiB (0 if unreadable).
func peakRSS(pid string) float64 {
	buf, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
