package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type runConfig struct {
	Seed    int64
	Seconds int
	Trace   bool
	WorkDir string
}

// workload is one closed-loop traffic mix.
type workload struct {
	name string
	// clients is the number of closed-loop client goroutines.
	clients int
	// ops is the number of shopper ops a run of the given nominal length
	// makes. Runs are sized by op count, not wall time, so the same seed
	// always runs the same ops.
	ops func(seconds int) int
	// setup builds a system ready for traffic from the seed. Tracing
	// decorators are installed when tr is non-nil.
	setup func(ctx context.Context, cfg runConfig, tr *tracer) (system, error)
}

// layerCounter is a system that reports layer counters it reads from the
// program at the end of the timed phase.
type layerCounter interface {
	countLayers(tr *tracer)
}

// system is a set-up workload.
type system interface {
	// op runs shopper op i end to end, records its latencies, plans and
	// purchases in rec, and checks its outputs.
	op(ctx context.Context, i int, rec *recorder) error
	// spendNanos is the marketplace's total charges so far.
	spendNanos() int64
	// finish runs the end-of-run money checks and releases the system.
	finish(ctx context.Context, rec *recorder) (map[string]any, error)
	// close releases the system without checks.
	close()
}

var workloads = map[string]workload{}

func init() {
	for _, w := range []workload{sessionHTTP, serviceMix, executeLarge} {
		workloads[w.name] = w
	}
}

// A run sets its system up at least setupMinRepeats times and until the
// set-ups took setupMinSeconds in all, but at most setupMaxRepeats times.
// setup_s is the median; the last system serves the traffic. Short set-ups
// thus repeat often enough that their median is not at the mercy of one
// scheduler hiccup.
const (
	setupMinRepeats = 5
	setupMinSeconds = 2.0
	setupMaxRepeats = 200
)

// maxRunFactor caps the timed phase: no op starts after maxRunFactor ×
// --seconds, so a host far slower than usual still ends the run in time.
const maxRunFactor = 3

// opAll is the recorder kind of every op's whole duration, failed or not.
const opAll = "op"

// Detail is the line printed before the result: what ran, where, and the
// outcome figures a later comparison needs beside the metrics.
type Detail struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Clients    int     `json:"clients"`
	Ops        int     `json:"ops"`
	FailedFrac float64 `json:"failed_frac"`
	// SetupS is every set-up's time as measured.
	SetupS   []float64 `json:"setup_s"`
	ElapsedS float64   `json:"elapsed_s"`
	// The metrics give times at the reference speed (calib.go). RefMS and
	// RefSetupMS are the reference kernel's median times in the timed phase
	// and in set-up; Measured holds the time metrics as measured.
	RefNominalMS float64            `json:"ref_nominal_ms"`
	RefMS        float64            `json:"ref_ms"`
	RefSetupMS   float64            `json:"ref_setup_ms"`
	Measured     map[string]float64 `json:"measured"`
	// PeakRSSMB is the process's resident-set high-water mark (VmHWM).
	PeakRSSMB float64        `json:"peak_rss_mb"`
	Env       Env            `json:"env"`
	Checks    map[string]any `json:"checks,omitempty"`
	Problems  []string       `json:"problems,omitempty"`
	SpansFile string         `json:"spans_file,omitempty"`
}

func runWorkload(ctx context.Context, w workload, cfg runConfig) (Result, Detail, error) {
	name := w.name
	// One processor: the program then slows with the host exactly as the
	// single-threaded reference kernel does (see README.md).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	setupCal, cal := &calibrator{}, &calibrator{}
	detail := Detail{Workload: name, Seed: cfg.Seed, Trace: cfg.Trace, Clients: w.clients}

	var sys system
	var marks []int // each set-up's calibration mark
	total := 0.0
	for k := 0; k < setupMaxRepeats && (k < setupMinRepeats || total < setupMinSeconds); k++ {
		if sys != nil {
			sys.close()
		}
		// Every set-up starts from a collected heap, so none pays for the
		// garbage of the one before.
		runtime.GC()
		for j := 0; j < 2; j++ {
			setupCal.sample()
		}
		marks = append(marks, setupCal.mark())
		start := time.Now()
		s, err := w.setup(ctx, cfg, tr)
		if err != nil {
			return Result{}, detail, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start).Seconds()
		detail.SetupS = append(detail.SetupS, d)
		total += d
		sys = s
	}
	for j := 0; j < 2; j++ {
		setupCal.sample()
	}
	setupScaled := make([]float64, len(detail.SetupS))
	for i, d := range detail.SetupS {
		setupScaled[i] = d * setupCal.scale(marks[i])
	}
	tr.reset()
	runtime.GC()
	// The first and last ops get kernel samples on both sides.
	for j := 0; j < refWindow; j++ {
		cal.sample()
	}

	n := w.ops(cfg.Seconds)
	rec := newRecorder(cal)
	spend0 := sys.spendNanos()
	p0 := readProc()
	cpu0 := readCPU()
	mem := startMemSampler(20 * time.Millisecond)
	start := time.Now()
	deadline := start.Add(time.Duration(maxRunFactor*cfg.Seconds) * time.Second)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				rec.attempt()
				opCtx, end := tr.begin(withOp(ctx, i), "op")
				t := time.Now()
				err := sys.op(opCtx, i, rec)
				rec.observe(opAll, sinceMS(t))
				end()
				if err != nil {
					rec.fail(i, err)
				}
				cal.sampleDue()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	mem.stop()
	for j := 0; j < refWindow; j++ {
		cal.sample()
	}
	if lc, ok := sys.(layerCounter); ok && tr != nil {
		lc.countLayers(tr)
	}
	p1 := readProc()
	cpu1 := readCPU()
	spend1 := sys.spendNanos()
	if ctx.Err() != nil {
		sys.close()
		return Result{}, detail, ctx.Err()
	}
	spans, counts := tr.snapshot()
	checks, err := sys.finish(ctx, rec)
	if err != nil {
		rec.problem("end-of-run checks: %v", err)
	}

	detail.Ops = n
	detail.PeakRSSMB = peakRSSMB()
	detail.ElapsedS = elapsed.Seconds()
	stealAll, stealBusy := stealShares(cpu0, cpu1)
	detail.Env = stampEnv(stealAll, stealBusy)
	detail.Checks = checks
	detail.RefNominalMS = refNominalMS
	detail.RefMS = cal.medianMS()
	detail.RefSetupMS = setupCal.medianMS()
	detail.Measured = make(map[string]float64)
	for k, m := range timeMetrics(rec, w.clients, false, detail.SetupS) {
		detail.Measured[k] = m.Value
	}
	rec.mu.Lock()
	detail.Problems = rec.problems
	attempted, failed := rec.attempted, rec.failed
	rec.mu.Unlock()
	completed := attempted - failed
	detail.FailedFrac = float64(failed) / float64(max(attempted, 1))
	res := Result{
		Correct:   len(detail.Problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]Metric),
	}
	if completed == 0 {
		res.Correct = false
		return res, detail, nil
	}
	perOp := 1 / float64(completed)
	times := timeMetrics(rec, w.clients, true, setupScaled)
	if !cfg.Trace {
		m := res.Metrics
		for k, v := range times {
			m[k] = v
		}
		m["spend_usd_per_op"] = Metric{float64(spend1-spend0) / 1e9 * perOp, "usd"}
		if len(rec.est) > 0 {
			m["est_corr"] = Metric{meanByOp(rec.est), "bits"}
		}
		if len(rec.realized) > 0 {
			m["realized_corr"] = Metric{meanByOp(rec.realized), "bits"}
		}
		m["rss_p50_mb"] = Metric{percentile(mem.rss, 0.5), "MB"}
		return res, detail, nil
	}

	path := filepath.Join(cfg.WorkDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, cfg.Seed))
	if err := tr.dump(path); err != nil {
		return res, detail, err
	}
	detail.SpansFile = path
	res.Metrics = layerMetrics(spans, counts, perOp, times["throughput_ops_s"].Value, p0, p1)
	return res, detail, nil
}

// timeMetrics derives the latency, throughput and set-up metrics of a run,
// scaled to the reference speed or as measured. Throughput is completed ops
// over the time the clients spent in ops: clients / the mean op time, which
// leaves out the reference kernel's time between ops.
func timeMetrics(rec *recorder, clients int, scaled bool, setupS []float64) map[string]Metric {
	m := make(map[string]Metric)
	latencyMetrics("session", rec.times(opSession, scaled), m)
	latencyMetrics("acquire", rec.times(opAcquire, scaled), m)
	latencyMetrics("execute", rec.times(opExecute, scaled), m)
	busy := 0.0
	for _, v := range rec.times(opAll, scaled) {
		busy += v
	}
	rec.mu.Lock()
	completed := rec.attempted - rec.failed
	rec.mu.Unlock()
	if busy > 0 {
		m["throughput_ops_s"] = Metric{float64(completed) * float64(clients) / (busy / 1000), "ops/s"}
	}
	m["setup_s"] = Metric{median(setupS), "s"}
	return m
}

// layerMetrics derives the per-layer metrics of a traced run. Times and
// counts are per completed op; every per-layer name is present, 0 where the
// workload does not reach the layer.
func layerMetrics(spans []span, counts map[string]float64, perOp, throughput float64, p0, p1 procSample) map[string]Metric {
	m := make(map[string]Metric)
	put := func(name, unit string, v float64) { m[name] = Metric{v, unit} }
	for _, call := range []string{"catalog", "dataset_fds", "quote", "sample", "sample_delta", "execute_projection"} {
		p := "marketplace." + call
		put(p+".calls", "count", counts[p+".calls"]*perOp)
		put(p+".ms", "ms", counts[p+".ms"]*perOp)
		if call != "quote" {
			put(p+".rows", "count", counts[p+".rows"]*perOp)
		}
	}
	put("marketplace.http.bytes_in", "bytes", counts["marketplace.http.bytes_in"]*perOp)
	put("marketplace.http.attempts", "count", counts["marketplace.http.attempts"]*perOp)

	selfMS := func(childPrefix string, names ...string) (total, self float64) {
		set := make(map[string]bool, len(names))
		for _, n := range names {
			set[n] = true
		}
		t, s := selfTimes(spans, set, childPrefix)
		return ms(t) * perOp, ms(s) * perOp
	}
	_, offSelf := selfMS("marketplace.", "core.offline", "core.escalate")
	put("offline.self_ms", "ms", offSelf)

	put("pricing.calls", "count", counts["pricing.calls"]*perOp)
	put("pricing.misses", "count", counts["pricing.inner.calls"]*perOp)
	put("pricing.ms", "ms", counts["pricing.ms"]*perOp)
	hit := 0.0
	if c := counts["pricing.calls"]; c > 0 {
		hit = 1 - counts["pricing.inner.calls"]/c
	}
	put("pricing.hit_ratio", "ratio", hit)

	for _, c := range []string{"offline", "escalate", "acquire", "execute"} {
		put("core."+c+".ms", "ms", counts["core."+c+".ms"]*perOp)
	}
	put("core.sample_rounds", "count", counts["core.sample_rounds"]*perOp)

	acqTotal, acqSelf := selfMS("marketplace.", "core.acquire")
	put("search.self_ms", "ms", acqSelf)
	put("search.evals", "count", counts["search.evals"]*perOp)
	evalsPerS := 0.0
	if acqTotal > 0 {
		evalsPerS = counts["search.evals"] * perOp / (acqTotal / 1000)
	}
	put("search.evals_per_s", "1/s", evalsPerS)
	_, execSelf := selfMS("marketplace.", "core.execute")
	put("execute.self_ms", "ms", execSelf)

	handlerMS := 0.0
	for _, h := range []string{"acquire", "topk", "execute"} {
		v := counts["service."+h+".handler.ms"]
		handlerMS += v
		put("service."+h+".handler_ms", "ms", v*perOp)
	}
	handlerMS += counts["service.read.handler.ms"]
	transport := 0.0
	if c := counts["service.http.client.ms"]; c > 0 {
		transport = (c - handlerMS) * perOp
	}
	put("service.transport_ms", "ms", transport)
	put("service.searches", "count", counts["service.searches"]*perOp)
	put("service.coalesced", "count", counts["service.coalesced"]*perOp)
	put("service.shed", "count", counts["service.shed"]*perOp)
	ratio := 0.0
	if j := counts["service.searches"] + counts["service.coalesced"]; j > 0 {
		ratio = counts["service.coalesced"] / j
	}
	put("service.coalesce_ratio", "ratio", ratio)

	for _, c := range []string{"append_ledger", "save_plan", "save_dataset", "save_rate", "flush"} {
		put("persist."+c+".calls", "count", counts["persist."+c+".calls"]*perOp)
		put("persist."+c+".ms", "ms", counts["persist."+c+".ms"]*perOp)
	}

	put("proc.cpu_ms_per_op", "ms", ms(p1.cpu-p0.cpu)*perOp)
	put("proc.alloc_mb_per_op", "MB", float64(p1.alloc-p0.alloc)/(1<<20)*perOp)
	put("proc.gc_cycles_per_op", "count", float64(p1.gcCycles-p0.gcCycles)*perOp)
	put("proc.gc_pause_ms", "ms", float64(p1.gcPauseNs-p0.gcPauseNs)/1e6*perOp)
	put("trace.throughput_ops_s", "ops/s", throughput)
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tempDir makes a fresh directory under the run's work directory.
func tempDir(cfg runConfig, pattern string) (string, error) {
	base := filepath.Join(cfg.WorkDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}
