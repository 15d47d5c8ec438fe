package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// minTailSamples is the sample count at which p90 is reported: the tail
// percentile needs at least ten samples beyond it.
const minTailSamples = 100

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// latencyMetrics reports the p50 of xs and, when the samples allow it, the
// p90, under the names <prefix>_p50_ms and <prefix>_p90_ms.
func latencyMetrics(prefix string, xs []float64, into map[string]Metric) {
	if len(xs) == 0 {
		return
	}
	into[prefix+"_p50_ms"] = Metric{percentile(xs, 0.5), "ms"}
	if len(xs) >= minTailSamples {
		into[prefix+"_p90_ms"] = Metric{percentile(xs, 0.9), "ms"}
	}
}

// Op kinds whose client-side latency is recorded.
const (
	opSession = "session"
	opAcquire = "acquire"
	opExecute = "execute"
)

// recorder collects the shopper-side observations of a run. It is shared by
// the client goroutines.
type recorder struct {
	mu sync.Mutex
	// cal holds the timed phase's reference kernel samples.
	cal       *calibrator
	latency   map[string][]timing // op kind → latencies, in completion order
	attempted int
	failed    int
	problems  []string // failed output or money checks
	// est and realized hold per-op correlations keyed by op index, so their
	// means do not depend on completion order.
	est      map[int]float64
	realized map[int]float64
	// sampledNanos and purchasedNanos sum the sample spend and the
	// Purchase.TotalPrice the harness saw.
	sampledNanos   int64
	purchasedNanos int64
}

// timing is one measured time and the calibration mark it was taken at.
type timing struct {
	ms   float64
	mark int
}

func newRecorder(cal *calibrator) *recorder {
	return &recorder{
		cal:      cal,
		latency:  make(map[string][]timing),
		est:      make(map[int]float64),
		realized: make(map[int]float64),
	}
}

// observe records a latency of op kind, in ms.
func (r *recorder) observe(kind string, ms float64) {
	mark := r.cal.mark()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.latency[kind] = append(r.latency[kind], timing{ms, mark})
}

// times returns the latencies of op kind, at the reference speed when scaled
// is set and as measured otherwise. Call it once the clients have stopped.
func (r *recorder) times(kind string, scaled bool) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, len(r.latency[kind]))
	for i, t := range r.latency[kind] {
		out[i] = t.ms
		if scaled {
			out[i] *= r.cal.scale(t.mark)
		}
	}
	return out
}

// attempt counts one started op.
func (r *recorder) attempt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
}

// fail counts one failed op; a failed op records no latency, so it misses
// every latency limit.
func (r *recorder) fail(op int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf("op %d failed: %v", op, err))
	}
}

// problem records a failed output or money check.
func (r *recorder) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "…")
	}
}

// plan records the estimated correlation of the plan op returned.
func (r *recorder) plan(op int, est float64) {
	if math.IsNaN(est) || math.IsInf(est, 0) {
		r.problem("op %d: estimated correlation %v is not finite", op, est)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.est[op] = est
}

// purchase records what op's executed plan cost and realized.
func (r *recorder) purchase(op int, totalPrice, realized float64) {
	if math.IsNaN(realized) || math.IsInf(realized, 0) {
		r.problem("op %d: realized correlation %v is not finite", op, realized)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.realized[op] = realized
	r.purchasedNanos += nanos(totalPrice)
}

// sampled records sample spend a middleware reported.
func (r *recorder) sampled(usd float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sampledNanos += nanos(usd)
}

// meanByOp averages per-op values in op-index order.
func meanByOp(m map[int]float64) float64 {
	ops := make([]int, 0, len(m))
	for op := range m {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	sum := 0.0
	for _, op := range ops {
		sum += m[op]
	}
	return sum / float64(len(ops))
}

// nanos rounds a dollar amount to integer nano-dollars. Sums of nanos do
// not depend on the order the charges were added in.
func nanos(usd float64) int64 { return int64(math.Round(usd * 1e9)) }

// sameCents reports whether two nano-dollar totals agree to the cent.
func sameCents(a, b int64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 5_000_000
}
