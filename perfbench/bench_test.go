package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
)

func TestTailPercentileNeedsHundredSamples(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 1; i <= 99; i++ {
		xs = append(xs, float64(i))
	}
	m := map[string]Metric{}
	latencyMetrics("op", xs, m)
	if _, ok := m["op_p90_ms"]; ok {
		t.Fatalf("p90 reported from 99 samples")
	}
	if got := m["op_p50_ms"].Value; got != 50 {
		t.Fatalf("p50 of 1..99 = %v, want 50", got)
	}
	xs = append(xs, 100)
	m = map[string]Metric{}
	latencyMetrics("op", xs, m)
	if got, ok := m["op_p90_ms"]; !ok || got.Value != 90 {
		t.Fatalf("p90 of 1..100 = %v (present %v), want 90 with ten samples beyond it", got.Value, ok)
	}
}

// fakeSystem records fixed latencies and fails every fourth op.
type fakeSystem struct{ closed atomic.Int32 }

var errFake = errors.New("fake failure")

func (f *fakeSystem) op(_ context.Context, i int, rec *recorder) error {
	if i%4 == 3 {
		return errFake
	}
	rec.observe(opSession, 3)
	rec.observe(opAcquire, 1)
	rec.observe(opExecute, 2)
	rec.plan(i, 0.5)
	rec.purchase(i, 1, 0.25)
	return nil
}

func (f *fakeSystem) spendNanos() int64 { return 0 }

func (f *fakeSystem) finish(context.Context, *recorder) (map[string]any, error) {
	f.closed.Add(1)
	return nil, nil
}

func (f *fakeSystem) close() { f.closed.Add(1) }

func fakeWorkload(sys *fakeSystem) workload {
	return workload{
		name:    "fake",
		clients: 2,
		ops:     func(int) int { return 400 },
		setup:   func(context.Context, runConfig, *tracer) (system, error) { return sys, nil },
	}
}

func TestFailedOpsAreCounted(t *testing.T) {
	sys := &fakeSystem{}
	res, detail, err := runWorkload(context.Background(), fakeWorkload(sys), runConfig{Seed: 1, Seconds: 1, WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 400 || res.Failed != 100 {
		t.Fatalf("attempted %d failed %d, want 400 and 100", res.Attempted, res.Failed)
	}
	if detail.FailedFrac != 0.25 {
		t.Fatalf("failed_frac %v, want 0.25", detail.FailedFrac)
	}
	if res.Correct {
		t.Fatalf("a run with failed ops is reported correct")
	}
	// Failed ops record no latency: 300 samples, not 400.
	if got := res.Metrics["throughput_ops_s"].Value; got <= 0 {
		t.Fatalf("throughput %v", got)
	}
	if detail.RefMS <= 0 || detail.Measured["throughput_ops_s"] <= 0 {
		t.Fatalf("run without kernel samples or measured times: ref %v, measured %v", detail.RefMS, detail.Measured)
	}
	if n := int(sys.closed.Load()); n != len(detail.SetupS) {
		t.Fatalf("system released %d times, want %d (every discarded set-up and the finish)", n, len(detail.SetupS))
	}
}

func TestCalibratorScalesByLocalMedian(t *testing.T) {
	c := &calibrator{}
	if got := c.scale(3); got != 1 {
		t.Fatalf("calibrator without samples scales by %v, want 1", got)
	}
	for i := 0; i < 20; i++ {
		c.samples = append(c.samples, refNominalMS)
	}
	for i := 0; i < 20; i++ {
		c.samples = append(c.samples, 2*refNominalMS)
	}
	// Every sample around mark 5 is nominal, every one around mark 35 twice
	// as slow; around mark 20 half are each, and the median lies between.
	for _, tc := range []struct {
		mark int
		want float64
	}{{5, 1}, {35, 0.5}, {20, 1 / 1.5}} {
		if got := c.scale(tc.mark); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("scale(%d) = %v, want %v", tc.mark, got, tc.want)
		}
	}
}

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func metricNames(m map[string]Metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	endToEnd, perLayer := benchmarkJSON(t)
	res, _, err := runWorkload(context.Background(), fakeWorkload(&fakeSystem{}), runConfig{Seed: 1, Seconds: 1, WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if got := metricNames(res.Metrics); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("untraced metrics %v\nBENCHMARK.json end_to_end %v", got, endToEnd)
	}
	res, _, err = runWorkload(context.Background(), fakeWorkload(&fakeSystem{}), runConfig{Seed: 1, Seconds: 1, Trace: true, WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if got := metricNames(res.Metrics); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("traced metrics %v\nBENCHMARK.json per_layer %v", got, perLayer)
	}
}

func TestCoveredUnionsOverlappingChildren(t *testing.T) {
	ivs := [][2]int64{{5, 10}, {0, 3}, {8, 14}, {20, 30}}
	if got := covered(ivs, 2, 25); got != 1+9+5 {
		t.Fatalf("covered = %d, want 15", got)
	}
}

// runOps runs ops 0..n-1 of sys one after another and finishes it.
func runOps(t *testing.T, sys system, n int) (*recorder, int64) {
	t.Helper()
	ctx := context.Background()
	rec := newRecorder(&calibrator{})
	for i := 0; i < n; i++ {
		if err := sys.op(withOp(ctx, i), i, rec); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	spend := sys.spendNanos()
	if _, err := sys.finish(ctx, rec); err != nil {
		t.Fatal(err)
	}
	return rec, spend
}

// TestDecoratorsAreTransparent runs the same ops with tracing on and off:
// plans, estimates, realized metrics and spend must be bit-identical.
func TestDecoratorsAreTransparent(t *testing.T) {
	cfg := runConfig{Seed: 3, WorkDir: t.TempDir()}
	cases := []struct {
		name  string
		make  func(tr *tracer) (system, error)
		ops   int
		plans int
	}{
		{"session-http", func(tr *tracer) (system, error) { return newSessionHTTP(context.Background(), cfg, tr, 1) }, 3, 3},
		{"service-mix", func(tr *tracer) (system, error) {
			return newServiceMix(context.Background(), cfg, tr, "chain:2,rows=300")
		}, 12, 12},
		{"execute-large", func(tr *tracer) (system, error) {
			return newExecuteLarge(context.Background(), cfg, tr, "snowflake:2,rows=2000")
		}, 4, 16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var recs [2]*recorder
			var spends [2]int64
			for k, tr := range []*tracer{nil, newTracer()} {
				sys, err := c.make(tr)
				if err != nil {
					t.Fatal(err)
				}
				recs[k], spends[k] = runOps(t, sys, c.ops)
				if len(recs[k].problems) > 0 {
					t.Fatalf("trace=%v: %v", tr != nil, recs[k].problems)
				}
			}
			if !reflect.DeepEqual(recs[0].est, recs[1].est) || !reflect.DeepEqual(recs[0].realized, recs[1].realized) {
				t.Errorf("plans differ with tracing: est %v vs %v, realized %v vs %v",
					recs[0].est, recs[1].est, recs[0].realized, recs[1].realized)
			}
			if spends[0] != spends[1] || recs[0].purchasedNanos != recs[1].purchasedNanos {
				t.Errorf("spend differs with tracing: %d vs %d n$ (purchases %d vs %d)",
					spends[0], spends[1], recs[0].purchasedNanos, recs[1].purchasedNanos)
			}
			if len(recs[0].est) != c.plans {
				t.Errorf("%d plans recorded, want %d", len(recs[0].est), c.plans)
			}
		})
	}
}

// misbilling under-reports one purchase to its caller while the marketplace
// ledger records the full charge.
type misbilling struct {
	marketplace.Market
	done atomic.Bool
}

func (m *misbilling) ExecuteProjection(ctx context.Context, q pricing.Query) (*relation.Table, float64, error) {
	t, price, err := m.Market.ExecuteProjection(ctx, q)
	if err == nil && m.done.CompareAndSwap(false, true) {
		price -= 0.05
	}
	return t, price, err
}

func TestConservationCheckFiresOnMisrecordedCharge(t *testing.T) {
	cfg := runConfig{Seed: 3, WorkDir: t.TempDir()}
	sys, err := newSessionHTTP(context.Background(), cfg, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys.mkt = &misbilling{Market: sys.mkt}
	rec, _ := runOps(t, sys, 3)
	var perOp, total bool
	for _, p := range rec.problems {
		perOp = perOp || strings.Contains(p, "ledger query charges")
		total = total || strings.Contains(p, "conservation")
	}
	if !perOp || !total {
		t.Fatalf("per-purchase check fired %v, end-of-run check fired %v; problems %v", perOp, total, rec.problems)
	}
	if len(rec.realized) != 3 || math.IsNaN(meanByOp(rec.realized)) {
		t.Fatalf("purchases not recorded: %v", rec.realized)
	}
}
