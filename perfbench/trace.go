package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/persist"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
)

// span is one timed call across a layer boundary. Spans of one shopper op
// share Op; Parent is the span whose context the call ran under (0 = none).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counters in memory until the traced run ends. A nil
// *tracer is a disabled tracer: every method is a no-op, and the benchmark
// installs no decorator at all.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu     sync.Mutex
	spans  []span             // guarded by mu
	counts map[string]float64 // guarded by mu
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: make(map[string]float64)}
}

type spanCtxKey struct{}

type spanRef struct {
	id uint64
	op int64
}

// withOp tags ctx with a shopper op id; spans begun under it carry the id.
func withOp(ctx context.Context, op int) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanRef{op: int64(op)})
}

// begin opens a span named name as a child of the span in ctx. The returned
// context carries the new span; end closes it.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanCtxKey{}).(spanRef)
	s := span{Name: name, ID: t.nextID.Add(1), Parent: parent.id, Op: parent.op}
	s.Start = int64(time.Since(t.epoch))
	ctx = context.WithValue(ctx, spanCtxKey{}, spanRef{id: s.ID, op: parent.op})
	return ctx, func() {
		s.End = int64(time.Since(t.epoch))
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// reset drops the spans and counters recorded so far (those of set-up).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
	t.counts = make(map[string]float64)
}

// core times one call into a public core.Dance method as span "core."+name.
func (t *tracer) core(ctx context.Context, name string, f func(context.Context) error) error {
	if t == nil {
		return f(ctx)
	}
	ctx, end := t.begin(ctx, "core."+name)
	start := time.Now()
	err := f(ctx)
	end()
	t.timed("core."+name, start)
	return err
}

// add bumps a counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// timed adds the time since start to the counter name+".ms" and one call to
// name+".calls".
func (t *tracer) timed(name string, start time.Time) {
	if t == nil {
		return
	}
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	t.mu.Lock()
	t.counts[name+".ms"] += ms
	t.counts[name+".calls"]++
	t.mu.Unlock()
}

func (t *tracer) snapshot() ([]span, map[string]float64) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	counts := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	return append([]span(nil), t.spans...), counts
}

// dump writes every span as one JSON line to path.
func (t *tracer) dump(path string) error {
	spans, _ := t.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name in names, each span's duration minus the part
// of its interval covered by its child spans whose names start with
// childPrefix. Children of one span may overlap (the offline phase fans
// marketplace calls out concurrently), so covered time is the union of their
// intervals.
func selfTimes(spans []span, names map[string]bool, childPrefix string) (total, self time.Duration) {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 && strings.HasPrefix(s.Name, childPrefix) {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range spans {
		if !names[s.Name] {
			continue
		}
		d := s.End - s.Start
		total += time.Duration(d)
		self += time.Duration(d - covered(children[s.ID], s.Start, s.End))
	}
	return total, self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	curS, curE := int64(-1), int64(-1)
	flush := func() {
		if curE > curS {
			sum += curE - curS
		}
	}
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			flush()
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	flush()
	return sum
}

// tracedMarket is a pass-through marketplace.Market that records one span
// and call/row counts per call.
type tracedMarket struct {
	inner marketplace.Market
	tr    *tracer
}

var _ marketplace.Market = tracedMarket{}

// traceMarket decorates m when tracing is on and returns m unchanged
// otherwise.
func traceMarket(m marketplace.Market, tr *tracer) marketplace.Market {
	if tr == nil {
		return m
	}
	return tracedMarket{inner: m, tr: tr}
}

func (m tracedMarket) call(ctx context.Context, name string) (context.Context, func(rows int)) {
	ctx, end := m.tr.begin(ctx, "marketplace."+name)
	start := time.Now()
	return ctx, func(rows int) {
		end()
		m.tr.timed("marketplace."+name, start)
		if rows >= 0 {
			m.tr.add("marketplace."+name+".rows", float64(rows))
		}
	}
}

func tableRows(t *relation.Table) int {
	if t == nil {
		return 0
	}
	return t.NumRows()
}

func (m tracedMarket) Catalog(ctx context.Context) ([]marketplace.DatasetInfo, error) {
	ctx, end := m.call(ctx, "catalog")
	infos, err := m.inner.Catalog(ctx)
	end(len(infos))
	return infos, err
}

func (m tracedMarket) DatasetFDs(ctx context.Context, name string) ([]fd.FD, error) {
	ctx, end := m.call(ctx, "dataset_fds")
	fds, err := m.inner.DatasetFDs(ctx, name)
	end(len(fds))
	return fds, err
}

func (m tracedMarket) QuoteProjection(ctx context.Context, name string, attrs []string) (float64, error) {
	ctx, end := m.call(ctx, "quote")
	p, err := m.inner.QuoteProjection(ctx, name, attrs)
	end(-1)
	return p, err
}

func (m tracedMarket) Sample(ctx context.Context, name string, joinAttrs []string, rate float64, seed uint64) (*relation.Table, float64, error) {
	ctx, end := m.call(ctx, "sample")
	t, p, err := m.inner.Sample(ctx, name, joinAttrs, rate, seed)
	end(tableRows(t))
	return t, p, err
}

func (m tracedMarket) SampleDelta(ctx context.Context, name string, joinAttrs []string, fromRate, toRate float64, seed uint64) (*relation.Table, float64, error) {
	ctx, end := m.call(ctx, "sample_delta")
	t, p, err := m.inner.SampleDelta(ctx, name, joinAttrs, fromRate, toRate, seed)
	end(tableRows(t))
	return t, p, err
}

func (m tracedMarket) ExecuteProjection(ctx context.Context, q pricing.Query) (*relation.Table, float64, error) {
	ctx, end := m.call(ctx, "execute_projection")
	t, p, err := m.inner.ExecuteProjection(ctx, q)
	end(tableRows(t))
	return t, p, err
}

// tracedModel is a pass-through pricing.Model counting calls and time under
// its counter prefix.
type tracedModel struct {
	inner  pricing.Model
	tr     *tracer
	prefix string
}

func (m tracedModel) Name() string { return m.inner.Name() }

func (m tracedModel) PriceProjection(t *relation.Table, attrs []string) (float64, error) {
	start := time.Now()
	p, err := m.inner.PriceProjection(t, attrs)
	m.tr.timed(m.prefix, start)
	return p, err
}

// pricingModel builds the marketplace's cached entropy pricing. Traced, it
// wraps a decorator outside pricing.Cached (every quote: "pricing") and one
// inside it (cache misses: "pricing.inner").
func pricingModel(tr *tracer) pricing.Model {
	if tr == nil {
		return pricing.Cached(pricing.DefaultEntropyModel())
	}
	inner := tracedModel{inner: pricing.DefaultEntropyModel(), tr: tr, prefix: "pricing.inner"}
	return tracedModel{inner: pricing.Cached(inner), tr: tr, prefix: "pricing"}
}

// tracedStore is a pass-through persist.Store counting calls and time per
// method.
type tracedStore struct {
	inner persist.Store
	tr    *tracer
}

var _ persist.Store = tracedStore{}

func traceStore(s persist.Store, tr *tracer) persist.Store {
	if tr == nil {
		return s
	}
	return tracedStore{inner: s, tr: tr}
}

func (s tracedStore) Load() (*persist.State, error) { return s.inner.Load() }

func (s tracedStore) AppendLedger(rec persist.LedgerRecord) error {
	defer s.tr.timed("persist.append_ledger", time.Now())
	return s.inner.AppendLedger(rec)
}

func (s tracedStore) SavePlan(rec persist.PlanRecord) error {
	defer s.tr.timed("persist.save_plan", time.Now())
	return s.inner.SavePlan(rec)
}

func (s tracedStore) SaveDataset(rec persist.DatasetRecord, t *relation.Table) error {
	defer s.tr.timed("persist.save_dataset", time.Now())
	return s.inner.SaveDataset(rec, t)
}

func (s tracedStore) SaveRate(rate float64) error {
	defer s.tr.timed("persist.save_rate", time.Now())
	return s.inner.SaveRate(rate)
}

func (s tracedStore) Flush() error {
	defer s.tr.timed("persist.flush", time.Now())
	return s.inner.Flush()
}

func (s tracedStore) Close() error { return s.inner.Close() }

// tracedHandler is a pass-through http.Handler recording one span per
// request, named by route.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
	route func(*http.Request) string
}

func traceHandler(h http.Handler, tr *tracer, route func(*http.Request) string) http.Handler {
	if tr == nil {
		return h
	}
	return tracedHandler{inner: h, tr: tr, route: route}
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := h.route(r)
	ctx, end := h.tr.begin(r.Context(), name)
	start := time.Now()
	h.inner.ServeHTTP(w, r.WithContext(ctx))
	end()
	h.tr.timed(name, start)
}

// serviceRoute names danced requests by endpoint.
func serviceRoute(r *http.Request) string {
	switch r.URL.Path {
	case "/v1/acquire":
		return "service.acquire.handler"
	case "/v1/topk":
		return "service.topk.handler"
	case "/v1/execute":
		return "service.execute.handler"
	default:
		return "service.read.handler"
	}
}

// tracedTransport is a pass-through http.RoundTripper. Each round trip is
// one attempt (retries included); the time counted runs until the response
// body is closed, and the body bytes read are counted.
type tracedTransport struct {
	inner  http.RoundTripper
	tr     *tracer
	prefix string
}

// traceClient returns c with a traced transport when tracing is on.
func traceClient(c *http.Client, tr *tracer, prefix string) *http.Client {
	if tr == nil {
		return c
	}
	inner := c.Transport
	if inner == nil {
		inner = http.DefaultTransport
	}
	cp := *c
	cp.Transport = tracedTransport{inner: inner, tr: tr, prefix: prefix}
	return &cp
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	t.tr.add(t.prefix+".attempts", 1)
	if err != nil {
		t.tr.timed(t.prefix+".client", start)
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, t: t, start: start}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	t     tracedTransport
	start time.Time
	n     int64
	once  sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.t.tr.add(b.t.prefix+".bytes_in", float64(b.n))
		b.t.tr.timed(b.t.prefix+".client", b.start)
	})
	return err
}
