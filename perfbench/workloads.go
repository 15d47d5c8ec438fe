package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	dance "github.com/dance-db/dance"
	"github.com/dance-db/dance/internal/core"
	"github.com/dance-db/dance/internal/experiments"
	"github.com/dance-db/dance/internal/joingraph"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/persist"
	"github.com/dance-db/dance/internal/search"
	synth "github.com/dance-db/dance/internal/workload"
)

// dataSeed generates every marketplace and seeds the warm middlewares'
// offline samples. The marketplace is the fixed seller side; the workload
// seed drives what the shoppers do — request seeds, session sample seeds,
// op order and the request pool — so runs with different workload seeds
// measure one marketplace under different traffic.
const dataSeed = 1

// derive mixes a seed with op coordinates into an independent positive seed
// (splitmix64 finalizer).
func derive(seed int64, parts ...int) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

func sinceMS(t time.Time) float64 { return ms(time.Since(t)) }

// server serves a handler on a loopback listener.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the server and waits for its serve loop to return.
func (s *server) close() {
	if s == nil {
		return
	}
	_ = s.srv.Close() // closing listeners and idle conns; nothing to report
	<-s.done
}

// ledgerNanos sums marketplace charges in nano-dollars, split by kind.
func ledgerNanos(entries []marketplace.LedgerEntry) (samples, queries int64) {
	for _, e := range entries {
		if e.Kind == "query" {
			queries += nanos(e.Amount)
		} else {
			samples += nanos(e.Amount)
		}
	}
	return samples, queries
}

func marketSpend(m *marketplace.InMemory) int64 {
	s, q := ledgerNanos(m.Ledger().Entries())
	return s + q
}

// budgetRatio is the share of a query's upper-bound price a shopper offers,
// as in the repository's experiments (the paper's budget ratio, Sec 6.1).
const budgetRatio = 0.55

// budgetFor is the budget a shopper offers for source → target on graph g:
// budgetRatio × the dearest target graph's price, raised to 1.05 × the
// cheapest one's where that is less, so that some plan is affordable and the
// budget binds.
func budgetFor(ctx context.Context, g *joingraph.Graph, source, target []string) (float64, error) {
	req := search.Request{SourceAttrs: source, TargetAttrs: target}
	lb, ub, err := search.NewSearcher(g).PriceRange(ctx, req, search.BruteForceLimits{})
	if err != nil {
		return 0, fmt.Errorf("price range %v → %v: %w", source, target, err)
	}
	return max(budgetRatio*ub, 1.05*lb), nil
}

// checkPlan checks a returned plan's estimates: within budget, finite.
func checkPlan(rec *recorder, op int, est search.Metrics, budget float64) {
	checkBudget(rec, op, "plan price", est.Price, budget)
	rec.plan(op, est.Correlation)
}

// checkBudget checks that an amount the shopper pays is within budget.
func checkBudget(rec *recorder, op int, what string, price, budget float64) {
	if !(price <= budget) {
		rec.problem("op %d: %s %v exceeds budget %v", op, what, price, budget)
	}
}

// checkCharges checks that the marketplace ledger entries op caused match
// what the middleware reported: sample spend and the purchase price.
func checkCharges(rec *recorder, op int, entries []marketplace.LedgerEntry, sampleUSD float64, p *core.Purchase) {
	samples, queries := ledgerNanos(entries)
	if !sameCents(samples, nanos(sampleUSD)) {
		rec.problem("op %d: ledger sample charges %d n$ but middleware reports %d n$", op, samples, nanos(sampleUSD))
	}
	rec.purchase(op, p.TotalPrice, p.Realized.Correlation)
	if !sameCents(queries, nanos(p.TotalPrice)) {
		rec.problem("op %d: ledger query charges %d n$ but the purchase cost %d n$", op, queries, nanos(p.TotalPrice))
	}
}

// inProcess is the shared shape of the in-process workloads: a seller-side
// in-memory marketplace, the Market the middleware talks to (possibly an
// HTTP client, possibly traced), and the middleware calls timed through the
// tracer.
type inProcess struct {
	seed   int64
	tr     *tracer
	market *marketplace.InMemory
	mkt    marketplace.Market
	srv    *server
}

func (s *inProcess) spendNanos() int64 { return marketSpend(s.market) }

func (s *inProcess) close() { s.srv.close() }

// acquire runs one timed Acquire on mw.
func (s *inProcess) acquire(ctx context.Context, mw *core.Dance, req search.Request, rec *recorder) (*core.Plan, error) {
	var plan *core.Plan
	start := time.Now()
	err := s.tr.core(ctx, "acquire", func(ctx context.Context) (err error) {
		plan, err = mw.Acquire(ctx, req)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("acquire: %w", err)
	}
	rec.observe(opAcquire, sinceMS(start))
	s.tr.add("search.evals", float64(plan.Evals))
	return plan, nil
}

// execute runs one timed Execute of plan on mw.
func (s *inProcess) execute(ctx context.Context, mw *core.Dance, plan *core.Plan, rec *recorder) (*core.Purchase, error) {
	var p *core.Purchase
	start := time.Now()
	err := s.tr.core(ctx, "execute", func(ctx context.Context) (err error) {
		p, err = mw.Execute(ctx, plan)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("execute: %w", err)
	}
	rec.observe(opExecute, sinceMS(start))
	return p, nil
}

// finishInProcess checks end-of-run conservation: the marketplace ledger
// equals the sample spend and purchases the harness observed.
func (s *inProcess) finishInProcess(rec *recorder, sampledUSD float64) map[string]any {
	market := s.spendNanos()
	rec.mu.Lock()
	observed := nanos(sampledUSD) + rec.sampledNanos + rec.purchasedNanos
	rec.mu.Unlock()
	if !sameCents(market, observed) {
		rec.problem("conservation: marketplace ledger %d n$, harness observed %d n$", market, observed)
	}
	s.close()
	return map[string]any{"market_ledger_usd": float64(market) / 1e9, "observed_usd": float64(observed) / 1e9}
}

// sessionSystem runs back-to-back fresh shopper sessions: a new middleware
// per op, an explicit offline phase, an escalation ladder, one acquire and
// one execute.
type sessionSystem struct {
	inProcess
	queries     []experiments.QuerySpec
	budgets     []float64 // per query
	rate        float64
	escalations int
	iterations  int
	// probeSpend is what the set-up's probe session spent on samples.
	probeSpend float64
}

// session builds a fresh middleware and runs its offline phase and
// escalation ladder.
func (s *sessionSystem) session(ctx context.Context, sampleSeed int64) (*core.Dance, error) {
	mw := core.New(s.mkt, core.Config{
		SampleRate: s.rate,
		SampleSeed: uint64(sampleSeed),
		Workers:    runtime.GOMAXPROCS(0),
	})
	if err := s.tr.core(ctx, "offline", mw.Offline); err != nil {
		return nil, fmt.Errorf("offline: %w", err)
	}
	for e := 0; e < s.escalations; e++ {
		err := s.tr.core(ctx, "escalate", func(ctx context.Context) error {
			_, err := mw.Escalate(ctx)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("escalate: %w", err)
		}
	}
	return mw, nil
}

func (s *sessionSystem) op(ctx context.Context, i int, rec *recorder) error {
	before := len(s.market.Ledger().Entries())
	start := time.Now()
	mw, err := s.session(ctx, derive(s.seed, 1, i))
	if err != nil {
		return err
	}
	q := i % len(s.queries)
	req := search.Request{
		SourceAttrs: s.queries[q].SourceAttrs,
		TargetAttrs: s.queries[q].TargetAttrs,
		Budget:      s.budgets[q],
		Iterations:  s.iterations,
		Seed:        derive(s.seed, 2, i),
		Workers:     runtime.GOMAXPROCS(0),
	}
	plan, err := s.acquire(ctx, mw, req, rec)
	if err != nil {
		return err
	}
	p, err := s.execute(ctx, mw, plan, rec)
	if err != nil {
		return err
	}
	rec.observe(opSession, sinceMS(start))

	s.tr.add("core.sample_rounds", float64(len(mw.SampleRounds())))
	checkPlan(rec, i, plan.Est, req.Budget)
	checkBudget(rec, i, "purchase price", p.TotalPrice, req.Budget)
	checkCharges(rec, i, s.market.Ledger().Entries()[before:], mw.SampleCost(), p)
	rec.sampled(mw.SampleCost())
	return nil
}

func (s *sessionSystem) finish(_ context.Context, rec *recorder) (map[string]any, error) {
	checks := s.finishInProcess(rec, s.probeSpend)
	checks["budget_usd"] = s.budgets
	return checks, nil
}

// sessionHTTP: a TPC-H-like marketplace at scale 8 behind a loopback HTTP
// listener; fresh sessions at a low rate escalate up a fixed ladder, so
// marketplace transport, sample-store merges, FD fetches, pricing and the
// join-graph build dominate.
var sessionHTTP = workload{
	name:    "session-http",
	clients: 1,
	ops:     func(seconds int) int { return max(minTailSamples+20, 22*seconds) },
	setup: func(ctx context.Context, cfg runConfig, tr *tracer) (system, error) {
		return newSessionHTTP(ctx, cfg, tr, 8)
	},
}

// newSessionHTTP serves the marketplace and runs one probe session whose
// join graph prices each query's budget.
func newSessionHTTP(ctx context.Context, cfg runConfig, tr *tracer, scale int) (*sessionSystem, error) {
	tables, fds := dance.GenerateTPCH(scale, dataSeed, -1)
	market := marketplace.NewInMemory(pricingModel(tr))
	for _, t := range tables {
		market.Register(t, fds[t.Name])
	}
	srv, err := serve(marketplace.Handler(market))
	if err != nil {
		return nil, err
	}
	client := marketplace.NewClient(srv.url)
	client.HTTP = traceClient(client.HTTP, tr, "marketplace.http")
	s := &sessionSystem{
		inProcess:   inProcess{seed: cfg.Seed, tr: tr, market: market, mkt: traceMarket(client, tr), srv: srv},
		queries:     experiments.TPCHQueries(),
		rate:        0.05,
		escalations: 3,
		iterations:  20,
	}
	probe, err := s.session(ctx, derive(cfg.Seed, 6))
	if err != nil {
		srv.close()
		return nil, fmt.Errorf("probe session: %w", err)
	}
	s.probeSpend = probe.SampleCost()
	for _, q := range s.queries {
		b, err := budgetFor(ctx, probe.Graph(), q.SourceAttrs, q.TargetAttrs)
		if err != nil {
			srv.close()
			return nil, err
		}
		s.budgets = append(s.budgets, b)
	}
	return s, nil
}

// warmSystem serves shopper ops from one middleware whose offline phase ran
// in set-up: each op acquires under every iteration setting in iters and
// executes the plan with the highest estimated correlation.
type warmSystem struct {
	inProcess
	mw     *core.Dance
	truth  synth.GroundTruth
	budget float64
	iters  []int
}

func (s *warmSystem) op(ctx context.Context, i int, rec *recorder) error {
	before := len(s.market.Ledger().Entries())
	spent := s.mw.SampleCost()
	start := time.Now()
	var best *core.Plan
	for k, iters := range s.iters {
		req := search.Request{
			SourceAttrs: []string{s.truth.X},
			TargetAttrs: []string{s.truth.Y},
			Budget:      s.budget,
			Iterations:  iters,
			Seed:        derive(s.seed, 3, i, k),
			Workers:     runtime.GOMAXPROCS(0),
		}
		plan, err := s.acquire(ctx, s.mw, req, rec)
		if err != nil {
			return err
		}
		checkPlan(rec, i*len(s.iters)+k, plan.Est, req.Budget)
		if best == nil || plan.Est.Correlation > best.Est.Correlation {
			best = plan
		}
	}
	p, err := s.execute(ctx, s.mw, best, rec)
	if err != nil {
		return err
	}
	rec.observe(opSession, sinceMS(start))
	checkBudget(rec, i, "purchase price", p.TotalPrice, s.budget)
	checkCharges(rec, i, s.market.Ledger().Entries()[before:], s.mw.SampleCost()-spent, p)
	return nil
}

func (s *warmSystem) finish(_ context.Context, rec *recorder) (map[string]any, error) {
	checks := s.finishInProcess(rec, s.mw.SampleCost())
	checks["budget_usd"] = s.budget
	return checks, nil
}

// executeLarge: a synthetic snowflake listing set with a 10⁵-row base the
// shopper owns, in memory, on a middleware warmed in setup; Execute's join,
// realized correlation and FD quality over a working set far above CPU
// caches dominate.
var executeLarge = workload{
	name:    "execute-large",
	clients: 1,
	ops:     func(seconds int) int { return max(minTailSamples+10, 3*seconds) },
	setup: func(ctx context.Context, cfg runConfig, tr *tracer) (system, error) {
		return newExecuteLarge(ctx, cfg, tr, "snowflake:3,rows=100000,keys=400,classes=8")
	},
}

func newExecuteLarge(ctx context.Context, cfg runConfig, tr *tracer, specStr string) (*warmSystem, error) {
	spec, err := synth.ParseSpec(specStr)
	if err != nil {
		return nil, err
	}
	w, err := synth.Generate(spec, dataSeed)
	if err != nil {
		return nil, err
	}
	market := marketplace.NewInMemory(pricingModel(tr))
	for _, t := range w.Listings[1:] {
		market.Register(t, w.FDs[t.Name])
	}
	mkt := traceMarket(market, tr)
	mw := core.New(mkt, core.Config{SampleSeed: dataSeed, Workers: runtime.GOMAXPROCS(0)})
	mw.AddSource(w.Base(), w.FDs[w.Base().Name])
	if err := mw.Offline(ctx); err != nil {
		return nil, err
	}
	budget, err := budgetFor(ctx, mw.Graph(), []string{w.Truth.X}, []string{w.Truth.Y})
	if err != nil {
		return nil, err
	}
	return &warmSystem{
		inProcess: inProcess{seed: cfg.Seed, tr: tr, market: market, mkt: mkt},
		mw:        mw,
		truth:     w.Truth,
		budget:    budget,
		iters:     []int{20, 40, 60, 80},
	}, nil
}

// variant is one request shape of the service-mix pool.
type variant struct {
	policy     string
	topk       bool
	iterations int
	seed       int64
}

// serviceSystem is danced's Service over loopback HTTP on a middleware that
// reads a synthetic marketplace over HTTP, journaling to a FileStore.
type serviceSystem struct {
	seed   int64
	tr     *tracer
	market *marketplace.InMemory
	msrv   *server
	ssrv   *server
	mw     *core.Dance
	svc    *dance.Service
	dir    string
	client *dance.AcquireClient
	truth  synth.GroundTruth
	pool   []variant
	budget float64
	stats0 dance.StatsInfo

	mu     sync.Mutex
	bought []boughtPlan // guarded by mu
	closed bool         // guarded by mu
}

// boughtPlan is one executed plan, kept for the end-of-run price check.
type boughtPlan struct {
	op         int
	queries    []dance.PlanQuery
	totalPrice float64
}

// pick returns the pool index of the k-th draw. Draws walk the pool in a
// seeded random order that is reshuffled every pass, so every pass holds
// each variant once and the mix of fast and slow variants is the same in
// every run.
func (s *serviceSystem) pick(k int) int {
	n := len(s.pool)
	perm := rand.New(rand.NewSource(derive(s.seed, 4, k/n))).Perm(n)
	return perm[k%n]
}

// op is the fixed op mix: every op is an acquire or top-k from the pool (two
// consecutive ops share a variant, so concurrent shoppers ask the same
// thing); two ops in three execute their plan, every fourth reads the plan
// back and every eighth reads the ledger.
func (s *serviceSystem) op(ctx context.Context, i int, rec *recorder) error {
	v := s.pool[s.pick(i/2)]
	req := dance.AcquireRequest{
		SourceAttrs: []string{s.truth.X},
		TargetAttrs: []string{s.truth.Y},
		Budget:      s.budget,
		Iterations:  v.iterations,
		Seed:        v.seed,
		Workers:     runtime.GOMAXPROCS(0),
		Policy:      v.policy,
	}
	start := time.Now()
	var plan dance.PlanInfo
	if v.topk {
		ranked, err := s.client.AcquireTopK(ctx, req, 3, nil)
		if err != nil {
			return fmt.Errorf("topk %s: %w", v.policy, err)
		}
		if len(ranked) == 0 {
			return fmt.Errorf("topk %s: no options", v.policy)
		}
		plan = ranked[0].Plan
	} else {
		p, err := s.client.Acquire(ctx, req)
		if err != nil {
			return fmt.Errorf("acquire %s: %w", v.policy, err)
		}
		plan = *p
	}
	rec.observe(opAcquire, sinceMS(start))
	var bought *dance.PurchaseInfo
	if i%3 != 0 {
		t := time.Now()
		p, err := s.client.Execute(ctx, plan.ID)
		if err != nil {
			return fmt.Errorf("execute: %w", err)
		}
		rec.observe(opExecute, sinceMS(t))
		bought = p
	}
	if i%4 == 1 {
		got, err := s.client.Plan(ctx, plan.ID)
		if err != nil {
			return fmt.Errorf("plan read: %w", err)
		}
		if got.ID != plan.ID || got.Est != plan.Est {
			rec.problem("op %d: plan %s read back differs", i, plan.ID)
		}
	}
	if i%8 == 2 {
		if _, err := s.client.Ledger(ctx); err != nil {
			return fmt.Errorf("ledger read: %w", err)
		}
	}
	rec.observe(opSession, sinceMS(start))

	s.tr.add("search.evals", float64(plan.Evals))
	checkPlan(rec, i, search.Metrics{Correlation: plan.Est.Correlation, Price: plan.Est.Price}, s.budget)
	if bought != nil {
		checkBudget(rec, i, "purchase price", bought.TotalPrice, s.budget)
		rec.purchase(i, bought.TotalPrice, bought.Realized.Correlation)
		s.mu.Lock()
		s.bought = append(s.bought, boughtPlan{op: i, queries: plan.Queries, totalPrice: bought.TotalPrice})
		s.mu.Unlock()
	}
	return nil
}

func (s *serviceSystem) spendNanos() int64 { return marketSpend(s.market) }

func (s *serviceSystem) countLayers(tr *tracer) {
	st := s.svc.Stats()
	tr.add("service.searches", float64(st.Searches-s.stats0.Searches))
	tr.add("service.coalesced", float64(st.Coalesced-s.stats0.Coalesced))
	tr.add("service.shed", float64(st.Shed-s.stats0.Shed))
}

// shutdown stops both servers and closes the service, which settles sample
// spend into the ledger and flushes and closes the journal.
func (s *serviceSystem) shutdown() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.ssrv.close()
	err := s.svc.Close()
	s.msrv.close()
	return err
}

// close releases a discarded set-up: nothing to check.
func (s *serviceSystem) close() {
	_ = s.shutdown()
	_ = os.RemoveAll(s.dir) // scratch journal; a leftover is harmless
}

// finish checks, to the cent: each purchase against the marketplace's quotes
// for its queries, and the marketplace ledger against the danced ledger, a
// journal reload after Close, and the spend the harness observed.
func (s *serviceSystem) finish(ctx context.Context, rec *recorder) (map[string]any, error) {
	defer os.RemoveAll(s.dir)
	ledger, err := s.client.Ledger(ctx)
	if err != nil {
		_ = s.shutdown()
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if err := s.shutdown(); err != nil {
		return nil, fmt.Errorf("closing service: %w", err)
	}
	store, err := persist.Open(s.dir, persist.Options{})
	if err != nil {
		return nil, err
	}
	state, err := store.Load()
	cerr := store.Close()
	if err = errors.Join(err, cerr); err != nil {
		return nil, fmt.Errorf("journal reload: %w", err)
	}
	var journal int64
	for _, e := range state.Ledger {
		journal += nanos(e.Amount)
	}

	for _, b := range s.bought {
		var quoted int64
		for _, q := range b.queries {
			p, err := s.market.QuoteProjection(ctx, q.Instance, q.Attrs)
			if err != nil {
				return nil, fmt.Errorf("quote %s: %w", q.Instance, err)
			}
			quoted += nanos(p)
		}
		if !sameCents(quoted, nanos(b.totalPrice)) {
			rec.problem("op %d: purchase TotalPrice %v but its queries are quoted at %d n$", b.op, b.totalPrice, quoted)
		}
	}

	market := s.spendNanos()
	rec.mu.Lock()
	observed := nanos(s.mw.SampleCost()) + rec.purchasedNanos
	rec.mu.Unlock()
	danced := nanos(ledger.Total)
	for name, v := range map[string]int64{"danced ledger": danced, "journal reload": journal, "harness observed": observed} {
		if !sameCents(market, v) {
			rec.problem("conservation: marketplace ledger %d n$, %s %d n$", market, name, v)
		}
	}
	return map[string]any{
		"market_ledger_usd":  float64(market) / 1e9,
		"danced_ledger_usd":  float64(danced) / 1e9,
		"journal_ledger_usd": float64(journal) / 1e9,
		"observed_usd":       float64(observed) / 1e9,
		"purchases_checked":  len(s.bought),
		"budget_usd":         s.budget,
	}, nil
}

// serviceMix: danced's Service over loopback HTTP, on a middleware reading a
// synthetic snowflake marketplace over HTTP, journaling with fsync. Two
// shoppers send acquires and top-k from a fixed pool across three policies,
// execute plans and read plans and the ledger.
var serviceMix = workload{
	name:    "service-mix",
	clients: 2,
	ops:     func(seconds int) int { return max(2*(minTailSamples+20), 150*seconds) },
	setup: func(ctx context.Context, cfg runConfig, tr *tracer) (system, error) {
		return newServiceMix(ctx, cfg, tr, "snowflake:3,rows=5000")
	},
}

func newServiceMix(ctx context.Context, cfg runConfig, tr *tracer, specStr string) (*serviceSystem, error) {
	spec, err := synth.ParseSpec(specStr)
	if err != nil {
		return nil, err
	}
	w, err := synth.Generate(spec, dataSeed)
	if err != nil {
		return nil, err
	}
	market := marketplace.NewInMemory(pricingModel(tr))
	for _, t := range w.Listings[1:] {
		market.Register(t, w.FDs[t.Name])
	}
	s := &serviceSystem{seed: cfg.Seed, tr: tr, market: market, truth: w.Truth}
	if s.msrv, err = serve(marketplace.Handler(market)); err != nil {
		return nil, err
	}
	mc := marketplace.NewClient(s.msrv.url)
	mc.HTTP = traceClient(mc.HTTP, tr, "marketplace.http")
	if s.dir, err = tempDir(cfg, "journal-"); err != nil {
		s.msrv.close()
		return nil, err
	}
	fs, err := persist.Open(s.dir, persist.Options{})
	if err != nil {
		s.msrv.close()
		return nil, err
	}
	store := traceStore(fs, tr)
	s.mw = core.New(traceMarket(mc, tr), core.Config{
		SampleRate: 0.5,
		SampleSeed: dataSeed,
		Workers:    runtime.GOMAXPROCS(0),
		Persist:    store,
	})
	s.mw.AddSource(w.Base(), w.FDs[w.Base().Name])
	if s.svc, err = dance.NewService(s.mw, dance.ServiceOptions{Persist: store}); err != nil {
		fs.Close()
		s.msrv.close()
		return nil, err
	}
	if s.ssrv, err = serve(traceHandler(s.svc.Handler(), tr, serviceRoute)); err != nil {
		s.svc.Close()
		s.msrv.close()
		return nil, err
	}
	if err := s.mw.Offline(ctx); err != nil {
		s.close()
		return nil, err
	}
	if s.budget, err = budgetFor(ctx, s.mw.Graph(), []string{w.Truth.X}, []string{w.Truth.Y}); err != nil {
		s.close()
		return nil, err
	}
	s.client = dance.NewAcquireClient(s.ssrv.url)
	s.client.HTTP = traceClient(s.client.HTTP, tr, "service.http")
	// Warm dance and greedy acquires answer in 1–2 ms, top-k in 2–3 ms;
	// try-before-you-buy buys pilot samples on every request and takes
	// 30–40 ms. The weights keep plain dance and greedy acquires the
	// majority, so the median acquire sits inside their latency mode.
	v := 0
	for _, w := range []struct {
		policy string
		topk   bool
		weight int
	}{
		{"dance", false, 6}, {"greedy", false, 4}, {"dance", true, 1},
		{"greedy", true, 1}, {"try-before-you-buy", false, 1}, {"try-before-you-buy", true, 1},
	} {
		for k := 0; k < w.weight; k++ {
			iters := []int{30, 300}[k%2]
			s.pool = append(s.pool, variant{policy: w.policy, topk: w.topk, iterations: iters, seed: derive(cfg.Seed, 5, v)})
			v++
		}
	}
	s.stats0 = s.svc.Stats()
	return s, nil
}
