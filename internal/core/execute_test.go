package core

import (
	"math"
	"strings"
	"testing"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/infotheory"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/search"
	"github.com/dance-db/dance/internal/tpch"
	"github.com/dance-db/dance/internal/workload"
)

// rowOracle recomputes a purchase's join and realized metrics on the row
// store: relation.JoinPath over the bought projections and owned tables,
// then infotheory.CorrelationOnRows and fd.QualitySet.
func rowOracle(t *testing.T, rec *PlanRecord, p *Purchase, owned []*relation.Table) (rows int, corr, quality float64) {
	t.Helper()
	tables := map[string]*relation.Table{}
	for i, q := range rec.Queries {
		tables[q.Instance] = p.Tables[i]
	}
	for _, o := range owned {
		tables[o.Name] = o
	}
	steps := make([]relation.PathStep, len(rec.Steps))
	for i, st := range rec.Steps {
		steps[i] = relation.PathStep{Table: tables[st.Table], On: st.On}
	}
	joined, err := relation.JoinPath(steps)
	if err != nil {
		t.Fatal(err)
	}
	if joined.NumRows() == 0 {
		return 0, 0, 0
	}
	x, y, err := rec.Request.CorrAttrs()
	if err != nil {
		t.Fatal(err)
	}
	if corr, err = infotheory.CorrelationOnRows(joined, x, y); err != nil {
		t.Fatal(err)
	}
	if quality, err = fd.QualitySet(joined, rec.FDs); err != nil {
		t.Fatal(err)
	}
	return joined.NumRows(), corr, quality
}

// workloadCase acquires a plan on a generated workload: source-less over
// the whole catalog, or with the base listing owned.
func workloadCase(t *testing.T, spec string, seed int64, ownBase bool) (*Dance, *PlanRecord, []*relation.Table) {
	t.Helper()
	sp, err := workload.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	req := search.Request{Iterations: 40, Seed: seed + 13}
	var mw *Dance
	var owned []*relation.Table
	if ownBase {
		mw = New(w.MarketplaceWithoutBase(), Config{SampleRate: 0.5, SampleSeed: uint64(seed) + 77})
		mw.AddSource(w.Base(), w.FDs[w.Base().Name])
		owned = append(owned, w.Base())
		req.SourceAttrs, req.TargetAttrs = []string{w.Truth.X}, []string{w.Truth.Y}
		req.Budget = w.Truth.PlanCostOwned * (1 + 1e-6)
	} else {
		mw = New(w.Marketplace(), Config{SampleRate: 0.5, SampleSeed: uint64(seed) + 77})
		req.TargetAttrs = []string{w.Truth.X, w.Truth.Y}
		req.Budget = w.Truth.PlanCost * (1 + 1e-6)
	}
	return mw, acquireRecord(t, mw, req), owned
}

func acquireRecord(t *testing.T, mw *Dance, req search.Request) *PlanRecord {
	t.Helper()
	plan, err := mw.Acquire(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := plan.Record()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// twoTableCase is a hand-built plan joining an owned src(k, xval), k in
// 0..19, with a bought tgt(k, yval) whose keys are offset+0..9, each listed
// twice with different labels: the FD k → yval holds on half the rows. An
// offset of 20 or more leaves the join empty.
func twoTableCase(offset int64) func(t *testing.T) (*Dance, *PlanRecord, []*relation.Table) {
	return func(t *testing.T) (*Dance, *PlanRecord, []*relation.Table) {
		src := relation.NewTable("src", relation.NewSchema(
			relation.Cat("k", relation.KindInt),
			relation.Num("xval", relation.KindFloat),
		))
		tgt := relation.NewTable("tgt", relation.NewSchema(
			relation.Cat("k", relation.KindInt),
			relation.Cat("yval", relation.KindString),
		))
		for i := int64(0); i < 20; i++ {
			src.AppendValues(relation.IntValue(i), relation.FloatValue(float64(i)))
			tgt.AppendValues(relation.IntValue(offset+i%10), relation.StringValue(string(rune('a'+i%3))))
		}
		fds := []fd.FD{fd.New("yval", "k")}
		m := marketplace.NewInMemory(nil)
		m.Register(tgt, fds)
		mw := New(m, Config{})
		mw.AddSource(src, nil)
		rec := &PlanRecord{
			Queries: []pricing.Query{{Instance: "tgt", Attrs: []string{"k", "yval"}}},
			Steps:   []JoinStep{{Table: "src"}, {Table: "tgt", On: []string{"k"}}},
			FDs:     fds,
			Request: search.Request{SourceAttrs: []string{"xval"}, TargetAttrs: []string{"yval"}},
		}
		return mw, rec, []*relation.Table{src}
	}
}

// TestExecuteRealizedMatchesRowOracle pins Execute's realized CORR and Q
// (exact float bits) and the joined row count to the row-store join and
// measures.
func TestExecuteRealizedMatchesRowOracle(t *testing.T) {
	for _, tc := range []struct {
		name      string
		setup     func(t *testing.T) (*Dance, *PlanRecord, []*relation.Table)
		wantEmpty bool
	}{
		{name: "snowflake/owned-base", setup: func(t *testing.T) (*Dance, *PlanRecord, []*relation.Table) {
			return workloadCase(t, "snowflake:3", 4, true)
		}},
		{name: "chain/source-less", setup: func(t *testing.T) (*Dance, *PlanRecord, []*relation.Table) {
			return workloadCase(t, "chain:3,decoys=2", 5, false)
		}},
		{name: "star/mixed-keys-nulls", setup: func(t *testing.T) (*Dance, *PlanRecord, []*relation.Table) {
			return workloadCase(t, "star:3,kinds=mixed,null=0.05", 6, false)
		}},
		{name: "tpch", setup: func(t *testing.T) (*Dance, *PlanRecord, []*relation.Table) {
			d := tpch.Generate(tpch.Config{Scale: 2, Seed: 42, DirtyFraction: 0.3})
			m := marketplace.NewInMemory(nil)
			for _, tab := range d.Tables {
				m.Register(tab, d.FDs[tab.Name])
			}
			mw := New(m, Config{SampleRate: 0.5, SampleSeed: 9})
			req := search.Request{
				SourceAttrs: []string{"totalprice"},
				TargetAttrs: []string{"nname"},
				Budget:      640,
				Iterations:  40,
				Seed:        5,
			}
			return mw, acquireRecord(t, mw, req), nil
		}},
		{name: "fd-violations", setup: twoTableCase(0)},
		{name: "empty-join", setup: twoTableCase(100), wantEmpty: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mw, rec, owned := tc.setup(t)
			p, err := mw.ExecuteRecord(bg, rec)
			if err != nil {
				t.Fatal(err)
			}
			rows, corr, quality := rowOracle(t, rec, p, owned)
			if got := p.Joined.NumRows(); got != rows {
				t.Errorf("joined rows = %d, row oracle %d", got, rows)
			}
			if math.Float64bits(p.Realized.Correlation) != math.Float64bits(corr) {
				t.Errorf("realized correlation = %v, row oracle %v", p.Realized.Correlation, corr)
			}
			if math.Float64bits(p.Realized.Quality) != math.Float64bits(quality) {
				t.Errorf("realized quality = %v, row oracle %v", p.Realized.Quality, quality)
			}
			if tc.wantEmpty != (rows == 0) {
				t.Fatalf("joined rows = %d, want empty %v", rows, tc.wantEmpty)
			}
			if !tc.wantEmpty && corr <= 0 {
				t.Errorf("row oracle correlation %v: the case measures nothing", corr)
			}
		})
	}
}

// TestExecuteRecordUnknownStepKeepsPartialSpend: a step naming a table
// that was neither bought nor owned fails after the queries were bought,
// and the returned Purchase still accounts for every charge.
func TestExecuteRecordUnknownStepKeepsPartialSpend(t *testing.T) {
	m, src := buildScenario(6)
	d := New(m, Config{SampleRate: 0.9, SampleSeed: 5})
	d.AddSource(src, nil)
	rec := acquireRecord(t, d, acquisitionRequest())
	rec.Steps = append(rec.Steps, JoinStep{Table: "ghost", On: []string{"key3"}})
	p, err := d.ExecuteRecord(bg, rec)
	if err == nil || !strings.Contains(err.Error(), `"ghost"`) {
		t.Fatalf("err = %v, want the unknown table named", err)
	}
	if p == nil {
		t.Fatal("nil Purchase: the query spend is lost")
	}
	if len(p.Tables) != len(rec.Queries) || p.TotalPrice <= 0 {
		t.Fatalf("purchase records %d tables for $%v, want %d bought queries", len(p.Tables), p.TotalPrice, len(rec.Queries))
	}
	if got := m.Ledger().TotalByKind("query"); got != p.TotalPrice {
		t.Fatalf("ledger query charges %v, purchase reports %v", got, p.TotalPrice)
	}
}
