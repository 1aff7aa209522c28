package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"legodb"
	"legodb/internal/core"
	"legodb/internal/faults"
	"legodb/internal/imdb"
	"legodb/internal/optimizer"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// adviseQueries is the paper's Fig. 10 lookup workload.
var adviseQueries = []string{"Q8", "Q9", "Q11", "Q12", "Q13"}

// adviseWeights draws the workload's query weights from the seed. They
// stay within ±5% of 1, so every seed asks the advisor the same kind of
// question and advised_cost moves by a few percent between seeds, not
// by the factors a different workload would.
func adviseWeights(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, len(adviseQueries))
	for i := range w {
		w[i] = 0.95 + 0.1*rng.Float64()
	}
	return w
}

// newAdviseEngine is the advise workload's set-up: a fresh engine (an
// empty cost cache) for the IMDB schema, Appendix A statistics and the
// weighted lookup workload.
func newAdviseEngine(weights []float64) (*legodb.Engine, error) {
	eng, err := legodb.New(imdb.SchemaText)
	if err != nil {
		return nil, err
	}
	if err := eng.SetStatisticsText(imdb.StatsText); err != nil {
		return nil, err
	}
	for i, q := range adviseQueries {
		if err := eng.AddQuery(q, imdb.Query(q).String(), weights[i]); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// advice is what every op must agree on.
type advice struct {
	cost, initial float64
	ddl           string
}

func (a advice) check(ref *advice) error {
	if a.cost > a.initial {
		return fmt.Errorf("advised cost %.6g above the initial configuration's %.6g", a.cost, a.initial)
	}
	if ref != nil && (a.cost != ref.cost || a.ddl != ref.ddl) {
		return fmt.Errorf("op advised cost %.10g, the first op %.10g (DDL equal: %t)", a.cost, ref.cost, a.ddl == ref.ddl)
	}
	return nil
}

// countedSites are the faults sites armed with counting no-op hooks in
// the traced run, with the per-layer metric each count feeds.
var countedSites = []struct{ site, metric string }{
	{faults.SiteMap, "relational.map_calls_per_op"},
	{faults.SiteTranslate, "xquery.translate_calls_per_op"},
	{faults.SiteQueryCost, "optimizer.cost_calls_per_op"},
	{faults.SiteAnnotate, "xstats.annotate_calls_per_op"},
}

func runAdvise(ctx context.Context, cfg config, rec *recorder, rep *report) error {
	weights := adviseWeights(cfg.seed)
	var ref *advice
	var last *legodb.Advice
	var setups latencies
	// untracedOp is one op as a developer runs it: AdviseContext on a
	// fresh engine, greedy-so to convergence, default workers. Like the
	// traced op, it starts from a collected heap, so how much garbage the
	// op before (or a snapshot cycle) left does not set its GC work.
	untracedOp := func() (time.Duration, error) {
		runtime.GC()
		start := time.Now()
		eng, err := newAdviseEngine(weights)
		if err != nil {
			return 0, err
		}
		setups = append(setups, time.Since(start).Seconds())
		start = time.Now()
		a, err := eng.AdviseContext(ctx, legodb.AdviseOptions{})
		d := time.Since(start)
		if err != nil {
			return d, err
		}
		got := advice{cost: a.Cost(), initial: a.InitialCost(), ddl: a.DDL()}
		if err := got.check(ref); err != nil {
			return d, err
		}
		if ref == nil {
			ref = &got
		}
		last = a
		return d, nil
	}
	// Warm-up op: fixes the reference advice, untimed and uncounted.
	if _, err := untracedOp(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	rep.setE2E("advised_cost", ref.cost, fmt.Sprintf("initial configuration %.6g", ref.initial))

	// The operator's view of the advice: the advised layout holding a
	// seeded document, snapshotted and reopened between ops.
	store, err := last.Open()
	if err != nil {
		return err
	}
	doc := imdb.Generate(imdb.GenOptions{Shows: cfg.scale.adviseDocShows, Seed: cfg.seed})
	if err := store.Load(doc); err != nil {
		return err
	}
	var xml bytes.Buffer
	if err := doc.Encode(&xml); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "stores-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snap := &snapshotter{path: filepath.Join(dir, "advised.store"), rec: rec}
	g, m := &gate{}, snap.every(func() *legodb.Store { return store })

	if cfg.trace {
		if err := traceAdvise(ctx, cfg, weights, ref, untracedOp, g, m, rec, rep); err != nil {
			return err
		}
	} else {
		lat, wall, cpu := closedLoop(1, cfg.duration(), cfg.scale.ops, rep, g, m, func(_, _ int) (time.Duration, error) {
			return untracedOp()
		})
		opStats(rep, lat[0], 0.90, wall, cpu)
	}
	rep.setE2E("setup_s", median(setups), fmt.Sprintf("engine construction, median of %d", len(setups)))
	return snap.finish(cfg, store, xml.Len(), rep)
}

// traceAdvise alternates untraced ops (AdviseContext, for the overhead
// baseline and the CPU and GC figures) with traced ops: the same search
// through core.GreedySearch, whose Result carries the advisor's
// counters, with the faults sites counting calls into each layer.
func traceAdvise(ctx context.Context, cfg config, weights []float64, ref *advice, untracedOp func() (time.Duration, error), g *gate, m *maintenance, rec *recorder, rep *report) error {
	schema, err := xschema.ParseSchema(imdb.SchemaText)
	if err != nil {
		return err
	}
	stats, err := xstats.Parse(imdb.StatsText)
	if err != nil {
		return err
	}
	var plain, traced latencies
	var cpu time.Duration
	var gc gcSample
	counts := make(map[string][]float64)
	add := func(name string, v float64) { counts[name] = append(counts[name], v) }
	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	closedLoop(1, cfg.duration(), cfg.scale.ops*2, rep, g, m, func(_, i int) (time.Duration, error) {
		if i%2 == 0 {
			c0, g0 := cpuTime(), readGC()
			d, err := untracedOp()
			c1, g1 := cpuTime(), readGC()
			if err == nil {
				plain = append(plain, float64(d)/1e6)
				cpu += c1 - c0
				gc.cycles += g1.cycles - g0.cycles
				gc.allocBytes += g1.allocBytes - g0.allocBytes
			}
			return d, err
		}
		eng, err := newAdviseEngine(weights)
		if err != nil {
			return 0, err
		}
		w := eng.Workload()
		runtime.GC()
		restores := make([]func(), len(countedSites))
		for j, s := range countedSites {
			restores[j] = faults.EnableHook(s.site, -1, func() {})
		}
		rec.nextOp()
		start := time.Now()
		root := rec.begin("op", -1)
		sp := rec.begin("core.search", root)
		res, err := core.GreedySearch(ctx, schema, w, stats, core.Options{Strategy: core.GreedySO, Cache: core.NewCostCache(0)})
		rec.end(sp)
		rec.end(root)
		d := time.Since(start)
		for j, s := range countedSites {
			add(s.metric, float64(faults.Hits(s.site)))
			restores[j]()
		}
		if err != nil {
			return d, err
		}
		got := advice{cost: res.Best.Cost, initial: res.InitialCost, ddl: res.Best.Catalog.SQL()}
		if err := got.check(ref); err != nil {
			return d, fmt.Errorf("traced op: %w", err)
		}
		traced = append(traced, float64(d)/1e6)
		add("core.evals_per_op", float64(res.Evals))
		add("core.translations_per_op", float64(res.Translations))
		add("core.iterations_per_op", float64(len(res.Trace)))
		add("core.query_cache_hit_ratio", ratio(res.QueryCacheHits, res.QueryCacheMisses))
		add("core.cost_cache_hit_ratio", ratio(res.Cache.Hits, res.Cache.Misses))
		add("plan.blocks_requested_per_op", float64(res.BlocksRequested))
		add("plan.blocks_costed_per_op", float64(res.BlocksCosted))
		return d, nil
	})
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("traced run completed no op of some mode")
	}
	for name, vs := range counts {
		rep.setLayer(name, median(vs))
	}
	n := float64(len(plain))
	rep.setLayer("runtime.gc_cycles_per_op", float64(gc.cycles)/n)
	rep.setLayer("runtime.alloc_kb_per_op", float64(gc.allocBytes)/1024/n)
	pp50, tp50 := median(plain), median(traced)
	rep.note("traced run: op p50 %.3f ms untraced (n=%d) / %.3f ms traced (n=%d)", pp50, len(plain), tp50, len(traced))
	rep.setTraceOverhead(tp50, pp50)
	return layerUnitTimes(schema, stats, cpu.Seconds()*1e6/n, rep)
}

// layerUnitTimes replays each layer's public entry point on the op's
// initial physical schema (greedy-so's all-outlined start) and reports
// the median time per call. Multiplied by the traced run's call counts
// it gives each layer's share of an op's CPU time.
func layerUnitTimes(schema *xschema.Schema, stats *xstats.Set, cpuUsPerOp float64, rep *report) error {
	const reps = 30
	annotated := schema.Clone()
	if err := xstats.Annotate(annotated, stats); err != nil {
		return err
	}
	ps, err := core.InitialSchema(annotated, core.GreedySO)
	if err != nil {
		return err
	}
	cat, err := relational.Map(ps)
	if err != nil {
		return err
	}
	opt := optimizer.New(cat)
	var queries []*xquery.Query
	for _, q := range adviseQueries {
		queries = append(queries, imdb.Query(q))
	}
	timeIt := func(f func() error) (float64, error) {
		var us []float64
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(start))/1e3)
		}
		return median(us), nil
	}
	var unit [4]float64
	if unit[0], err = timeIt(func() error { _, err := relational.Map(ps); return err }); err != nil {
		return err
	}
	if unit[1], err = timeIt(func() error {
		for _, q := range queries {
			if _, err := xquery.Translate(q, ps, cat); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	unit[1] /= float64(len(queries))
	var translated []*sqlast.Query
	for _, q := range queries {
		sq, err := xquery.Translate(q, ps, cat)
		if err != nil {
			return err
		}
		translated = append(translated, sq)
	}
	if unit[2], err = timeIt(func() error {
		for _, sq := range translated {
			if _, err := opt.QueryCost(sq); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	unit[2] /= float64(len(translated))
	clones := make([]*xschema.Schema, reps)
	for i := range clones {
		clones[i] = schema.Clone()
	}
	next := 0
	if unit[3], err = timeIt(func() error { next++; return xstats.Annotate(clones[next-1], stats) }); err != nil {
		return err
	}
	for j, layer := range []string{"relational.map", "xquery.translate", "optimizer.cost", "xstats.annotate"} {
		rep.setLayer(layer+"_us", unit[j])
		calls := rep.layers[countedSites[j].metric]
		if layer == "xstats.annotate" {
			// GreedySearch annotates the schema once per op, outside the
			// hook site (which only the incremental re-annotation path
			// fires).
			calls++
		}
		if cpuUsPerOp > 0 {
			rep.setLayer(layer+"_cpu_share", calls*unit[j]/cpuUsPerOp)
		}
	}
	return nil
}
