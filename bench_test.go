package legodb

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (each runs the generator + parameter sweep + cost
// evaluation that regenerates the artifact; the rows themselves are
// printed by `go run ./cmd/experiments`), plus ablation and component
// micro-benchmarks.

import (
	"context"
	"math/rand"
	"testing"

	"legodb/internal/core"
	"legodb/internal/engine"
	"legodb/internal/experiments"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/shred"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(name)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig6StorageMaps regenerates Figure 6: Q1–Q4 and W1/W2 costs
// under the three storage mappings of Figure 4.
func BenchmarkFig6StorageMaps(b *testing.B) { benchExperiment(b, "fig6") }

// fig10Workloads are the workloads of the Figure 10 searches.
func fig10Workloads() []*xquery.Workload {
	return []*xquery.Workload{imdb.LookupWorkload(), imdb.PublishWorkload()}
}

// fig11Workloads are the mixed workloads of the Figure 11 searches: the
// C[0.25]/C[0.50]/C[0.75] configurations and the OPT sweep.
func fig11Workloads() []*xquery.Workload {
	var wls []*xquery.Workload
	for _, k := range []float64{0.25, 0.5, 0.75, 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		wls = append(wls, imdb.MixedWorkload(k))
	}
	return wls
}

// benchGreedy runs one figure's searches (every workload) per
// iteration, either against one cost cache shared across the whole
// benchmark or fully uncached, and reports the evaluator traffic:
// evals/op counts full cost-pipeline runs, hits/op the candidate
// costings answered from memory, translations/op the per-query
// translate+cost runs the incremental layer could not avoid.
func benchGreedy(b *testing.B, strategy core.Strategy, workloads func() []*xquery.Workload, cache *core.CostCache, incremental bool) {
	b.Helper()
	var evals, hits, translations, qhits, qmisses uint64
	for i := 0; i < b.N; i++ {
		for _, wl := range workloads() {
			opts := core.Options{Strategy: strategy, DisableIncremental: !incremental}
			if cache != nil {
				opts.Cache = cache
			} else {
				opts.DisableCache = true
			}
			res, err := core.GreedySearch(context.Background(), imdb.Schema(), wl, imdb.Stats(), opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Best.Cost > res.InitialCost {
				b.Fatal("search worsened cost")
			}
			evals += res.Evals
			hits += res.Cache.Hits
			translations += res.Translations
			qhits += res.QueryCacheHits
			qmisses += res.QueryCacheMisses
		}
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(translations)/float64(b.N), "translations/op")
	if qhits+qmisses > 0 {
		b.ReportMetric(100*float64(qhits)/float64(qhits+qmisses), "qcache-hit-%")
	}
}

// BenchmarkFig10GreedySO regenerates the greedy-so convergence series of
// Figure 10 (both workloads; the SI series is measured separately below),
// with the cost cache shared across iterations — after the first search
// warms it, later runs pay only the per-iteration winner
// materializations.
func BenchmarkFig10GreedySO(b *testing.B) {
	benchGreedy(b, core.GreedySO, fig10Workloads, core.NewCostCache(0), true)
}

// BenchmarkFig10GreedySOFullEval turns the incremental layers off (every
// evaluation re-translates the whole workload) but keeps the cost cache.
func BenchmarkFig10GreedySOFullEval(b *testing.B) {
	benchGreedy(b, core.GreedySO, fig10Workloads, core.NewCostCache(0), false)
}

// BenchmarkFig10GreedySOUncached is the memoization-off baseline: every
// candidate pays a full evaluator pipeline run, as the paper's prototype
// did.
func BenchmarkFig10GreedySOUncached(b *testing.B) {
	benchGreedy(b, core.GreedySO, fig10Workloads, nil, false)
}

// BenchmarkFig10GreedySI regenerates the greedy-si convergence series of
// Figure 10 (cached; see the SO variants for the cache setup).
func BenchmarkFig10GreedySI(b *testing.B) {
	benchGreedy(b, core.GreedySI, fig10Workloads, core.NewCostCache(0), true)
}

// BenchmarkFig10GreedySIFullEval is greedy-si with the incremental
// layers off.
func BenchmarkFig10GreedySIFullEval(b *testing.B) {
	benchGreedy(b, core.GreedySI, fig10Workloads, core.NewCostCache(0), false)
}

// BenchmarkFig10GreedySIUncached is greedy-si with memoization off.
func BenchmarkFig10GreedySIUncached(b *testing.B) {
	benchGreedy(b, core.GreedySI, fig10Workloads, nil, false)
}

// BenchmarkFig11Sensitivity regenerates Figure 11: the workload-mix
// sensitivity sweep with C[0.25]/C[0.50]/C[0.75], ALL-INLINED and OPT.
// The sweep's 15 searches overlap heavily, so the experiments package's
// shared cache absorbs most of the cost; its hit/miss traffic is
// reported.
func BenchmarkFig11Sensitivity(b *testing.B) {
	start := experiments.CacheStats()
	benchExperiment(b, "fig11")
	st := experiments.CacheStats().Sub(start)
	b.ReportMetric(float64(st.Hits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(st.Misses)/float64(b.N), "misses/op")
}

// BenchmarkFig11SensitivityUncached is the memoization-off baseline of
// the sweep's greedy-si searches: every candidate pays a full evaluator
// pipeline run.
func BenchmarkFig11SensitivityUncached(b *testing.B) {
	benchGreedy(b, core.GreedySI, fig11Workloads, nil, true)
}

// BenchmarkFig13UnionDistribution regenerates Figure 13: the
// union-transformed configuration against all-inlined on Figure 12's
// queries.
func BenchmarkFig13UnionDistribution(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14RepetitionSplit regenerates Figure 14: the aka
// repetition-split sweep.
func BenchmarkFig14RepetitionSplit(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkTable2Wildcard regenerates Table 2: wildcard materialization
// under varying review counts and NYT fractions.
func BenchmarkTable2Wildcard(b *testing.B) { benchExperiment(b, "tab2") }

// BenchmarkAblationThreshold measures the early-stopping ablation.
func BenchmarkAblationThreshold(b *testing.B) { benchExperiment(b, "ablation-threshold") }

// BenchmarkAblationSIvsSO measures the starting-point ablation.
func BenchmarkAblationSIvsSO(b *testing.B) { benchExperiment(b, "ablation-si-vs-so") }

// BenchmarkAblationCostModelValidation measures the estimate-vs-engine
// agreement experiment (shreds generated data and executes the
// workload).
func BenchmarkAblationCostModelValidation(b *testing.B) { benchExperiment(b, "ablation-costmodel") }

// BenchmarkAblationBeam measures the greedy-vs-beam search ablation.
func BenchmarkAblationBeam(b *testing.B) { benchExperiment(b, "ablation-beam") }

// BenchmarkAblationUpdates measures the update-workload ablation.
func BenchmarkAblationUpdates(b *testing.B) { benchExperiment(b, "ablation-updates") }

// --- component micro-benchmarks ---

// BenchmarkGreedyIteration measures one full greedy-search run on the
// paper's lookup workload (the ~3s/iteration loop of Section 5.2 runs in
// milliseconds here).
func BenchmarkGreedyIteration(b *testing.B) {
	schema := imdb.Schema()
	stats := imdb.Stats()
	wl := imdb.LookupWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedySearch(context.Background(), schema, wl, stats, core.Options{Strategy: core.GreedySO, MaxIterations: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateConfiguration measures one GetPSchemaCost round trip:
// p-schema -> relations+statistics -> SQL -> optimizer.
func BenchmarkEvaluateConfiguration(b *testing.B) {
	s := imdb.AnnotatedSchema()
	ps, err := pschema.AllInlined(s)
	if err != nil {
		b.Fatal(err)
	}
	wl := imdb.LookupWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GetPSchemaCost(ps, wl, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslateWorkload measures XQuery-to-SQL translation of the
// complete Appendix C workload.
func BenchmarkTranslateWorkload(b *testing.B) {
	s := imdb.AnnotatedSchema()
	ps, err := pschema.AllInlined(s)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := relational.Map(ps)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]*xquery.Query, 0, len(imdb.QueryNames()))
	for _, name := range imdb.QueryNames() {
		queries = append(queries, imdb.Query(name))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := xquery.Translate(q, ps, cat); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkShredIMDB measures document shredding throughput.
func BenchmarkShredIMDB(b *testing.B) {
	s := imdb.AnnotatedSchema()
	ps, err := pschema.AllInlined(s)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := relational.Map(ps)
	if err != nil {
		b.Fatal(err)
	}
	doc := imdb.Generate(imdb.GenOptions{Shows: 100, Seed: 5})
	b.SetBytes(int64(len(doc.String())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := engine.NewDatabase(cat)
		if err := shred.New(ps, cat, db).Shred(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublishIMDB measures document reconstruction throughput.
func BenchmarkPublishIMDB(b *testing.B) {
	s := imdb.AnnotatedSchema()
	ps, err := pschema.AllInlined(s)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := relational.Map(ps)
	if err != nil {
		b.Fatal(err)
	}
	doc := imdb.Generate(imdb.GenOptions{Shows: 100, Seed: 5})
	db := engine.NewDatabase(cat)
	if err := shred.New(ps, cat, db).Shred(doc); err != nil {
		b.Fatal(err)
	}
	pub := shred.NewPublisher(ps, cat, db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pub.PublishAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteLookup measures engine execution of a translated
// lookup query.
func BenchmarkExecuteLookup(b *testing.B) {
	s := imdb.AnnotatedSchema()
	ps, err := pschema.AllInlined(s)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := relational.Map(ps)
	if err != nil {
		b.Fatal(err)
	}
	doc := imdb.Generate(imdb.GenOptions{Shows: 300, Seed: 5})
	db := engine.NewDatabase(cat)
	if err := shred.New(ps, cat, db).Shred(doc); err != nil {
		b.Fatal(err)
	}
	q := xquery.MustParse(`FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/title, $v/year`)
	sq, err := xquery.Translate(q, ps, cat)
	if err != nil {
		b.Fatal(err)
	}
	title := doc.Path("show", "title")[0].Text
	params := engine.Params{"c1": engine.StrVal(title)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(sq, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprint measures the canonical fingerprint of the IMDB
// schema — the per-candidate overhead the cost cache adds to a search.
func BenchmarkFingerprint(b *testing.B) {
	s := imdb.AnnotatedSchema()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fp := s.Fingerprint(); fp == (xschema.Fingerprint{}) {
			b.Fatal("zero fingerprint")
		}
	}
}

// BenchmarkValidateDocument measures schema validation.
func BenchmarkValidateDocument(b *testing.B) {
	s := imdb.Schema()
	doc := imdb.Generate(imdb.GenOptions{Shows: 100, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ValidateDocument(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectStatistics measures statistics collection from data.
func BenchmarkCollectStatistics(b *testing.B) {
	doc := imdb.Generate(imdb.GenOptions{Shows: 100, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := xstats.Collect(doc)
		if set.Count("imdb", "show") != 100 {
			b.Fatal("bad collection")
		}
	}
}

// BenchmarkGenerateRandomDocument measures the random document generator
// used by the property tests.
func BenchmarkGenerateRandomDocument(b *testing.B) {
	s := imdb.Schema()
	g := xschema.NewGenerator(s, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}
