// Command bench measures the search hot path — the fig10 and fig11
// searches — with incremental candidate evaluation on and off, and
// writes the metrics as JSON (ns/op, evals/op, translations/op,
// per-query cache hit rate, cost-cache traffic, and the logical-plan
// layer's block-sharing ratio: SPJ block costings requested by translated
// queries versus actually run by the optimizer). The engine-exec rows
// measure the relational executor itself: three IMDB query shapes under
// the vectorized batch executor versus the reference row-at-a-time path,
// with rows/sec and engine_exec_<shape>_speedup summary keys. The
// serve-load row drives the legodbd serving layer with an in-process
// HTTP load generator (concurrent clients, retry-with-backoff on 429)
// and reports qps, p50/p99 latency, shed rate and drain time as
// serve_load_* summary keys. CI archives the output as a non-gating
// artifact so regressions in translations/op, the sharing ratio, the
// executor speedups or serving latency are visible across commits.
//
// Usage:
//
//	bench [-o BENCH_search.json] [-runs 3]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"legodb"
	"legodb/internal/adapt"
	"legodb/internal/core"
	"legodb/internal/engine"
	"legodb/internal/experiments"
	"legodb/internal/faults"
	"legodb/internal/imdb"
	"legodb/internal/optimizer"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/server"
	"legodb/internal/shred"
	"legodb/internal/xquery"
	"legodb/internal/xstats"
)

// metrics aggregates one scenario's counters across its searches.
type metrics struct {
	elapsed      time.Duration
	searches     int
	evals        uint64
	translations uint64
	qhits        uint64
	qmisses      uint64
	cacheHits    uint64
	cacheMisses  uint64
	dedups       uint64
	blocksReq    uint64
	blocksCosted uint64
	// registryRatio is the cost-cache hit ratio of the last fleet
	// engine's search (the one answered from the registry the earlier
	// engines warmed); zero outside the fleet scenario.
	registryRatio float64
}

func (m *metrics) add(res *core.Result, d time.Duration) {
	m.elapsed += d
	m.searches++
	m.evals += res.Evals
	m.translations += res.Translations
	m.qhits += res.QueryCacheHits
	m.qmisses += res.QueryCacheMisses
	m.cacheHits += res.Cache.Hits
	m.cacheMisses += res.Cache.Misses
	m.dedups += res.Cache.Dedups
	m.blocksReq += res.BlocksRequested
	m.blocksCosted += res.BlocksCosted
}

// scenarioResult is the JSON row for one (scenario, incremental,
// workers) triple. Per-op means per full scenario run (all of its
// searches once).
type scenarioResult struct {
	Name        string `json:"name"`
	Incremental bool   `json:"incremental"`
	Runs        int    `json:"runs"`
	// Workers is the candidate-evaluation worker bound the scenario ran
	// with (0 = the search default, GOMAXPROCS).
	Workers           int     `json:"workers"`
	Searches          int     `json:"searches_per_op"`
	NsPerOp           float64 `json:"ns_per_op"`
	OpsPerSec         float64 `json:"ops_per_sec"`
	EvalsPerOp        float64 `json:"evals_per_op"`
	TranslationsPerOp float64 `json:"translations_per_op"`
	QueryCacheHitRate float64 `json:"query_cache_hit_rate"`
	CostCacheHits     float64 `json:"cost_cache_hits_per_op"`
	CostCacheMisses   float64 `json:"cost_cache_misses_per_op"`
	// BlocksRequested counts SPJ block costings translated queries asked
	// the logical-plan layer for; BlocksCosted the subset the optimizer
	// actually ran. BlockSharing is their ratio — how many times fewer
	// block costings ran than were requested (1.0 = no sharing).
	BlocksRequested float64 `json:"blocks_requested_per_op"`
	BlocksCosted    float64 `json:"blocks_costed_per_op"`
	BlockSharing    float64 `json:"block_sharing_ratio"`
	// Dedups counts singleflight adoptions: costings answered by waiting
	// on a concurrent identical evaluation instead of re-running it.
	DedupsPerOp float64 `json:"dedups_per_op"`
	// RegistryHitRatio is the cost-cache hit ratio of the second fleet
	// engine's search — how much of a tenant's search the registry
	// answered from what the fleet already paid (fleet scenario only).
	RegistryHitRatio float64 `json:"registry_hit_ratio"`
	// Mode is the executor implementation of an engine-exec row ("batch"
	// or "rows"); empty for the search scenarios.
	Mode string `json:"mode,omitempty"`
	// RowsPerSec is the engine-exec scenario's result-row throughput.
	RowsPerSec float64 `json:"rows_per_sec,omitempty"`
	// Serve-load fields (the legodbd serving benchmark): concurrent
	// clients, successful-request latency percentiles, the fraction of
	// attempts shed with 429 by admission control, and how long the
	// graceful drain took after the load stopped.
	Clients  int     `json:"clients,omitempty"`
	P50Ms    float64 `json:"p50_ms,omitempty"`
	P99Ms    float64 `json:"p99_ms,omitempty"`
	ShedRate float64 `json:"shed_rate,omitempty"`
	DrainMs  float64 `json:"drain_ms,omitempty"`
}

type report struct {
	Scenarios []scenarioResult   `json:"scenarios"`
	Summary   map[string]float64 `json:"summary"`
}

// scenario is a named bundle of searches sharing one fresh cost cache
// per run (mirroring how cmd/experiments runs them). workers lists the
// candidate-evaluation worker bounds to sweep (nil = the search
// default only); modes lists the incremental settings to measure
// (nil = both off and on).
type scenario struct {
	name    string
	workers []int
	modes   []bool
	run     func(ctx context.Context, m *metrics, incremental bool, workers int) error
}

func searchOnce(ctx context.Context, m *metrics, wl *xquery.Workload, strategy core.Strategy, cache *core.CostCache, incremental bool, workers int) error {
	start := time.Now()
	res, err := core.GreedySearch(ctx, imdb.Schema(), wl, imdb.Stats(), core.Options{
		Strategy: strategy, Cache: cache, DisableIncremental: !incremental, Workers: workers,
	})
	if err != nil {
		return err
	}
	m.add(res, time.Since(start))
	return nil
}

// oracleRTT is the simulated per-costing round-trip latency of the
// scaling scenarios: each optimizer costing sleeps this long via the
// SiteQueryCost fault hook, modeling a cost oracle that lives out of
// process (the paper's optimizer was a separate server). Worker scaling
// on a CPU-bound search is invisible on a single-core runner; latency-
// bound costing is what the worker pool actually hides.
const oracleRTT = 2 * time.Millisecond

// scalingRun returns a scaling-scenario run function: one search on the
// lookup workload with the given strategy shape (greedy or beam), a
// fresh cache per op, and the oracle-latency hook armed for the op.
func scalingRun(beam bool) func(ctx context.Context, m *metrics, incremental bool, workers int) error {
	return func(ctx context.Context, m *metrics, incremental bool, workers int) error {
		restore := faults.EnableHook(faults.SiteQueryCost, -1, func() { time.Sleep(oracleRTT) })
		defer restore()
		if !beam {
			return searchOnce(ctx, m, imdb.LookupWorkload(), core.GreedySO, core.NewCostCache(0), incremental, workers)
		}
		start := time.Now()
		res, err := core.BeamSearch(ctx, imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), core.BeamOptions{
			Options: core.Options{
				Strategy: core.GreedySO, Cache: core.NewCostCache(0), DisableIncremental: !incremental, Workers: workers,
			},
			Width: 3,
		})
		if err != nil {
			return err
		}
		m.add(res, time.Since(start))
		return nil
	}
}

func scenarios() []scenario {
	return []scenario{
		{
			// Figure 10: greedy-so and greedy-si on the lookup and
			// publish workloads, one shared cache.
			name: "fig10",
			run: func(ctx context.Context, m *metrics, incremental bool, workers int) error {
				cache := core.NewCostCache(0)
				for _, wl := range []func() *xquery.Workload{imdb.LookupWorkload, imdb.PublishWorkload} {
					for _, strategy := range []core.Strategy{core.GreedySO, core.GreedySI} {
						if err := searchOnce(ctx, m, wl(), strategy, cache, incremental, workers); err != nil {
							return err
						}
					}
				}
				return nil
			},
		},
		{
			// Figure 11: the C[k] configuration searches plus the OPT
			// sweep — 14 greedy-si searches over overlapping mixed
			// workloads, one shared cache.
			name: "fig11",
			run: func(ctx context.Context, m *metrics, incremental bool, workers int) error {
				cache := core.NewCostCache(0)
				ks := []float64{0.25, 0.5, 0.75, 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
				for _, k := range ks {
					if err := searchOnce(ctx, m, imdb.MixedWorkload(k), core.GreedySI, cache, incremental, workers); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			// Fleet: two engines attached to one cache registry run the
			// identical search back to back — the tenant-fleet sharing
			// case. The second engine's hit ratio is the registry's
			// payoff and is asserted ≥ 0.5 by the robustness tests.
			name: "fleet",
			run: func(ctx context.Context, m *metrics, incremental bool, workers int) error {
				reg := core.NewCacheRegistry(0)
				for i := 0; i < 2; i++ {
					start := time.Now()
					res, err := core.GreedySearch(ctx, imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), core.Options{
						Strategy: core.GreedySO, Cache: reg.Attach(), DisableIncremental: !incremental, Workers: workers,
					})
					if err != nil {
						return err
					}
					m.add(res, time.Since(start))
					if i == 1 {
						m.registryRatio = res.Cache.HitRatio()
					}
				}
				return nil
			},
		},
		{
			// Beam search (width 3) on the lookup workload.
			name: "beam-lookup",
			run: func(ctx context.Context, m *metrics, incremental bool, workers int) error {
				start := time.Now()
				res, err := core.BeamSearch(ctx, imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), core.BeamOptions{
					Options: core.Options{
						Strategy: core.GreedySO, Cache: core.NewCostCache(0), DisableIncremental: !incremental, Workers: workers,
					},
					Width: 3,
				})
				if err != nil {
					return err
				}
				m.add(res, time.Since(start))
				return nil
			},
		},
		{
			// Worker scaling, greedy: one greedy-so lookup search per op
			// with a fresh cache and a 2ms simulated cost-oracle RTT per
			// costing, swept over the worker-pool bound. Incremental only:
			// the sweep measures dispatch scalability, not cache savings.
			name:    "scaling-greedy",
			workers: []int{1, 2, 4, 8, 16},
			modes:   []bool{true},
			run:     scalingRun(false),
		},
		{
			// Worker scaling, beam (width 3): same sweep over the beam
			// search's per-front candidate dispatch.
			name:    "scaling-beam",
			workers: []int{1, 2, 4, 8, 16},
			modes:   []bool{true},
			run:     scalingRun(true),
		},
	}
}

// runEngineExec measures the relational executor itself rather than the
// search: three translated IMDB query shapes — a year-filter lookup
// (Q3), the full publish scan (Q16) and the hash-join-heavy 4-way join
// (Q12) — run against an all-inlined IMDB database under both the
// vectorized batch executor and the reference row-at-a-time path. Each
// (shape, mode) pair becomes one engine-exec-<shape> row with rows/sec
// throughput, and the summary gains engine_exec_<shape>_speedup keys
// (batch throughput over row-at-a-time).
func runEngineExec(ctx context.Context, runs int, rep *report) error {
	const shows = 400
	doc := imdb.Generate(imdb.GenOptions{Shows: shows, Seed: 17})
	s := imdb.Schema()
	if err := xstats.Annotate(s, xstats.Collect(doc)); err != nil {
		return err
	}
	ps, err := pschema.AllInlined(s)
	if err != nil {
		return err
	}
	cat, err := relational.Map(ps)
	if err != nil {
		return err
	}
	db := engine.NewDatabase(cat)
	if err := shred.New(ps, cat, db).Shred(doc); err != nil {
		return err
	}
	year, err := strconv.ParseInt(doc.Path("show", "year")[0].Text, 10, 64)
	if err != nil {
		return err
	}

	shapes := []struct {
		name, query string
		params      engine.Params
		// iters executions of the query form one op, sized so each op is
		// long enough to time while the slow reference mode stays sane.
		iters int
	}{
		{"lookup", "Q3", engine.Params{"c1": engine.IntVal(year)}, 40},
		{"publish", "Q16", nil, 10},
		{"join", "Q12", nil, 2},
	}
	for _, sh := range shapes {
		sq, err := xquery.Translate(imdb.Query(sh.query), ps, cat)
		if err != nil {
			return fmt.Errorf("%s (%s): %v", sh.name, sh.query, err)
		}
		// Plan once, as a prepared query does: the rows time execution only.
		plan, err := db.Plan(sq)
		if err != nil {
			return fmt.Errorf("%s (%s): %v", sh.name, sh.query, err)
		}
		nsByMode := map[string]float64{}
		for _, mode := range []struct {
			name string
			opts engine.Options
		}{{"batch", engine.Options{}}, {"rows", engine.Options{RowAtATime: true}}} {
			db.Exec = mode.opts
			var elapsed time.Duration
			outRows := 0
			for r := 0; r < runs; r++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				start := time.Now()
				for i := 0; i < sh.iters; i++ {
					rs, err := db.ExecutePlan(ctx, plan, sh.params)
					if err != nil {
						return fmt.Errorf("%s/%s: %v", sh.name, mode.name, err)
					}
					outRows = len(rs.Rows)
				}
				elapsed += time.Since(start)
			}
			res := scenarioResult{
				Name:    "engine-exec-" + sh.name,
				Mode:    mode.name,
				Runs:    runs,
				NsPerOp: float64(elapsed.Nanoseconds()) / float64(runs),
			}
			if res.NsPerOp > 0 {
				res.OpsPerSec = 1e9 / res.NsPerOp
				res.RowsPerSec = float64(outRows*sh.iters) / (res.NsPerOp / 1e9)
			}
			nsByMode[mode.name] = res.NsPerOp
			rep.Scenarios = append(rep.Scenarios, res)
		}
		if nsByMode["batch"] > 0 {
			rep.Summary["engine_exec_"+sh.name+"_speedup"] = nsByMode["rows"] / nsByMode["batch"]
		}
	}
	return nil
}

// runExecModesConstants re-runs the ablation-execmodes experiment — the
// cost model validated against both executors on both storage engines
// (heap rows and the colfile-frozen persistent image) — and records
// each est/meas calibration ratio as an execmodes_<query>_<storage>
// summary key. The persistent rows charge encoded chunk bytes instead
// of catalog row-width estimates, so their constants sit at a different
// level than the heap rows'; archiving both lets cmd/benchdiff print
// the shift across commits without gating on it.
func runExecModesConstants(ctx context.Context, rep *report) error {
	tbl, err := experiments.AblationExecModes(ctx)
	if err != nil {
		return err
	}
	for _, row := range tbl.Rows {
		// Columns: query, storage, estimated, meas batch, meas rows,
		// est/meas, speedup.
		ratio, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			return fmt.Errorf("est/meas cell %q: %v", row[5], err)
		}
		key := "execmodes_" + strings.ReplaceAll(row[0], "-", "_") + "_" + row[1]
		rep.Summary[key] = ratio
	}
	return nil
}

// runServeLoad measures the serving layer end to end: a resident
// legodbd server (small admission budget so shedding actually happens)
// under an in-process HTTP load generator — concurrent clients posting
// the IMDB lookup query, retrying shed requests with jittered
// exponential backoff. It reports qps, p50/p99 latency of successful
// requests, the shed rate, and how long the post-load graceful drain
// took; the summary gains serve_load_* keys.
func runServeLoad(ctx context.Context, rep *report) error {
	const (
		clients   = 32
		perClient = 40
		attempts  = 10
	)
	// The admission budget is deliberately tight for 32 clients — four
	// slots and a shallow queue against a mix with heavy joins — so
	// overload is real and the shed/retry path is part of what's
	// measured, not just the happy path.
	srv, err := server.New(server.Config{
		MaxInflight:    4,
		QueueDepth:     4,
		QueueWait:      10 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		DrainTimeout:   5 * time.Second,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return err
	}
	if err := srv.AddTenant(ctx, server.TenantSpec{
		Name:   "bench",
		Schema: imdb.SchemaText,
		Stats:  imdb.StatsText,
		Config: "all-inlined",
		Queries: []server.TenantQuery{
			{Name: "lookup", Text: `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`, Weight: 1},
		},
	}); err != nil {
		return err
	}
	if err := srv.LoadDocument("bench", imdb.Generate(imdb.GenOptions{Shows: 200, Seed: 17})); err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())

	// The request mix: cheap point lookups with a heavy self-join (the
	// paper's Q12) every eighth request, so the admission slots stay
	// genuinely occupied and overload behavior is measurable.
	joinText := imdb.Query("Q12").String()
	makeBody := func(c, i int) []byte {
		if (c+i)%8 == 0 {
			b, _ := json.Marshal(map[string]any{"query": joinText})
			return b
		}
		b, _ := json.Marshal(map[string]any{
			"query":  `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`,
			"params": map[string]string{"c1": fmt.Sprint(1990 + (c+i)%20)},
		})
		return b
	}

	var (
		mu        sync.Mutex
		latencies []float64 // ms, successful requests only
		shed      atomic.Int64
		failed    atomic.Int64
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for i := 0; i < perClient; i++ {
				body := makeBody(c, i)
				var ok bool
				reqStart := time.Now()
				for a := 0; a < attempts; a++ {
					resp, err := http.Post(ts.URL+"/tenants/bench/query", "application/json", bytes.NewReader(body))
					if err != nil {
						break
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						ok = true
						break
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						break
					}
					shed.Add(1)
					// Honor Retry-After as a floor signal but cap the sleep:
					// the server advertises whole seconds, far coarser than
					// this benchmark's time budget.
					backoff := time.Duration(1<<a) * time.Millisecond
					if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
						if d := time.Duration(ra) * time.Millisecond; d > backoff {
							backoff = d
						}
					}
					backoff += time.Duration(rng.Int63n(int64(time.Millisecond) * (1 << a)))
					if backoff > 100*time.Millisecond {
						backoff = 100 * time.Millisecond
					}
					time.Sleep(backoff)
				}
				if ok {
					ms := float64(time.Since(reqStart).Microseconds()) / 1000
					mu.Lock()
					latencies = append(latencies, ms)
					mu.Unlock()
				} else {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	drainStart := time.Now()
	if err := srv.Drain(context.Background()); err != nil {
		return fmt.Errorf("drain: %v", err)
	}
	drainMs := float64(time.Since(drainStart).Microseconds()) / 1000
	ts.Close()

	if failed.Load() > 0 {
		return fmt.Errorf("%d requests failed after %d attempts", failed.Load(), attempts)
	}
	sort.Float64s(latencies)
	pctl := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	total := len(latencies) + int(shed.Load())
	res := scenarioResult{
		Name:     "serve-load",
		Runs:     1,
		Clients:  clients,
		Searches: len(latencies),
		P50Ms:    pctl(0.50),
		P99Ms:    pctl(0.99),
		DrainMs:  drainMs,
	}
	if len(latencies) > 0 {
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		res.NsPerOp = sum / float64(len(latencies)) * 1e6
		res.OpsPerSec = float64(len(latencies)) / wall.Seconds()
	}
	if total > 0 {
		res.ShedRate = float64(shed.Load()) / float64(total)
	}
	rep.Scenarios = append(rep.Scenarios, res)
	rep.Summary["serve_load_qps"] = res.OpsPerSec
	rep.Summary["serve_load_p50_ms"] = res.P50Ms
	rep.Summary["serve_load_p99_ms"] = res.P99Ms
	rep.Summary["serve_load_shed_rate"] = res.ShedRate
	rep.Summary["serve_load_drain_ms"] = res.DrainMs
	return nil
}

// driftLookups is the flipped workload the drift scenario pushes at a
// store advised for publishing: point lookups that want scalars inlined,
// the opposite of what the all-outlined baseline is good at.
var driftLookups = []struct {
	text   string
	params map[string]string
}{
	{`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`, map[string]string{"c1": "1995"}},
	{`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title`, map[string]string{"c1": "1999"}},
	{`FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/year, $v/box_office`, map[string]string{"c1": "zzz"}},
}

// measuredLookupCost executes the flipped workload iters times and
// converts the engine's counter deltas into cost units with the
// optimizer's own constants — the same formula the cost-model ablation
// uses, so estimated and measured wins are comparable.
func measuredLookupCost(store *legodb.Store, m optimizer.CostModel, iters int) (float64, error) {
	before := store.Measured()
	for i := 0; i < iters; i++ {
		for _, q := range driftLookups {
			params := legodb.Params{}
			for k, v := range q.params {
				params[k] = v
			}
			if _, err := store.Query(q.text, params); err != nil {
				return 0, err
			}
		}
	}
	d := store.Measured()
	d.BytesRead -= before.BytesRead
	d.TuplesRead -= before.TuplesRead
	d.Probes -= before.Probes
	d.Scans -= before.Scans
	cost := m.SeekCost*float64(d.Scans) +
		d.BytesRead/m.PageSize*m.PageIOCost +
		float64(d.TuplesRead)*m.CPUTupleCost +
		float64(d.Probes)*m.ProbeCost
	return cost / float64(iters), nil
}

// runDrift measures the adaptation loop end to end. A store advised for
// a publish workload (installed all-outlined) has its traffic flip to
// point lookups; the drift controller detects the flip through the
// hysteresis gates, re-advises in the background and migrates the store
// live — table group by table group — while client goroutines keep
// querying. Reported: the measured engine cost of the flipped workload
// on the stale versus migrated configuration (post_migrate_cost_ratio,
// < 1 is the win), the drift checks run, the cutover write-lock hold
// time, and the p99 client latency observed while the re-advise and
// migration were in flight.
func runDrift(ctx context.Context, rep *report) error {
	const (
		shows     = 200
		observeN  = 64
		costIters = 5
		clients   = 4
	)
	eng, err := legodb.New(imdb.SchemaText)
	if err != nil {
		return err
	}
	if err := eng.SetStatisticsText(imdb.StatsText); err != nil {
		return err
	}
	if err := eng.AddQuery("publish", `FOR $v IN imdb/show RETURN $v`, 1); err != nil {
		return err
	}
	baseline, err := eng.EvaluateFixed("all-outlined")
	if err != nil {
		return err
	}
	store, err := baseline.Open()
	if err != nil {
		return err
	}
	if err := store.Load(imdb.Generate(imdb.GenOptions{Shows: shows, Seed: 17})); err != nil {
		return err
	}
	ctrl := adapt.New(eng, store, eng.Workload(), adapt.Config{
		SearchTimeout:  30 * time.Second,
		MaxEvaluations: 400,
	})

	// Phase 1: the declared workload. The controller sees no drift.
	for i := 0; i < 8; i++ {
		if _, err := store.Query(`FOR $v IN imdb/show RETURN $v`, nil); err != nil {
			return err
		}
	}
	if d, err := ctrl.Check(ctx, false); err != nil {
		return err
	} else if d.Migrated {
		return fmt.Errorf("undrifted store migrated: %+v", d)
	}

	// Phase 2: the workload flips to lookups. Measure what the flipped
	// traffic costs on the stale configuration.
	for i := 0; i < observeN; i++ {
		q := driftLookups[i%len(driftLookups)]
		params := legodb.Params{}
		for k, v := range q.params {
			params[k] = v
		}
		if _, err := store.Query(q.text, params); err != nil {
			return err
		}
	}
	model := optimizer.DefaultModel()
	staleCost, err := measuredLookupCost(store, model, costIters)
	if err != nil {
		return err
	}

	// Phase 3: the controller reacts while clients keep querying; their
	// latencies across the re-advise + migration window bound the
	// availability impact of the cutover.
	var (
		latMu     sync.Mutex
		latencies []float64
		clientErr atomic.Value
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := driftLookups[(c+i)%len(driftLookups)]
				params := legodb.Params{}
				for k, v := range q.params {
					params[k] = v
				}
				qs := time.Now()
				if _, err := store.Query(q.text, params); err != nil {
					clientErr.Store(err)
					return
				}
				latMu.Lock()
				latencies = append(latencies, float64(time.Since(qs).Microseconds())/1000)
				latMu.Unlock()
			}
		}(c)
	}
	dec, err := ctrl.Check(ctx, false)
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	if e := clientErr.Load(); e != nil {
		return fmt.Errorf("client failed during migration: %v", e)
	}
	if !dec.Migrated {
		return fmt.Errorf("drifted store did not migrate: %+v", dec)
	}

	// Phase 4: the same flipped traffic on the migrated configuration.
	newCost, err := measuredLookupCost(store, model, costIters)
	if err != nil {
		return err
	}
	if staleCost <= 0 {
		return fmt.Errorf("measured stale cost is %v", staleCost)
	}
	ratio := newCost / staleCost

	sort.Float64s(latencies)
	pctl := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		return latencies[int(p*float64(len(latencies)-1))]
	}
	st := ctrl.Stats()
	res := scenarioResult{
		Name:     "drift",
		Runs:     1,
		Clients:  clients,
		Searches: len(latencies),
		P50Ms:    pctl(0.50),
		P99Ms:    pctl(0.99),
	}
	rep.Scenarios = append(rep.Scenarios, res)
	rep.Summary["drift_detect_checks"] = float64(st.Checks)
	rep.Summary["drift_score"] = dec.Drift
	rep.Summary["migrate_cutover_ms"] = float64(dec.Migration.Cutover.Microseconds()) / 1000
	rep.Summary["migrate_cutover_p99_ms"] = res.P99Ms
	rep.Summary["post_migrate_cost_ratio"] = ratio
	fmt.Printf("drift: stale=%.1f migrated=%.1f cost units/pass (ratio %.3f), cutover %.2fms, client p99 %.2fms\n",
		staleCost, newCost, ratio, rep.Summary["migrate_cutover_ms"], res.P99Ms)
	return nil
}

func main() {
	out := flag.String("o", "BENCH_search.json", "output file ('-' for stdout)")
	runs := flag.Int("runs", 3, "runs per scenario (metrics are averaged)")
	only := flag.String("only", "", "run only the named scenario")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()

	// An interrupt cancels the in-flight search; partially measured
	// scenarios are abandoned rather than reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	rep := report{Summary: map[string]float64{}}
	perOp := map[string]map[bool]scenarioResult{}
	scaling := map[string]map[int]scenarioResult{}
	for _, sc := range scenarios() {
		if *only != "" && sc.name != *only {
			continue
		}
		workerSet := sc.workers
		if workerSet == nil {
			workerSet = []int{0}
		}
		modes := sc.modes
		if modes == nil {
			modes = []bool{false, true}
		}
		for _, workers := range workerSet {
			for _, incremental := range modes {
				var m metrics
				for r := 0; r < *runs; r++ {
					if err := sc.run(ctx, &m, incremental, workers); err != nil {
						fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sc.name, err)
						os.Exit(1)
					}
				}
				n := float64(*runs)
				res := scenarioResult{
					Name:              sc.name,
					Incremental:       incremental,
					Runs:              *runs,
					Workers:           workers,
					Searches:          m.searches / *runs,
					NsPerOp:           float64(m.elapsed.Nanoseconds()) / n,
					EvalsPerOp:        float64(m.evals) / n,
					TranslationsPerOp: float64(m.translations) / n,
					CostCacheHits:     float64(m.cacheHits) / n,
					CostCacheMisses:   float64(m.cacheMisses) / n,
				}
				if res.NsPerOp > 0 {
					res.OpsPerSec = 1e9 / res.NsPerOp
				}
				if m.qhits+m.qmisses > 0 {
					res.QueryCacheHitRate = float64(m.qhits) / float64(m.qhits+m.qmisses)
				}
				res.BlocksRequested = float64(m.blocksReq) / n
				res.BlocksCosted = float64(m.blocksCosted) / n
				if m.blocksCosted > 0 {
					res.BlockSharing = float64(m.blocksReq) / float64(m.blocksCosted)
				}
				res.DedupsPerOp = float64(m.dedups) / n
				res.RegistryHitRatio = m.registryRatio
				rep.Scenarios = append(rep.Scenarios, res)
				if sc.workers == nil {
					if perOp[sc.name] == nil {
						perOp[sc.name] = map[bool]scenarioResult{}
					}
					perOp[sc.name][incremental] = res
				} else if incremental {
					if scaling[sc.name] == nil {
						scaling[sc.name] = map[int]scenarioResult{}
					}
					scaling[sc.name][workers] = res
				}
			}
		}
	}
	if *only == "" || *only == "engine-exec" {
		if err := runEngineExec(ctx, *runs, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: engine-exec: %v\n", err)
			os.Exit(1)
		}
	}
	if *only == "" || *only == "serve-load" {
		if err := runServeLoad(ctx, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: serve-load: %v\n", err)
			os.Exit(1)
		}
	}
	if *only == "" || *only == "drift" {
		if err := runDrift(ctx, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: drift: %v\n", err)
			os.Exit(1)
		}
	}
	if *only == "" || *only == "execmodes" {
		if err := runExecModesConstants(ctx, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: execmodes: %v\n", err)
			os.Exit(1)
		}
	}
	var fullT, incT float64
	for name, pair := range perOp {
		full, inc := pair[false], pair[true]
		fullT += full.TranslationsPerOp
		incT += inc.TranslationsPerOp
		if inc.TranslationsPerOp > 0 {
			rep.Summary[name+"_translation_reduction"] = full.TranslationsPerOp / inc.TranslationsPerOp
		}
		if inc.NsPerOp > 0 {
			rep.Summary[name+"_speedup"] = full.NsPerOp / inc.NsPerOp
		}
		if inc.BlockSharing > 0 {
			rep.Summary[name+"_block_sharing"] = inc.BlockSharing
		}
		if inc.RegistryHitRatio > 0 {
			rep.Summary[name+"_registry_hit_ratio"] = inc.RegistryHitRatio
		}
	}
	if incT > 0 {
		rep.Summary["combined_translation_reduction"] = fullT / incT
	}
	// Scaling summaries: throughput at N workers over 1 worker, e.g.
	// scaling_greedy_speedup_8w.
	for name, byWorkers := range scaling {
		base, ok := byWorkers[1]
		if !ok || base.NsPerOp == 0 {
			continue
		}
		key := strings.ReplaceAll(name, "-", "_")
		for w, res := range byWorkers {
			if w == 1 || res.NsPerOp == 0 {
				continue
			}
			rep.Summary[fmt.Sprintf("%s_speedup_%dw", key, w)] = base.NsPerOp / res.NsPerOp
		}
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, sc := range rep.Scenarios {
		if sc.Mode != "" {
			fmt.Printf("%-20s mode=%-5s %10.2fms/op %12.0f rows/sec\n",
				sc.Name, sc.Mode, sc.NsPerOp/1e6, sc.RowsPerSec)
			continue
		}
		if sc.Workers > 0 {
			fmt.Printf("%-13s workers=%-2d %13.1fms/op %8.3f ops/sec\n",
				sc.Name, sc.Workers, sc.NsPerOp/1e6, sc.OpsPerSec)
			continue
		}
		fmt.Printf("%-12s incremental=%-5v %8.1fms/op %7.0f translations/op %5.1f%% qcache hits %5.2fx block sharing\n",
			sc.Name, sc.Incremental, sc.NsPerOp/1e6, sc.TranslationsPerOp, 100*sc.QueryCacheHitRate, sc.BlockSharing)
	}
	fmt.Printf("combined translation reduction: %.2fx (written to %s)\n",
		rep.Summary["combined_translation_reduction"], *out)
}
