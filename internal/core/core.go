// Package core implements LegoDB's cost-based search for an efficient
// XML-to-relational storage mapping (Section 4.2, Algorithm 4.1): starting
// from an initial physical schema, it repeatedly applies the single
// schema transformation that lowers the estimated workload cost the most,
// using the relational optimizer as the cost oracle, until no
// transformation improves the configuration.
//
// The search is an anytime procedure, as the paper requires of a search
// over an in-principle unbounded transformation space: it honors
// context cancellation, a wall-clock deadline (Options.Deadline) and an
// evaluation budget (Options.Budget), and on any of them returns the
// best configuration found so far together with a SearchReport saying
// why it stopped. Candidate evaluations are fault-isolated: a panic or
// error in one candidate's pipeline is recorded as a CandidateError and
// the candidate skipped — it never aborts the search or wedges the
// worker pool.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"legodb/internal/optimizer"
	"legodb/internal/plan"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/transform"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
	"legodb/internal/xstats"
)

// Strategy selects the search's starting configuration and move set.
type Strategy int

const (
	// GreedySO starts with everything outlined and applies inlining
	// moves (the paper's greedy-so).
	GreedySO Strategy = iota
	// GreedySI starts with everything inlined (unions flattened to
	// options, as in the ALL-INLINED configuration) and applies
	// outlining moves (the paper's greedy-si).
	GreedySI
	// GreedyFull starts all-inlined with unions kept and considers the
	// full transformation repertoire. Not part of the paper's prototype
	// (which explored inlining/outlining in the greedy loop and the
	// other rewritings separately); provided as the natural extension.
	GreedyFull
)

func (s Strategy) String() string {
	switch s {
	case GreedySO:
		return "greedy-so"
	case GreedySI:
		return "greedy-si"
	case GreedyFull:
		return "greedy-full"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures the search.
type Options struct {
	Strategy Strategy
	// Kinds overrides the strategy's move set when non-nil.
	Kinds []transform.Kind
	// WildcardLabels feeds wildcard materialization candidates (label →
	// estimated fraction); only used when the move set includes it.
	WildcardLabels map[string]float64
	// Threshold stops the search early when the relative improvement of
	// an iteration falls below it (Section 5.2 suggests this
	// optimization); 0 disables.
	Threshold float64
	// MaxIterations bounds the loop (0 = unbounded).
	MaxIterations int
	// Deadline bounds the search's wall-clock time (0 = none). On
	// expiry the search stops dispatching candidates and returns the
	// best configuration found so far with Report.Stop = StopDeadline —
	// anytime semantics, not an error. A tighter deadline on the
	// caller's context wins.
	Deadline time.Duration
	// Budget bounds the number of candidate evaluations (cache hits
	// included; 0 = unbounded). Like Deadline, exhausting it is an
	// anytime stop (StopBudget), not an error.
	Budget int
	// RootCount is the number of stored documents (default 1).
	RootCount float64
	// Model overrides the optimizer cost model when non-nil.
	Model *optimizer.CostModel
	// Workers bounds the goroutines evaluating candidate configurations
	// per iteration (0 = GOMAXPROCS, 1 = sequential). The outcome is
	// deterministic regardless: ties break on candidate order.
	Workers int
	// Cache memoizes configuration costs across iterations. When nil, the
	// search creates a private cache (still deduplicating re-visited
	// configurations within the run); pass a shared cache to also reuse
	// costs across the greedy/beam strategy variants and repeated runs.
	Cache *CostCache
	// DisableCache turns memoization off entirely (every candidate pays a
	// full evaluator pipeline run, as the paper's prototype did); it is
	// ignored when Cache is non-nil. It is the reference side of
	// TestGreedyDeterministicAcrossWorkersAndCache and of the budget
	// tests, which count evaluations without cache hits.
	DisableCache bool
	// DisableIncremental turns off the evaluator's incremental layers
	// (delta re-mapping, per-query cost reuse, shared subplan costing,
	// materialized-configuration reuse): every evaluation then re-maps
	// the schema and re-translates and re-costs the whole workload
	// block by block. Results are byte-identical either way. It is the
	// reference side of TestIncrementalMatchesFull*, and cmd/bench
	// measures the gain it gives up (the <scenario>_speedup keys of
	// BENCH_search.json, e.g. fig11_speedup).
	DisableIncremental bool
}

// searchCache resolves the cache the search should use (possibly nil).
func (o *Options) searchCache() *CostCache {
	if o.Cache != nil {
		return o.Cache
	}
	if o.DisableCache {
		return nil
	}
	return NewCostCache(0)
}

// searchContext derives the search's context from the caller's: nil is
// promoted to Background, and Options.Deadline attaches a timeout.
func (o *Options) searchContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Deadline > 0 {
		return context.WithTimeout(ctx, o.Deadline)
	}
	return context.WithCancel(ctx)
}

func (o *Options) kinds() []transform.Kind {
	if o.Kinds != nil {
		return o.Kinds
	}
	switch o.Strategy {
	case GreedySO:
		return []transform.Kind{transform.KindInline}
	case GreedySI:
		return []transform.Kind{transform.KindOutline}
	default:
		return transform.AllKinds
	}
}

// Config is one evaluated storage configuration.
type Config struct {
	Schema  *xschema.Schema
	Catalog *relational.Catalog
	Queries []*sqlast.Query
	Cost    float64
}

// Iteration records one step of the greedy loop, for the Figure 10
// convergence plots.
type Iteration struct {
	Cost       float64
	Applied    string
	Candidates int
	Elapsed    time.Duration
	// CacheHits and CacheMisses count how many of this iteration's
	// candidate costings were answered from the cost cache versus paid a
	// full evaluator pipeline run. (With Workers > 1 two workers may race
	// to fill the same entry, so the split can vary slightly between
	// runs; costs and choices never do.)
	CacheHits   int
	CacheMisses int
}

// Result is the outcome of a search.
type Result struct {
	Best        Config
	InitialCost float64
	Trace       []Iteration
	Strategy    Strategy
	// Report says why the search stopped and what it skipped or
	// recovered from along the way.
	Report SearchReport
	// Cache is the cost-cache activity observed during this search (the
	// delta when the cache is shared with other searches).
	Cache CacheStats
	// Evals counts full evaluator pipeline runs (relational mapping +
	// translation + optimizer costing) performed by this search.
	Evals uint64
	// Translations counts per-query translate+cost pipeline runs (one
	// per workload slot that missed the per-query cost cache; with
	// incremental evaluation disabled, one per slot per evaluation).
	Translations uint64
	// QueryCacheHits and QueryCacheMisses count the per-query cost
	// cache's traffic during this search (both zero when incremental
	// evaluation is disabled).
	QueryCacheHits   uint64
	QueryCacheMisses uint64
	// BlocksRequested counts the SPJ block costings translated queries
	// asked the logical-plan layer for during this search;
	// BlocksCosted counts the subset that ran the optimizer — the gap is
	// work absorbed by structural sharing across union branches, queries
	// and candidates. Both zero when sharing is disabled.
	BlocksRequested uint64
	BlocksCosted    uint64
}

// Evaluator costs physical schemas against a fixed workload. It is the
// GetPSchemaCost of Algorithm 4.1.
type Evaluator struct {
	Workload  *xquery.Workload
	RootCount float64
	Model     *optimizer.CostModel
	// Cache, when non-nil, memoizes workload costs keyed by the schema's
	// canonical fingerprint (plus workload and cost-model digests).
	Cache *CostCache
	// DisableIncremental turns off the incremental reuse layers (delta
	// re-mapping, per-query cost cache, shared subplan costing,
	// materialized-configuration cache); every Evaluate then pays the
	// full pipeline. Costs, queries and catalogs are byte-identical
	// either way.
	DisableIncremental bool

	keyOnce    sync.Once
	workloadID uint64
	modelID    uint64
	evals      atomic.Uint64

	// Incremental-layer state (see incremental.go).
	translations   atomic.Uint64
	qhits, qmisses atomic.Uint64
	memoFalls      atomic.Uint64
	// Plan-layer counters (see incremental.go): block costings the plan
	// spaces were asked for, and the subset that missed every memo and
	// ran the optimizer.
	blocksReq    atomic.Uint64
	blocksCosted atomic.Uint64
	localBlocks  plan.Store
	mapperOnce   sync.Once
	mapper       *relational.Mapper
	qdigOnce     sync.Once
	qdigests     []uint64
	localQueries queryStore
	matMu        sync.Mutex
	matCache     map[xschema.Fingerprint]*Config
	matOrder     []xschema.Fingerprint
	// matBest is the cheapest cost remembered so far; rememberConfig
	// drops configurations above it (only iteration winners — cheapest-
	// so-far by construction — are ever materialized).
	matBest float64
	// depPool and digPool recycle per-evaluation scratch (the
	// dependency-state hash memo and the shallow-digest map) across
	// candidates, so the incremental hot path allocates per evaluation
	// only what it returns.
	depPool sync.Pool
	digPool sync.Pool
}

// Evals returns how many full (uncached) evaluations this evaluator ran.
func (e *Evaluator) Evals() uint64 { return e.evals.Load() }

// Translations returns how many per-query translate+cost pipeline runs
// this evaluator paid (per-query cache hits skip them).
func (e *Evaluator) Translations() uint64 { return e.translations.Load() }

// QueryCacheStats returns the per-query cost cache's hit and miss
// counts (zero when incremental evaluation is disabled).
func (e *Evaluator) QueryCacheStats() (hits, misses uint64) {
	return e.qhits.Load(), e.qmisses.Load()
}

// MemoFallbacks returns how many incremental evaluations detected an
// inconsistent memo state and fell back to the full pipeline.
func (e *Evaluator) MemoFallbacks() uint64 { return e.memoFalls.Load() }

// BlockStats returns the logical-plan layer's traffic: block costings
// requested by translated queries, and the subset that actually ran the
// optimizer (the rest replayed a structurally identical block's memoized
// costing). Both zero when sharing or incremental evaluation is off.
func (e *Evaluator) BlockStats() (requested, costed uint64) {
	return e.blocksReq.Load(), e.blocksCosted.Load()
}

// cacheKeyFor builds the cache key for an already-computed schema
// fingerprint, computing the workload and model digests once per
// evaluator. Callers that have the fingerprint in hand (the beam
// search's dedup set) use this to avoid fingerprinting twice.
func (e *Evaluator) cacheKeyFor(fp xschema.Fingerprint) CacheKey {
	e.keyOnce.Do(func() {
		e.workloadID = WorkloadID(e.Workload, e.RootCount)
		e.modelID = ModelID(e.Model)
	})
	return CacheKey{Schema: fp, Workload: e.workloadID, Model: e.modelID}
}

// cacheKey builds the cache key for a p-schema.
func (e *Evaluator) cacheKey(ps *xschema.Schema) CacheKey {
	return e.cacheKeyFor(ps.Fingerprint())
}

// Evaluate maps the p-schema to relations, translates the workload and
// returns the weighted-average estimated cost together with the derived
// configuration. By default the incremental layers reuse unchanged
// per-definition column templates and per-query costs from earlier
// evaluations of this evaluator (byte-identical outcome, see
// incremental.go); DisableIncremental selects the full pipeline. An
// incremental evaluation that detects an inconsistent memo state falls
// back to the full pipeline instead of trusting it (counted by
// MemoFallbacks). Cancelling ctx aborts between pipeline stages.
func (e *Evaluator) Evaluate(ctx context.Context, ps *xschema.Schema) (Config, error) {
	e.evals.Add(1)
	if e.DisableIncremental {
		return e.evaluateFull(ctx, ps)
	}
	cfg, err := e.evaluateIncremental(ctx, ps, false)
	if errors.Is(err, errMemoInconsistent) {
		e.memoFalls.Add(1)
		return e.evaluateFull(ctx, ps)
	}
	return cfg, err
}

// evaluateFull is the non-incremental pipeline: re-map, re-translate
// and re-cost everything.
func (e *Evaluator) evaluateFull(ctx context.Context, ps *xschema.Schema) (Config, error) {
	if err := ctx.Err(); err != nil {
		return Config{}, err
	}
	cat, err := relational.MapWith(ps, relational.Options{RootCount: e.RootCount})
	if err != nil {
		return Config{}, err
	}
	opt := optimizer.New(cat)
	if e.Model != nil {
		opt.Model = *e.Model
	}
	queries := make([]*sqlast.Query, len(e.Workload.Entries))
	weights := make([]float64, len(e.Workload.Entries))
	for i, entry := range e.Workload.Entries {
		if err := ctx.Err(); err != nil {
			return Config{}, err
		}
		sq, err := xquery.Translate(entry.Query, ps, cat)
		if err != nil {
			return Config{}, err
		}
		queries[i] = sq
		weights[i] = entry.Weight
	}
	// Weighted average over queries and update operations together.
	total, wsum := 0.0, 0.0
	for i, q := range queries {
		est, err := opt.QueryCost(q)
		if err != nil {
			return Config{}, err
		}
		e.translations.Add(1)
		total += est.Cost * weights[i]
		wsum += weights[i]
	}
	for _, ue := range e.Workload.Updates {
		targets, err := xquery.ResolveUpdate(ue.Update, ps, cat)
		if err != nil {
			return Config{}, err
		}
		c, err := opt.UpdateCost(ue.Update, targets)
		if err != nil {
			return Config{}, err
		}
		e.translations.Add(1)
		total += c * ue.Weight
		wsum += ue.Weight
	}
	if wsum == 0 {
		return Config{}, fmt.Errorf("core: workload has zero total weight")
	}
	return Config{Schema: ps, Catalog: cat, Queries: queries, Cost: total / wsum}, nil
}

// EvaluateCached costs a p-schema through the evaluator's cache. On a
// hit the returned Config carries only the schema and its cost (Catalog
// and Queries are nil — derive them with Evaluate when the configuration
// is actually chosen); on a miss it runs the full pipeline, memoizes the
// cost, and returns the complete configuration. The boolean reports a
// hit. With a nil cache it degenerates to Evaluate.
//
// Misses are deduplicated singleflight-style across every evaluator
// sharing the cache (the search's own worker pool, sibling searches,
// and — through a CacheRegistry — other engines' searches): the first
// evaluator to arrive at a key runs the pipeline while later arrivals
// block on its outcome and adopt the cost (counted as a dedup, returned
// as a hit). Costs are a pure function of the key, so the adopted value
// is bit-identical to what the waiter would have computed. A waiter
// whose own context is cancelled stops waiting; a leader that fails
// releases its waiters to evaluate independently (the leader's error may
// be private to its context, e.g. a cancelled sibling search).
func (e *Evaluator) EvaluateCached(ctx context.Context, ps *xschema.Schema) (Config, bool, error) {
	if e.Cache == nil {
		cfg, err := e.Evaluate(ctx, ps)
		return cfg, false, err
	}
	return e.evaluateCachedKey(ctx, ps, e.cacheKey(ps))
}

// evaluateCachedFP is EvaluateCached for callers that already computed
// the schema's fingerprint.
func (e *Evaluator) evaluateCachedFP(ctx context.Context, ps *xschema.Schema, fp xschema.Fingerprint) (Config, bool, error) {
	if e.Cache == nil {
		cfg, err := e.Evaluate(ctx, ps)
		return cfg, false, err
	}
	return e.evaluateCachedKey(ctx, ps, e.cacheKeyFor(fp))
}

func (e *Evaluator) evaluateCachedKey(ctx context.Context, ps *xschema.Schema, key CacheKey) (Config, bool, error) {
	if cost, ok := e.Cache.Get(key); ok {
		return Config{Schema: ps, Cost: cost}, true, nil
	}
	call, leader := e.Cache.join(key)
	if !leader {
		select {
		case <-call.done:
			if call.err == nil {
				e.Cache.countDedup()
				return Config{Schema: ps, Cost: call.cost}, true, nil
			}
		case <-ctx.Done():
			return Config{}, false, ctx.Err()
		}
		// The leader failed; evaluate independently under our context.
		cfg, err := e.Evaluate(ctx, ps)
		if err != nil {
			return Config{}, false, err
		}
		e.Cache.Put(key, cfg.Cost)
		return cfg, false, nil
	}
	cfg, err := e.evaluateAsLeader(ctx, ps, key, call)
	if err != nil {
		return Config{}, false, err
	}
	return cfg, false, nil
}

// evaluateAsLeader runs the pipeline for a key this evaluator owns the
// flight for, publishing the outcome (cost or error) to any waiters. The
// deferred finish also fires when the evaluation panics — the search's
// per-candidate isolation recovers the panic above us, and the waiters
// must be released to evaluate for themselves rather than block forever.
func (e *Evaluator) evaluateAsLeader(ctx context.Context, ps *xschema.Schema, key CacheKey, call *flightCall) (cfg Config, err error) {
	published := false
	defer func() {
		if !published {
			e.Cache.finish(key, call, 0, errLeaderAbandoned)
		}
	}()
	cfg, err = e.Evaluate(ctx, ps)
	if err == nil {
		e.Cache.Put(key, cfg.Cost)
	}
	e.Cache.finish(key, call, cfg.Cost, err)
	published = true
	return cfg, err
}

// errLeaderAbandoned is published to singleflight waiters when their
// leader's evaluation panicked out of the pipeline.
var errLeaderAbandoned = errors.New("core: in-flight evaluation abandoned")

// Materialize completes a configuration whose catalog and translated
// queries were skipped by a cache hit. With incremental evaluation on,
// configurations this evaluator fully evaluated before are returned
// from the materialization cache without re-running the pipeline.
func (e *Evaluator) Materialize(ctx context.Context, cfg Config) (Config, error) {
	if cfg.Catalog != nil {
		return cfg, nil
	}
	if e.DisableIncremental {
		return e.Evaluate(ctx, cfg.Schema)
	}
	if hit := e.lookupConfig(cfg.Schema); hit != nil {
		return *hit, nil
	}
	// Evaluate in materialize mode: hit slots whose translation is no
	// longer retained re-translate (their cached costs stand), so the
	// result always carries the complete catalog and query set.
	e.evals.Add(1)
	out, err := e.evaluateIncremental(ctx, cfg.Schema, true)
	if errors.Is(err, errMemoInconsistent) {
		e.memoFalls.Add(1)
		return e.evaluateFull(ctx, cfg.Schema)
	}
	return out, err
}

// GetPSchemaCost returns just the estimated workload cost of a p-schema.
func GetPSchemaCost(ps *xschema.Schema, wkld *xquery.Workload, rootCount float64) (float64, error) {
	return GetPSchemaCostWith(ps, wkld, rootCount, nil, nil)
}

// GetPSchemaCostWith is GetPSchemaCost with an explicit cost model
// (nil = default) and cost cache (nil = uncached).
func GetPSchemaCostWith(ps *xschema.Schema, wkld *xquery.Workload, rootCount float64, model *optimizer.CostModel, cache *CostCache) (float64, error) {
	e := &Evaluator{Workload: wkld, RootCount: rootCount, Model: model, Cache: cache}
	cfg, _, err := e.EvaluateCached(context.Background(), ps)
	if err != nil {
		return 0, err
	}
	return cfg.Cost, nil
}

// InitialSchema builds the starting p-schema for a strategy from an
// annotated schema.
func InitialSchema(s *xschema.Schema, strategy Strategy) (*xschema.Schema, error) {
	switch strategy {
	case GreedySO:
		return pschemaInitialOutlined(s)
	case GreedySI:
		return pschemaAllInlined(s)
	default:
		return pschemaInitialInlined(s)
	}
}

// GreedySearch runs Algorithm 4.1: annotate the schema with statistics,
// build the strategy's initial physical schema, then iteratively apply
// the single cheapest transformation until no candidate improves the
// cost (or the threshold / iteration bound / deadline / budget fires,
// or ctx is cancelled — the anytime stops, which return the best
// configuration found so far rather than an error). A nil ctx is
// treated as context.Background().
func GreedySearch(ctx context.Context, schema *xschema.Schema, wkld *xquery.Workload, stats *xstats.Set, opts Options) (*Result, error) {
	if len(wkld.Entries) == 0 && len(wkld.Updates) == 0 {
		return nil, fmt.Errorf("core: empty workload")
	}
	ctx, cancel := opts.searchContext(ctx)
	defer cancel()
	started := time.Now()
	annotated := schema.Clone()
	if stats != nil {
		if err := xstats.Annotate(annotated, stats); err != nil {
			return nil, fmt.Errorf("core: annotate: %w", err)
		}
	}
	ps, err := InitialSchema(annotated, opts.Strategy)
	if err != nil {
		return nil, fmt.Errorf("core: initial schema: %w", err)
	}
	rootCount := opts.RootCount
	if rootCount == 0 {
		rootCount = 1
	}
	cache := opts.searchCache()
	eval := &Evaluator{Workload: wkld, RootCount: rootCount, Model: opts.Model, Cache: cache,
		DisableIncremental: opts.DisableIncremental}
	cacheStart := cache.Stats()
	// The initial configuration is evaluated before anytime semantics
	// kick in: without it there is no best-so-far to return. (A context
	// cancelled this early is a genuine error.)
	best, _, err := eval.EvaluateCached(ctx, ps)
	if err != nil {
		return nil, fmt.Errorf("core: evaluate initial schema: %w", err)
	}
	st := newSearchState(ctx, opts.Budget)
	result := &Result{InitialCost: best.Cost, Strategy: opts.Strategy}
	tropts := transform.Options{Kinds: opts.kinds(), WildcardLabels: opts.WildcardLabels}

	stop := StopConverged
	for iter := 0; ; iter++ {
		if opts.MaxIterations > 0 && iter >= opts.MaxIterations {
			stop = StopMaxIterations
			break
		}
		if err := ctx.Err(); err != nil {
			stop = st.stopFor(err)
			break
		}
		if st.exhausted() {
			stop = StopBudget
			break
		}
		start := time.Now()
		cands := transform.Candidates(best.Schema, tropts)
		results, hits, misses := evaluateCandidates(st, best.Schema, cands, eval, opts.Workers)
		var bestCand Config
		bestCand.Cost = best.Cost
		applied := ""
		for i, cfg := range results {
			if cfg != nil && cfg.Cost < bestCand.Cost {
				bestCand = *cfg
				applied = cands[i].String()
			}
		}
		if applied == "" {
			// No improving candidate. If the iteration was cut short the
			// move space was not exhausted — report the interruption, not
			// convergence.
			switch {
			case ctx.Err() != nil:
				stop = st.stopFor(ctx.Err())
			case st.exhausted():
				stop = StopBudget
			}
			break
		}
		// The winner's catalog may have been skipped by a cache hit;
		// derive it now (one pipeline run instead of one per candidate).
		// An interrupted materialization keeps the previous best (its
		// catalog is already derived or re-derivable) — anytime
		// semantics over a half-applied winner.
		bestCand, err = eval.Materialize(ctx, bestCand)
		if err != nil {
			if ctx.Err() != nil {
				stop = st.stopFor(ctx.Err())
				break
			}
			st.recordError(applied, "materialize", err)
			break
		}
		improvement := (best.Cost - bestCand.Cost) / best.Cost
		best = bestCand
		result.Trace = append(result.Trace, Iteration{
			Cost:        best.Cost,
			Applied:     applied,
			Candidates:  len(cands),
			Elapsed:     time.Since(start),
			CacheHits:   hits,
			CacheMisses: misses,
		})
		if opts.Threshold > 0 && improvement < opts.Threshold {
			stop = StopThreshold
			break
		}
	}
	// The best configuration's catalog may still be missing when the
	// initial evaluation hit the cache and no iteration improved on it.
	// Materialize detached from the search context: an expired deadline
	// must not cost the caller the configuration the search already
	// earned.
	result.Best, err = eval.Materialize(context.Background(), best)
	if err != nil {
		return nil, fmt.Errorf("core: materialize best: %w", err)
	}
	result.Report = st.report(stop, len(result.Trace), eval, time.Since(started))
	result.Cache = cache.Stats().Sub(cacheStart)
	result.Report.Cache = result.Cache
	result.Evals = eval.Evals()
	result.Translations = eval.Translations()
	result.QueryCacheHits, result.QueryCacheMisses = eval.QueryCacheStats()
	result.BlocksRequested, result.BlocksCosted = eval.BlockStats()
	return result, nil
}

// evaluateCandidates applies and costs every candidate transformation of
// one schema, fanning out across workers. The result slice is indexed
// like cands; inapplicable or unanswerable candidates are nil (skipped,
// as the paper's engine does, with failures recorded in the search
// state). It also reports how many costings were cache hits and misses.
// Cancellation stops the dispatch loop; workers always drain and the
// WaitGroup always settles, even when a candidate's evaluation panics.
func evaluateCandidates(st *searchState, base *xschema.Schema, cands []transform.Transformation, eval *Evaluator, workers int) ([]*Config, int, int) {
	results := make([]*Config, len(cands))
	var hits, misses atomic.Int64
	if workers == 1 || len(cands) <= 1 {
		for i := range cands {
			results[i] = evaluateOne(st, base, cands[i], eval, &hits, &misses)
		}
		return results, int(hits.Load()), int(misses.Load())
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	// Prefill a buffered channel and close it: workers pull indices with
	// no dispatcher goroutine in the loop. The old unbuffered dispatch
	// serialized the pool on a rendezvous per candidate, which the
	// worker-scaling benchmark exposed as a flat spot at high worker
	// counts. Cancellation is handled by st.take() inside evaluateOne —
	// every candidate pulled after the context dies is counted skipped,
	// preserving the report's accounting.
	var wg sync.WaitGroup
	next := make(chan int, len(cands))
	for i := range cands {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = evaluateOne(st, base, cands[i], eval, &hits, &misses)
			}
		}()
	}
	wg.Wait()
	return results, int(hits.Load()), int(misses.Load())
}

// evaluateOne applies and costs a single candidate. Every failure mode
// — transformation error, evaluation error, worker panic — converts to
// a nil result plus a CandidateError in the search state; nothing
// escapes to the worker goroutine.
func evaluateOne(st *searchState, base *xschema.Schema, tr transform.Transformation, eval *Evaluator, hits, misses *atomic.Int64) (out *Config) {
	if !st.take() {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			st.recordPanic(tr.String(), "evaluate", r, debug.Stack())
			out = nil
		}
	}()
	nextSchema, err := transform.Apply(base, tr)
	if err != nil {
		st.recordError(tr.String(), "apply", err)
		return nil
	}
	cfg, hit, err := eval.EvaluateCached(st.ctx, nextSchema)
	if err != nil {
		// A cancellation mid-evaluation is a skip, not a failure.
		if st.ctx.Err() == nil {
			st.recordError(tr.String(), "evaluate", err)
		}
		return nil
	}
	if hit {
		hits.Add(1)
	} else {
		misses.Add(1)
	}
	return &cfg
}
