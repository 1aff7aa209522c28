package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"legodb/internal/faults"
	"legodb/internal/imdb"
	"legodb/internal/xquery"
	"legodb/internal/xstats"
)

// warmInitialCost puts the strategy's initial-schema cost into the
// cache, reproducing exactly what GreedySearch evaluates first, so a
// fault armed before the search fires on a candidate evaluation rather
// than on the (unguarded, pre-anytime) initial one.
func warmInitialCost(t *testing.T, strategy Strategy, wkld *xquery.Workload, cache *CostCache) {
	t.Helper()
	annotated := imdb.Schema().Clone()
	if err := xstats.Annotate(annotated, imdb.Stats()); err != nil {
		t.Fatal(err)
	}
	ps, err := InitialSchema(annotated, strategy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GetPSchemaCostWith(ps, wkld, 1, nil, cache); err != nil {
		t.Fatal(err)
	}
}

// finalSignature renders just the search's outcome (winning cost and
// schema), ignoring the trajectory — transient faults may reorder the
// applied moves without changing where greedy converges.
func finalSignature(res *Result) string {
	return fmt.Sprintf("%x\n%s", res.Best.Cost, res.Best.Schema.String())
}

// TestInjectedPanicIsIsolatedFromSearch: a candidate whose relational
// mapping panics is recorded and skipped; the search terminates, the
// worker pool settles, and the winner matches the fault-free run.
func TestInjectedPanicIsIsolatedFromSearch(t *testing.T) {
	opts := func(cache *CostCache) Options {
		return Options{Strategy: GreedySO, Workers: 1, Cache: cache, DisableIncremental: true}
	}
	baseline, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts(NewCostCache(0)))
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCostCache(0)
	warmInitialCost(t, GreedySO, imdb.LookupWorkload(), cache)
	restore := faults.Enable(faults.SiteMap, 1, true)
	defer restore()
	res, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts(cache))
	if err != nil {
		t.Fatalf("search with an injected panic returned error: %v", err)
	}
	if hits := faults.Hits(faults.SiteMap); hits != 1 {
		t.Fatalf("failpoint fired %d times, want 1 (did the initial evaluation hit the cache?)", hits)
	}
	if res.Report.Failed != 1 {
		t.Fatalf("report.Failed = %d, want 1", res.Report.Failed)
	}
	ce := res.Report.Errors[0]
	if !ce.Panic || ce.Stage != "evaluate" || ce.Stack == "" {
		t.Fatalf("candidate error does not describe a recovered evaluation panic: %+v", ce)
	}
	if got, want := finalSignature(res), finalSignature(baseline); got != want {
		t.Fatalf("fault-injected search diverged from the fault-free winner:\n got %s\nwant %s", got, want)
	}
}

// TestTransientFaultsConvergeToFaultFreeWinner: error-mode faults that
// poison the first few candidate translations are skipped; the moves
// are regenerated on later iterations and greedy converges to the same
// winner as the fault-free baseline.
func TestTransientFaultsConvergeToFaultFreeWinner(t *testing.T) {
	opts := func(cache *CostCache) Options {
		return Options{Strategy: GreedySO, Workers: 1, Cache: cache, DisableIncremental: true}
	}
	baseline, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts(NewCostCache(0)))
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCostCache(0)
	warmInitialCost(t, GreedySO, imdb.LookupWorkload(), cache)
	restore := faults.Enable(faults.SiteTranslate, 3, false)
	defer restore()
	res, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts(cache))
	if err != nil {
		t.Fatalf("search with transient faults returned error: %v", err)
	}
	if hits := faults.Hits(faults.SiteTranslate); hits != 3 {
		t.Fatalf("failpoint fired %d times, want 3", hits)
	}
	if res.Report.Failed != 3 {
		t.Fatalf("report.Failed = %d, want 3", res.Report.Failed)
	}
	for _, ce := range res.Report.Errors {
		if ce.Panic || ce.Stage != "evaluate" {
			t.Fatalf("unexpected candidate error: %+v", ce)
		}
	}
	if got, want := finalSignature(res), finalSignature(baseline); got != want {
		t.Fatalf("fault-injected search diverged from the fault-free winner:\n got %s\nwant %s", got, want)
	}
}

// TestMemoInconsistencyFallsBackToFullEvaluation: an inconsistent
// incremental memo state (forced via the core.memo failpoint) makes
// every evaluation fall back to the full pipeline — counted in the
// report, byte-identical outcome.
func TestMemoInconsistencyFallsBackToFullEvaluation(t *testing.T) {
	opts := Options{Strategy: GreedySO, Workers: 1, DisableCache: true}
	baseline, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts)
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Enable(faults.SiteMemo, -1, false)
	defer restore()
	res, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), opts)
	if err != nil {
		t.Fatalf("search with a poisoned memo returned error: %v", err)
	}
	if res.Report.MemoFallbacks == 0 {
		t.Fatal("no memo fallbacks counted")
	}
	if res.Report.Failed != 0 {
		t.Fatalf("fallbacks must not count as failures: Failed = %d", res.Report.Failed)
	}
	if got, want := resultSignature(res), resultSignature(baseline); got != want {
		t.Fatalf("fallback evaluation diverged from the incremental baseline:\n got %s\nwant %s", got, want)
	}
}

// TestAnnotateFaultFailsSearch: the statistics annotation runs once,
// before the initial configuration exists, so a fault there has no
// best-so-far to fall back on — greedy and beam search both return an
// error wrapping the injected fault instead of panicking.
func TestAnnotateFaultFailsSearch(t *testing.T) {
	searches := map[string]func() (*Result, error){
		"greedy": func() (*Result, error) {
			return GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(),
				Options{Strategy: GreedySO})
		},
		"beam": func() (*Result, error) {
			return BeamSearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(),
				BeamOptions{Options: Options{Strategy: GreedySO}, Width: 3})
		},
	}
	for name, search := range searches {
		restore := faults.Enable(faults.SiteAnnotate, 1, false)
		res, err := search()
		hits := faults.Hits(faults.SiteAnnotate)
		restore()
		if !errors.Is(err, faults.ErrInjected) {
			t.Errorf("%s: want an error wrapping faults.ErrInjected, got result %v, error %v", name, res, err)
		}
		if hits != 1 {
			t.Errorf("%s: annotate failpoint fired %d times, want 1", name, hits)
		}
	}
}
