package core

import (
	"context"
	"testing"

	"legodb/internal/imdb"
	"legodb/internal/xquery"
)

// TestPlanSharingDifferential: shared subplan costing must engage on
// the default search path (fewer block costings run than requested)
// across strategies, workloads and worker counts. The differential half
// — shared costs equal to unshared ones — is carried by
// TestIncrementalMatchesFullEvaluation, whose full path costs every
// block through the optimizer directly, and by
// plan.TestSpaceMatchesQueryCost.
func TestPlanSharingDifferential(t *testing.T) {
	for _, strategy := range []Strategy{GreedySO, GreedySI} {
		for _, wl := range []struct {
			name string
			make func() *xquery.Workload
		}{
			{"lookup", imdb.LookupWorkload},
			{"publish", imdb.PublishWorkload},
		} {
			for _, workers := range []int{1, 8} {
				res, err := GreedySearch(context.Background(), imdb.Schema(), wl.make(), imdb.Stats(), Options{
					Strategy: strategy, Workers: workers, Cache: NewCostCache(0),
				})
				if err != nil {
					t.Fatalf("%v/%s/workers=%d: %v", strategy, wl.name, workers, err)
				}
				if res.BlocksCosted >= res.BlocksRequested {
					t.Errorf("%v/%s/workers=%d: sharing never engaged: %d costed of %d requested",
						strategy, wl.name, workers, res.BlocksCosted, res.BlocksRequested)
				}
			}
		}
	}
}

// TestBeamSharingDifferential mirrors TestPlanSharingDifferential for
// beam search at width 3; TestIncrementalMatchesFullBeam
// carries the differential half.
func TestBeamSharingDifferential(t *testing.T) {
	res, err := BeamSearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), BeamOptions{
		Options: Options{Strategy: GreedySO, Cache: NewCostCache(0)},
		Width:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksCosted >= res.BlocksRequested {
		t.Errorf("beam search never shared a block: %d costed of %d requested",
			res.BlocksCosted, res.BlocksRequested)
	}
}

// TestSharingCountersReachReport: the search report must carry the
// block-sharing counters so cmd/bench and cmd/experiments can surface
// them.
func TestSharingCountersReachReport(t *testing.T) {
	res, err := GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(), Options{
		Strategy: GreedySO, Cache: NewCostCache(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksRequested == 0 {
		t.Fatal("no blocks routed through the plan layer on a default search")
	}
	if res.BlocksCosted == 0 || res.BlocksCosted >= res.BlocksRequested {
		t.Fatalf("implausible sharing counters: %d costed of %d requested", res.BlocksCosted, res.BlocksRequested)
	}
}
