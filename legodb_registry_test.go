package legodb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func fleetSchemaText() string {
	return strings.Replace(tinySchema, "description[ String ] ]", "description[ String ]", 1)
}

// fleetVariants are the tenant workloads of the differential fleet: the
// first two tenants share most of their search space (same schema, one
// extra query), the third is publish-heavy.
var fleetVariants = [][]struct {
	name, text string
	weight     float64
}{
	{
		{"lookup", `FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/year`, 1},
	},
	{
		{"lookup", `FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/year`, 0.6},
		{"byyear", `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title`, 0.4},
	},
	{
		{"publish", `FOR $v IN imdb/show RETURN $v`, 1},
	},
}

func fleetEngineAt(t *testing.T, r *Registry, variant int) *Engine {
	t.Helper()
	e, err := NewWithOptions(fleetSchemaText(), Options{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetStatisticsText(tinyStats); err != nil {
		t.Fatal(err)
	}
	for _, q := range fleetVariants[variant] {
		if err := e.AddQuery(q.name, q.text, q.weight); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestFleetDifferentialRegistryOnOff is the safety contract of the
// cross-engine registry: sharing a cost cache across a fleet must change
// nothing about what each tenant's search decides. For greedy and beam,
// sequential and parallel costing, a fleet advised through one registry
// must produce byte-identical winners, traces and DDL to the same fleet
// advised with private caches.
func TestFleetDifferentialRegistryOnOff(t *testing.T) {
	advise := func(r *Registry, beam, workers int) []string {
		var out []string
		for v := range fleetVariants {
			e := fleetEngineAt(t, r, v)
			a, err := e.Advise(AdviseOptions{
				Strategy: GreedySO, BeamWidth: beam, Workers: workers,
			})
			if err != nil {
				t.Fatalf("variant %d (beam=%d workers=%d): %v", v, beam, workers, err)
			}
			out = append(out,
				a.PSchema(),
				a.DDL(),
				fmt.Sprintf("%v", a.Trace()),
				fmt.Sprintf("%.6f", a.Cost()),
			)
		}
		return out
	}
	for _, beam := range []int{0, 3} {
		for _, workers := range []int{1, 8} {
			off := advise(nil, beam, workers)
			on := advise(NewRegistry(), beam, workers)
			for i := range off {
				if off[i] != on[i] {
					t.Fatalf("beam=%d workers=%d: registry changed outcome %d:\n--- off ---\n%s\n--- on ---\n%s",
						beam, workers, i, off[i], on[i])
				}
			}
		}
	}
}

// TestRegistrySecondEngineHitRate: a second tenant with the same schema
// and workload as the first must answer at least half of its costings
// from the fleet cache the first tenant warmed.
func TestRegistrySecondEngineHitRate(t *testing.T) {
	r := NewRegistry()
	e1 := fleetEngineAt(t, r, 0)
	e2 := fleetEngineAt(t, r, 0)
	a1, err := e1.Advise(AdviseOptions{Strategy: GreedySO})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e2.Advise(AdviseOptions{Strategy: GreedySO})
	if err != nil {
		t.Fatal(err)
	}
	if a1.DDL() != a2.DDL() || a1.Cost() != a2.Cost() {
		t.Fatal("identical tenants advised different configurations")
	}
	st := a2.CacheStats()
	if ratio := st.HitRatio(); ratio < 0.5 {
		t.Fatalf("second tenant hit ratio = %.2f (%d hits, %d misses), want ≥ 0.5",
			ratio, st.Hits, st.Misses)
	}
	rs := r.Stats()
	if rs.Engines != 2 {
		t.Fatalf("registry reports %d engines, want 2", rs.Engines)
	}
	if rs.Cache.Hits == 0 {
		t.Fatal("fleet-wide counters recorded no hits")
	}
	if e2.CacheStats().Hits != st.Hits {
		t.Fatalf("engine cumulative hits %d != advice delta hits %d",
			e2.CacheStats().Hits, st.Hits)
	}
}

// TestFleetConcurrentBaselineSingleflight: M tenants concurrently
// costing the identical baseline through one registry must perform the
// work once — one cache entry appears, and every non-leader is answered
// by a hit or a singleflight dedup.
func TestFleetConcurrentBaselineSingleflight(t *testing.T) {
	const M = 6
	r := NewRegistry()
	engines := make([]*Engine, M)
	for i := range engines {
		engines[i] = fleetEngineAt(t, r, 0)
	}
	start := r.Stats().Cache

	costs := make([]float64, M)
	var barrier, done sync.WaitGroup
	barrier.Add(1)
	for i := range engines {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			barrier.Wait()
			a, err := engines[i].EvaluateFixed("all-inlined")
			if err != nil {
				t.Errorf("engine %d: %v", i, err)
				return
			}
			costs[i] = a.Cost()
		}(i)
	}
	barrier.Done()
	done.Wait()

	for i := 1; i < M; i++ {
		if costs[i] != costs[0] {
			t.Fatalf("engine %d costed %g, engine 0 costed %g", i, costs[i], costs[0])
		}
	}
	delta := r.Stats().Cache.Sub(start)
	if delta.Entries != 1 {
		t.Fatalf("fleet stored %d cache entries for one configuration", delta.Entries)
	}
	if delta.Hits+delta.Dedups != M-1 {
		t.Fatalf("hits %d + dedups %d != %d non-leaders (delta %+v)",
			delta.Hits, delta.Dedups, M-1, delta)
	}
}

// TestEngineSettersRaceAdvise is the -race proof of the Engine
// concurrency contract: setters mutating the description while searches
// snapshot it must neither race nor corrupt either side.
func TestEngineSettersRaceAdvise(t *testing.T) {
	e := fleetEngineAt(t, nil, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := e.AddQuery(fmt.Sprintf("extra%d", i),
				`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title`, 0.05); err != nil {
				t.Errorf("AddQuery: %v", err)
			}
			if err := e.SetStatisticsText(tinyStats); err != nil {
				t.Errorf("SetStatisticsText: %v", err)
			}
			e.CacheStats()
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				a, err := e.Advise(AdviseOptions{Strategy: GreedySO, MaxIterations: 2})
				if err != nil {
					t.Errorf("Advise: %v", err)
					return
				}
				if a.Cost() <= 0 {
					t.Errorf("cost = %g", a.Cost())
				}
			}
		}()
	}
	wg.Wait()
}

// TestEvaluateFixedDocumentsAndStats regresses the two EvaluateFixed
// bugs: the document count was hardcoded to 1, and the returned Advice
// dropped the statistics the costing was computed from.
func TestEvaluateFixedDocumentsAndStats(t *testing.T) {
	e := fleetEngineAt(t, nil, 2)
	base, err := e.EvaluateFixed("all-inlined")
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := e.EvaluateFixed("all-inlined", AdviseOptions{Documents: 50})
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Cost() <= base.Cost() {
		t.Fatalf("50 documents cost %g, not above single-document cost %g",
			scaled.Cost(), base.Cost())
	}
	if base.stats == nil || scaled.stats == nil {
		t.Fatal("EvaluateFixed dropped the engine statistics from the Advice")
	}
	// Repeating a baseline hits the engine cache; Documents is part of
	// the key, so the two baselines never cross-hit.
	again, err := e.EvaluateFixed("all-inlined", AdviseOptions{Documents: 50})
	if err != nil {
		t.Fatal(err)
	}
	if again.Cost() != scaled.Cost() {
		t.Fatalf("repeated baseline costed %g, first run %g", again.Cost(), scaled.Cost())
	}
	if st := again.CacheStats(); st.Hits == 0 {
		t.Fatalf("repeated baseline missed the engine cache: %+v", st)
	}
}
