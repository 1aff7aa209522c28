package legodb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"legodb/internal/imdb"
)

// sortedRows renders a result's rows in sorted order, so results are
// compared as multisets whatever join order produced them.
func sortedRows(r *Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = fmt.Sprint(row)
	}
	sort.Strings(out)
	return out
}

// TestPrepareReusesQueryByText: preparing the same text again returns
// the same PreparedQuery, with its translation and plan.
func TestPrepareReusesQueryByText(t *testing.T) {
	store, _ := advisedStore(t)
	const q = `FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/year`
	p1, err := store.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := store.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("the same query text prepared twice returned two PreparedQuerys")
	}
	other, err := store.Prepare(`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title`)
	if err != nil {
		t.Fatal(err)
	}
	if other == p1 {
		t.Fatal("different query texts share a PreparedQuery")
	}
}

// TestPreparedMapStaysBounded: however many distinct texts are prepared,
// the reuse map never holds more than preparedCap entries.
func TestPreparedMapStaysBounded(t *testing.T) {
	store, _ := advisedStore(t)
	for i := 0; i < 2*preparedCap+7; i++ {
		if _, err := store.Prepare(fmt.Sprintf(`FOR $v IN imdb/show WHERE $v/year = %d RETURN $v/title`, i)); err != nil {
			t.Fatal(err)
		}
		store.prepMu.Lock()
		n := len(store.prepared)
		store.prepMu.Unlock()
		if n > preparedCap {
			t.Fatalf("after %d texts the map holds %d entries, bound %d", i+1, n, preparedCap)
		}
	}
}

// TestPreparedQueryReplansAcrossMigration: a query prepared (and so
// cached) against the old configuration re-plans after a live migration
// and returns the same rows as a store freshly opened on the new
// configuration.
func TestPreparedQueryReplansAcrossMigration(t *testing.T) {
	_, store, target := migrationFixture(t, 20)
	const q = `FOR $i IN imdb, $a IN $i/actor, $m1 IN $a/played,
	               $d IN $i/director, $m2 IN $d/directed
	           WHERE $a/name = $d/name AND $m1/title = $m2/title
	           RETURN $a/name, $m1/title, $m1/year`
	pq, err := store.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Run(nil); err != nil {
		t.Fatal(err)
	}
	oldPlan := pq.plan
	if _, err := store.MigrateTo(target, MigrateOptions{TablesPerGroup: 2}); err != nil {
		t.Fatal(err)
	}
	cached, err := store.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if cached != pq {
		t.Fatal("migration dropped the prepared query from the reuse map")
	}
	got, err := cached.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if pq.plan == oldPlan || pq.cat != store.catalog {
		t.Fatal("prepared query was not re-planned against the migrated configuration")
	}

	fresh, err := target.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Load(imdb.Generate(imdb.GenOptions{Shows: 20, Seed: 7})); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sortedRows(got)) != fmt.Sprint(sortedRows(want)) {
		t.Fatalf("migrated store returns %d rows, fresh store %d", len(got.Rows), len(want.Rows))
	}
}

// TestPrepareAndRunRaceMigration: goroutines preparing and running one
// text while a migration swaps the configuration see no errors, and all
// of them share the one cached PreparedQuery. Run under -race in CI.
func TestPrepareAndRunRaceMigration(t *testing.T) {
	_, store, target := migrationFixture(t, 20)
	const q = `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title`
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen = map[*PreparedQuery]bool{}
	)
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pq, err := store.Prepare(q)
				if err == nil {
					mu.Lock()
					seen[pq] = true
					mu.Unlock()
					_, err = pq.Run(Params{"c1": fmt.Sprint(1990 + (g*31+i)%20)})
				}
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(g)
	}
	_, err := store.MigrateTo(target, MigrateOptions{TablesPerGroup: 2})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		t.Fatalf("prepare/run during migration: %v", err)
	default:
	}
	// Concurrent first Prepares may each build a PreparedQuery before one
	// lands in the map; after that everyone shares it.
	final, err := store.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if !seen[final] && len(seen) > 0 {
		t.Error("the cached PreparedQuery was replaced during the run")
	}
}

// TestExplainOutput: ExplainQuery prints the translated SQL and the plan
// the engine executes — the start relation, then each step's method and
// join key — with the optimizer's estimates per block and in total.
func TestExplainOutput(t *testing.T) {
	_, store, _ := migrationFixture(t, 5)
	out, err := store.ExplainQuery(`FOR $i IN imdb, $a IN $i/actor, $m1 IN $a/played,
	    $d IN $i/director, $m2 IN $d/directed
	    WHERE $a/name = $d/name AND $m1/title = $m2/title
	    RETURN $a/name, $m1/title, $m1/year`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SELECT", "block 1: estimated cost", "  scan ", " on ", "then filter", "total: estimated cost"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ExplainQuery lacks %q:\n%s", want, out)
		}
	}
	t.Log(out)
}
