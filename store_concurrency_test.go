package legodb

import (
	"fmt"
	"sync"
	"testing"

	"legodb/internal/imdb"
)

// TestStoreConcurrentQueriesAndMutations hammers one store from reader
// goroutines (ad-hoc queries, prepared runs, publishing, stats) racing
// writer goroutines (child inserts, cascading deletes, extra document
// loads, executor-mode flips). Run under -race in CI: the store's
// readers-writer lock must make every interleaving safe, and every
// operation must succeed — mutations wait for queries, never corrupt
// them.
func TestStoreConcurrentQueriesAndMutations(t *testing.T) {
	eng, err := New(imdb.SchemaText)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetStatisticsText(imdb.StatsText); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddQuery("lookup",
		`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`, 1); err != nil {
		t.Fatal(err)
	}
	advice, err := eng.EvaluateFixed("all-inlined")
	if err != nil {
		t.Fatal(err)
	}
	store, err := advice.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Load(imdb.Generate(imdb.GenOptions{Shows: 40, Seed: 21})); err != nil {
		t.Fatal(err)
	}

	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	report := func(op string, err error) {
		if err != nil {
			select {
			case errs <- fmt.Errorf("%s: %w", op, err):
			default:
			}
		}
	}

	// Readers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pq, err := store.Prepare(`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title`)
			if err != nil {
				report("Prepare", err)
				return
			}
			for i := 0; i < iters; i++ {
				year := fmt.Sprint(1990 + (g*iters+i)%20)
				if _, err := store.Query(
					`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title, $v/year`,
					Params{"c1": year}); err != nil {
					report("Query", err)
				}
				if _, err := pq.Run(Params{"c1": year}); err != nil {
					report("Run", err)
				}
				store.Measured()
				if store.TotalRows() <= 0 {
					report("TotalRows", fmt.Errorf("no rows while serving"))
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/5; i++ {
			if _, err := store.Publish(); err != nil {
				report("Publish", err)
			}
		}
	}()

	// Writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := store.InsertChild(
				`FOR $s IN imdb/show WHERE $s/year = c1 RETURN $s`,
				Params{"c1": fmt.Sprint(1990 + i%20)},
				fmt.Sprintf(`<aka>alias %d</aka>`, i)); err != nil {
				report("InsertChild", err)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/5; i++ {
			if _, err := store.DeleteWhere(
				`FOR $s IN imdb/show WHERE $s/year = c1 RETURN $s`,
				Params{"c1": fmt.Sprint(1890 + i)}); err != nil { // years outside the data: cheap no-op deletes
				report("DeleteWhere", err)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/5; i++ {
			if err := store.Load(imdb.Generate(imdb.GenOptions{Shows: 2, Seed: int64(100 + i)})); err != nil {
				report("Load", err)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			setRowAtATimeExec(store, i%2 == 1)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	setRowAtATimeExec(store, false)
	res, err := store.Query(`FOR $v IN imdb/show RETURN $v/title`, nil)
	if err != nil {
		t.Fatalf("query after hammering: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("store empty after hammering")
	}
}
