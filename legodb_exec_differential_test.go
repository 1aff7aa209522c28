package legodb

import (
	"testing"

	"legodb/internal/engine"
	"legodb/internal/imdb"
	"legodb/internal/xmltree"
)

// setRowAtATimeExec switches a store's executor between the default
// vectorized batch implementation (false) and the reference
// row-at-a-time iterator (true), the baseline the differential tests
// compare the batch executor against.
func setRowAtATimeExec(s *Store, on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.db.Exec = engine.Options{RowAtATime: on}
}

// Store-level batch-vs-rows differential: two stores opened from the
// same advice and loaded with the same document, one on the vectorized
// batch executor and one on the reference row-at-a-time path, driven
// through the same script of queries and mutations (DeleteWhere's
// target scan and cascade, InsertChild's parent scan). After every step
// the results, per-table live row counts and accumulated engine
// counters must agree exactly.
func TestStoreExecutorsDifferential(t *testing.T) {
	eng, err := New(imdb.SchemaText)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetStatisticsText(imdb.Stats().String()); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddQuery("q", `FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/title, $v/year`, 1); err != nil {
		t.Fatal(err)
	}
	advice, err := eng.Advise(AdviseOptions{Strategy: GreedySI, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	open := func(rowAtATime bool) (*Store, *xmltree.Node) {
		store, err := advice.Open()
		if err != nil {
			t.Fatal(err)
		}
		setRowAtATimeExec(store, rowAtATime)
		doc := imdb.Generate(imdb.GenOptions{Shows: 40, Seed: 13})
		if err := store.Load(doc); err != nil {
			t.Fatal(err)
		}
		return store, doc
	}
	batch, doc := open(false)
	rows, _ := open(true)

	titles := doc.Path("show", "title")
	title0, title1 := titles[0].Text, titles[1].Text
	year := doc.Path("show", "year")[0].Text

	queries := []struct {
		name, src string
		params    Params
	}{
		{"lookup-title", `FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/title, $v/year`, Params{"c1": title0}},
		{"lookup-year", `FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title`, Params{"c1": year}},
		{"publish-shows", `FOR $v IN imdb/show RETURN $v`, nil},
		{"episodes", `FOR $v IN imdb/show RETURN <r> $v/title FOR $e IN $v/episodes WHERE $e/guest_director = c4 RETURN $e/name </r>`, Params{"c4": "nobody"}},
	}

	compareState := func(t *testing.T, step string) {
		t.Helper()
		for _, name := range batch.Tables() {
			if got, want := batch.TableRows(name), rows.TableRows(name); got != want {
				t.Errorf("%s: table %s: batch=%d rows=%d live rows", step, name, got, want)
			}
		}
		if batch.Measured() != rows.Measured() {
			t.Errorf("%s: counters diverge:\n batch=%+v\n rows =%+v", step, batch.Measured(), rows.Measured())
		}
	}
	runQueries := func(t *testing.T, step string) {
		t.Helper()
		for _, q := range queries {
			rb, errB := batch.Query(q.src, q.params)
			rr, errR := rows.Query(q.src, q.params)
			if (errB != nil) != (errR != nil) {
				t.Fatalf("%s/%s: error mismatch: batch=%v rows=%v", step, q.name, errB, errR)
			}
			if errB != nil {
				continue
			}
			if len(rb.Rows) != len(rr.Rows) {
				t.Fatalf("%s/%s: batch=%d rows=%d result rows", step, q.name, len(rb.Rows), len(rr.Rows))
			}
			seen := make(map[string]int, len(rr.Rows))
			for _, r := range rr.Rows {
				seen[rowKey(r)]++
			}
			for _, r := range rb.Rows {
				k := rowKey(r)
				if seen[k] == 0 {
					t.Fatalf("%s/%s: batch row %v missing from rows result", step, q.name, r)
				}
				seen[k]--
			}
		}
		compareState(t, step)
	}

	runQueries(t, "loaded")

	for _, st := range []*Store{batch, rows} {
		if n, err := st.InsertChild(
			`FOR $s IN imdb/show WHERE $s/title = c1 RETURN $s`,
			Params{"c1": title0}, `<aka>Alias</aka>`); err != nil || n == 0 {
			t.Fatalf("InsertChild: n=%d err=%v", n, err)
		}
	}
	runQueries(t, "after-insert")

	deleted := make([]int, 0, 2)
	for _, st := range []*Store{batch, rows} {
		n, err := st.DeleteWhere(
			`FOR $s IN imdb/show WHERE $s/title = c1 RETURN $s`, Params{"c1": title1})
		if err != nil || n == 0 {
			t.Fatalf("DeleteWhere: n=%d err=%v", n, err)
		}
		deleted = append(deleted, n)
	}
	if deleted[0] != deleted[1] {
		t.Fatalf("DeleteWhere removed %d rows on batch, %d on rows", deleted[0], deleted[1])
	}
	runQueries(t, "after-delete")

	// Both stores publish the same canonical documents after the script.
	db, err := batch.Publish()
	if err != nil {
		t.Fatal(err)
	}
	dr, err := rows.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if len(db) != len(dr) {
		t.Fatalf("published %d vs %d documents", len(db), len(dr))
	}
	for i := range db {
		if !xmltree.EqualCanonical(db[i], dr[i]) {
			t.Fatalf("published document %d diverges between executors", i)
		}
	}
}

func rowKey(cells []string) string {
	k := ""
	for _, c := range cells {
		k += "|" + c
	}
	return k
}
