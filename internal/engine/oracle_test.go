package engine_test

import (
	"context"
	"strings"
	"testing"

	"legodb/internal/core"
	"legodb/internal/engine"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
)

// This file is the plan-independent result oracle: a brute-force
// evaluator that knows nothing of start relations, join orders, join
// methods or indexes. Both executors must return exactly its rows.

// bruteForce evaluates a query by definition: per block, the cross
// product of its aliases' live rows, kept where every predicate holds
// (constant and same-alias filters, declared joins, cross-alias
// comparisons), then projected; the blocks' rows are unioned and padded
// with NULL to the widest block. The product is enumerated in FROM order
// and each predicate is checked as soon as all its aliases are bound,
// which prunes the enumeration without changing its result.
func bruteForce(t *testing.T, db *engine.Database, q *sqlast.Query, params engine.Params) []string {
	t.Helper()
	var rows []engine.Row
	width := 0
	for _, b := range q.Blocks {
		block := bruteForceBlock(t, db, b, params)
		rows = append(rows, block...)
		width = max(width, len(b.Projects), 1)
	}
	for i, r := range rows {
		for len(r) < width {
			r = append(r, engine.Null)
		}
		rows[i] = r
	}
	return rowMultiset(&engine.ResultSet{Rows: rows})
}

// oraclePred is one predicate of a block: it can be checked once every
// alias in aliases is bound.
type oraclePred struct {
	aliases []string
	holds   func(bound map[string]int) bool
}

func bruteForceBlock(t *testing.T, db *engine.Database, b *sqlast.Block, params engine.Params) []engine.Row {
	t.Helper()
	tables := make(map[string]*engine.Table)
	for _, tr := range b.Tables {
		tables[tr.Alias] = db.Table(tr.Table)
	}
	cell := func(bound map[string]int, c sqlast.ColumnRef) engine.Value {
		tb := tables[c.Alias]
		ci := tb.ColumnIndex(c.Column)
		if ci < 0 {
			t.Fatalf("oracle: no column %s", c)
		}
		return tb.Cell(bound[c.Alias], ci)
	}
	var preds []oraclePred
	for _, j := range b.Joins {
		j := j
		preds = append(preds, oraclePred{[]string{j.Left.Alias, j.Right.Alias}, func(bound map[string]int) bool {
			return oracleHolds(cell(bound, j.Left), sqlast.OpEq, cell(bound, j.Right))
		}})
	}
	for _, f := range b.Filters {
		f := f
		if f.RightCol != nil {
			preds = append(preds, oraclePred{[]string{f.Col.Alias, f.RightCol.Alias}, func(bound map[string]int) bool {
				return oracleHolds(cell(bound, f.Col), f.Op, cell(bound, *f.RightCol))
			}})
			continue
		}
		lit := oracleLiteral(t, f.Value, params)
		preds = append(preds, oraclePred{[]string{f.Col.Alias}, func(bound map[string]int) bool {
			return oracleHolds(cell(bound, f.Col), f.Op, lit)
		}})
	}
	projs := b.Projects
	if len(projs) == 0 {
		first := b.Tables[0].Alias
		projs = []sqlast.ColumnRef{{Alias: first, Column: tables[first].Def.Key()}}
	}

	// checkAt[k] lists the predicates whose last alias (in FROM order)
	// is the k-th.
	pos := make(map[string]int, len(b.Tables))
	for i, tr := range b.Tables {
		pos[tr.Alias] = i
	}
	checkAt := make([][]oraclePred, len(b.Tables))
	for _, p := range preds {
		last := 0
		for _, a := range p.aliases {
			last = max(last, pos[a])
		}
		checkAt[last] = append(checkAt[last], p)
	}

	var out []engine.Row
	bound := make(map[string]int, len(b.Tables))
	var enumerate func(k int)
	enumerate = func(k int) {
		if k == len(b.Tables) {
			row := make(engine.Row, len(projs))
			for i, pr := range projs {
				row[i] = cell(bound, pr)
			}
			out = append(out, row)
			return
		}
		alias := b.Tables[k].Alias
		tb := tables[alias]
	rows:
		for r := 0; r < tb.NumRows(); r++ {
			if !tb.Alive(r) {
				continue
			}
			bound[alias] = r
			for _, p := range checkAt[k] {
				if !p.holds(bound) {
					continue rows
				}
			}
			enumerate(k + 1)
		}
		delete(bound, alias)
	}
	enumerate(0)
	return out
}

func oracleLiteral(t *testing.T, l sqlast.Literal, params engine.Params) engine.Value {
	t.Helper()
	switch {
	case l.IsParam:
		v, ok := params[l.Param]
		if !ok {
			t.Fatalf("oracle: unbound parameter %s", l.Param)
		}
		return v
	case l.IsInt:
		return engine.IntVal(l.Int)
	default:
		return engine.StrVal(l.Str)
	}
}

// oracleHolds is SQL comparison as the engine defines it: NULL satisfies
// nothing, and an integer compared with a string compares as its decimal
// text.
func oracleHolds(l engine.Value, op sqlast.CmpOp, r engine.Value) bool {
	if l.IsNull() || r.IsNull() {
		return false
	}
	if l.Kind != r.Kind {
		l, r = engine.StrVal(l.String()), engine.StrVal(r.String())
	}
	c := engine.Compare(l, r)
	switch op {
	case sqlast.OpEq:
		return c == 0
	case sqlast.OpNe:
		return c != 0
	case sqlast.OpLt:
		return c < 0
	case sqlast.OpLe:
		return c <= 0
	case sqlast.OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// checkAgainstOracle runs q on both executors and requires each to
// return exactly the oracle's row multiset.
func checkAgainstOracle(t *testing.T, db *engine.Database, label string, q *sqlast.Query, params engine.Params) {
	t.Helper()
	want := bruteForce(t, db, q, params)
	for _, mode := range []engine.Options{{}, {RowAtATime: true}} {
		db.Exec = mode
		rs, err := db.Execute(q, params)
		if err != nil {
			t.Fatalf("%s (row-at-a-time %v): %v", label, mode.RowAtATime, err)
		}
		got := rowMultiset(rs)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s (row-at-a-time %v): %d rows, oracle %d\n got %q\nwant %q",
				label, mode.RowAtATime, len(got), len(want), got, want)
		}
	}
	db.Exec = engine.Options{}
}

// TestOracleIMDB compares both executors with the brute-force oracle on
// every IMDB query (Q1–Q20, F1–F4) that translates, over a document of a
// few shows, on the all-inlined, all-outlined and advised catalogs. The
// advised catalog carries the paper's statistics, so its plans are the
// ones a served store runs.
func TestOracleIMDB(t *testing.T) {
	advised := func(*xschema.Schema) (*xschema.Schema, error) {
		res, err := core.GreedySearch(context.Background(), imdb.Schema(), imdb.LookupWorkload(), imdb.Stats(),
			core.Options{Strategy: core.GreedySO, Workers: 1})
		if err != nil {
			return nil, err
		}
		return res.Best.Schema, nil
	}
	for _, cfg := range []diffConfig{
		{"all-inlined", 3, pschema.AllInlined},
		{"all-outlined", 3, pschema.InitialOutlined},
		{"advised", 3, advised},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			db, ps, cat, matching, years := buildDiffDB(t, cfg, 11)
			compared := 0
			for _, qn := range imdb.QueryNames() {
				sq, err := xquery.Translate(imdb.Query(qn), ps, cat)
				if err != nil {
					continue
				}
				compared++
				checkAgainstOracle(t, db, qn+"/matching", sq, matching)
				checkAgainstOracle(t, db, qn+"/years", sq, years)
			}
			if compared < 10 {
				t.Fatalf("only %d queries translated", compared)
			}
		})
	}
}

// TestOracleJoinCycle runs a block whose declared joins form a cycle
// (a–b, b–c, c–a) on independent columns, so no join is implied by the
// other two: whichever two the plan joins on, the third must still run
// as a filter. Dropping it returns the row (a2, b1, c1), whose x values
// differ.
func TestOracleJoinCycle(t *testing.T) {
	s := xschema.MustParseSchema(`
type R = r[ A*<#3>, B*<#3>, C*<#3> ]
type A = a[ x[ Integer ], y[ Integer ] ]
type B = b[ y[ Integer ], z[ Integer ] ]
type C = c[ z[ Integer ], x[ Integer ] ]`)
	cat, err := relational.Map(s)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase(cat)
	for _, spec := range []struct {
		table, c1, c2 string
		rows          [][2]int64
	}{
		{"A", "x", "y", [][2]int64{{1, 1}, {2, 1}}},
		{"B", "y", "z", [][2]int64{{1, 1}}},
		{"C", "z", "x", [][2]int64{{1, 1}}},
	} {
		tb := db.Table(spec.table)
		for _, v := range spec.rows {
			row := make(engine.Row, len(tb.Def.Columns))
			row[tb.ColumnIndex(spec.table+"_id")] = engine.IntVal(tb.NextID())
			row[tb.ColumnIndex("parent_R")] = engine.IntVal(1)
			row[tb.ColumnIndex(spec.c1)] = engine.IntVal(v[0])
			row[tb.ColumnIndex(spec.c2)] = engine.IntVal(v[1])
			if err := tb.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	col := func(alias, column string) sqlast.ColumnRef { return sqlast.ColumnRef{Alias: alias, Column: column} }
	b := &sqlast.Block{}
	b.AddTable("A", "a")
	b.AddTable("B", "b")
	b.AddTable("C", "c")
	b.Joins = []sqlast.Join{
		{Left: col("a", "y"), Right: col("b", "y")},
		{Left: col("b", "z"), Right: col("c", "z")},
		{Left: col("c", "x"), Right: col("a", "x")},
	}
	b.Projects = []sqlast.ColumnRef{col("a", "x"), col("b", "z"), col("c", "x")}
	q := &sqlast.Query{Name: "cycle", Blocks: []*sqlast.Block{b}}
	if want := bruteForce(t, db, q, nil); len(want) != 1 {
		t.Fatalf("oracle returns %d rows, want 1: %v", len(want), want)
	}
	checkAgainstOracle(t, db, "cycle", q, nil)
}
