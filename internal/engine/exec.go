package engine

import (
	"context"
	"fmt"
	"strings"

	"legodb/internal/faults"
	"legodb/internal/optimizer"
	"legodb/internal/sqlast"
)

// Params binds the unbound parameters (c1, c2, ...) of a query to values
// at execution time.
type Params map[string]Value

// ResultSet is the output of executing a query: the union of its blocks'
// rows. Columns follow the widest block; rows from narrower blocks are
// padded with NULL so every row has len(Columns) cells.
type ResultSet struct {
	Columns []string
	Rows    []Row
}

// Execute plans a query and runs it with a background context; see Plan
// and ExecutePlan.
func (db *Database) Execute(q *sqlast.Query, params Params) (*ResultSet, error) {
	p, err := db.Plan(q)
	if err != nil {
		return nil, err
	}
	return db.ExecutePlan(context.Background(), p, params)
}

// Plan is a query's physical plan: per union block, the optimizer's start
// relation, join order and join method, with every predicate scheduled.
// It depends only on the database's catalog, never on the data or the
// parameters, so it can be made once and executed many times on the
// database that made it.
type Plan struct {
	name   string
	blocks []*blockPlan
}

// Plan plans a query through the optimizer over the database's catalog.
// Like optimizer.QueryCost, it plans the union blocks in order with one
// shared set of scanned tables, so the executed plan is the costed one.
func (db *Database) Plan(q *sqlast.Query) (*Plan, error) {
	opt := optimizer.New(db.Cat)
	scanned := make(map[string]bool)
	p := &Plan{name: q.Name, blocks: make([]*blockPlan, 0, len(q.Blocks))}
	for _, b := range q.Blocks {
		bp, err := db.planBlock(opt, b, scanned)
		if err != nil {
			return nil, fmt.Errorf("engine: %s: %w", q.Name, err)
		}
		p.blocks = append(p.blocks, bp)
	}
	return p, nil
}

// ExecutePlan runs all blocks of a plan and unions their results,
// counting work in db.Stats. Cancelling ctx (or exceeding its deadline)
// aborts the execution at the next chunk or probe-loop boundary with the
// context's error, so a served query stops consuming engine work as soon
// as its request is cancelled. Counters accrue into an execution-local
// accumulator and are folded into db.Stats once at the end (partial work
// included on error), so concurrent executions never race on the shared
// counters.
func (db *Database) ExecutePlan(ctx context.Context, p *Plan, params Params) (*ResultSet, error) {
	var stats Counters
	out := &ResultSet{}
	for _, bp := range p.blocks {
		rs, err := db.executeBlock(ctx, bp, params, &stats)
		if err != nil {
			db.addStats(stats)
			return nil, fmt.Errorf("engine: %s: %w", p.name, err)
		}
		if len(rs.Columns) > len(out.Columns) {
			out.Columns = rs.Columns
		}
		out.Rows = append(out.Rows, rs.Rows...)
	}
	// Union blocks can differ in width (a publishing query's outer-union
	// skeleton); pad narrower blocks' rows with NULL so every row matches
	// the widest block's column list.
	for i, r := range out.Rows {
		for len(r) < len(out.Columns) {
			r = append(r, Null)
		}
		out.Rows[i] = r
	}
	stats.TuplesOut += int64(len(out.Rows))
	db.addStats(stats)
	return out, nil
}

// ExecuteBlock plans one SPJ block on its own and runs it. Unlike
// Execute, it counts no output tuples.
func (db *Database) ExecuteBlock(b *sqlast.Block, params Params) (*ResultSet, error) {
	p, err := db.planBlock(optimizer.New(db.Cat), b, nil)
	if err != nil {
		return nil, err
	}
	var stats Counters
	rs, err := db.executeBlock(context.Background(), p, params, &stats)
	db.addStats(stats)
	return rs, err
}

func (db *Database) executeBlock(ctx context.Context, p *blockPlan, params Params, stats *Counters) (*ResultSet, error) {
	// SiteExec is the serving path's fault seam: tests arm it to prove an
	// injected executor failure surfaces as a structured error without
	// wedging or crashing the caller.
	if err := faults.Inject(faults.SiteExec); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if db.Exec.RowAtATime {
		return db.executeBlockRows(ctx, p, params, stats)
	}
	return db.executeBlockBatch(ctx, p, params, stats)
}

// ctxCheckMask bounds how often the executors' inner loops poll for
// cancellation: every (mask+1)th tuple, cheap enough to leave on
// unconditionally while still stopping runaway scans, probes and
// cartesian products within a fraction of a millisecond.
const ctxCheckMask = 511

// planStep binds one more alias into the intermediate result.
type planStep struct {
	method optimizer.Method
	alias  string
	// filters are the constant (and same-alias) filters on alias, applied
	// while scanning or probing it.
	filters []sqlast.Filter
	// Join key (INL / Hash): alias.newCol = oldAlias.oldCol with oldAlias
	// already bound.
	newCol   string
	oldAlias string
	oldCol   string
	// cross lists the step's other join predicates: every predicate that
	// first becomes evaluable once alias is bound, except the join key.
	// They run as filters right after the step, each exactly once.
	cross []sqlast.Filter
}

// blockPlan is the physical plan of one SPJ block, shared by both
// executors.
type blockPlan struct {
	tables map[string]*Table
	// order lists aliases in FROM order; slot maps an alias to its
	// position (the batch executor's column index for that alias).
	order []string
	slot  map[string]int
	start string
	// startFilters are the constant filters on the start alias.
	startFilters []sqlast.Filter
	steps        []planStep
	projs        []sqlast.ColumnRef
	est          optimizer.Estimate
}

// planBlock turns the optimizer's plan for a block into a physical plan.
// Declared joins and cross-alias filters are one list of predicates
// (sqlast.Block.JoinPredicates); each step joins on the predicate the
// optimizer keyed it on and filters by the rest of the predicates it
// connects. scanned is the query's shared scan set (nil for a block
// planned alone).
func (db *Database) planBlock(opt *optimizer.Optimizer, b *sqlast.Block, scanned map[string]bool) (*blockPlan, error) {
	est, err := opt.BlockCostShared(b, scanned)
	if err != nil {
		return nil, err
	}
	p := &blockPlan{
		tables: make(map[string]*Table, len(b.Tables)),
		slot:   make(map[string]int, len(b.Tables)),
		start:  est.Start,
		est:    est,
	}
	for _, tref := range b.Tables {
		t := db.Table(tref.Table)
		if t == nil {
			return nil, fmt.Errorf("unknown table %q", tref.Table)
		}
		if _, dup := p.tables[tref.Alias]; !dup {
			p.slot[tref.Alias] = len(p.order)
			p.order = append(p.order, tref.Alias)
		}
		p.tables[tref.Alias] = t
	}

	local := make(map[string][]sqlast.Filter)
	for _, f := range b.Filters {
		if !f.IsCross() {
			local[f.Col.Alias] = append(local[f.Col.Alias], f)
		}
	}
	p.startFilters = local[p.start]
	preds := b.JoinPredicates()
	for _, s := range est.Steps {
		st := planStep{method: s.Method, alias: s.Alias, filters: local[s.Alias]}
		for _, i := range s.Preds {
			f := preds[i]
			switch {
			case i != s.Key:
				st.cross = append(st.cross, f)
			case f.Col.Alias == s.Alias:
				st.newCol, st.oldAlias, st.oldCol = f.Col.Column, f.RightCol.Alias, f.RightCol.Column
			default:
				st.newCol, st.oldAlias, st.oldCol = f.RightCol.Column, f.Col.Alias, f.Col.Column
			}
		}
		p.steps = append(p.steps, st)
	}

	p.projs = b.Projects
	if len(p.projs) == 0 {
		p.projs = []sqlast.ColumnRef{{Alias: p.order[0], Column: p.tables[p.order[0]].Def.Key()}}
	}
	return p, nil
}

// String renders the plan as the engine executes it: per block the start
// relation, then per step the join method, join key and the predicates
// deferred to filters, with the optimizer's estimated cost and rows.
func (p *Plan) String() string {
	var b strings.Builder
	total := optimizer.Estimate{}
	for i, bp := range p.blocks {
		fmt.Fprintf(&b, "block %d: estimated cost %.1f, rows %.0f\n", i+1, bp.est.Cost, bp.est.Rows)
		fmt.Fprintf(&b, "  scan %s %s", bp.start, bp.tables[bp.start].Def.Name)
		writeFilters(&b, " where", bp.startFilters)
		for _, st := range bp.steps {
			fmt.Fprintf(&b, "\n  %s %s %s", st.method, st.alias, bp.tables[st.alias].Def.Name)
			if st.method != optimizer.Cartesian {
				fmt.Fprintf(&b, " on %s.%s = %s.%s", st.alias, st.newCol, st.oldAlias, st.oldCol)
			}
			writeFilters(&b, " where", st.filters)
			writeFilters(&b, " then filter", st.cross)
		}
		b.WriteByte('\n')
		total.Cost += bp.est.Cost
		total.Rows += bp.est.Rows
	}
	fmt.Fprintf(&b, "total: estimated cost %.1f, rows %.0f\n", total.Cost, total.Rows)
	return b.String()
}

func writeFilters(b *strings.Builder, label string, filters []sqlast.Filter) {
	for i, f := range filters {
		if i > 0 {
			label = " and"
		}
		fmt.Fprintf(b, "%s %s", label, f)
	}
}

// resolveJoinCols resolves a join step's column indices, with the new
// side checked first (matching the reference executor's error order).
func (p *blockPlan) resolveJoinCols(st *planStep) (newCi, oldCi int, err error) {
	newTable := p.tables[st.alias]
	newCi = newTable.ColumnIndex(st.newCol)
	if newCi < 0 {
		return 0, 0, fmt.Errorf("no column %s.%s", st.alias, st.newCol)
	}
	oldTable := p.tables[st.oldAlias]
	oldCi = oldTable.ColumnIndex(st.oldCol)
	if oldCi < 0 {
		return 0, 0, fmt.Errorf("no column %s.%s", st.oldAlias, st.oldCol)
	}
	return newCi, oldCi, nil
}

func literalValue(l sqlast.Literal, params Params) (Value, error) {
	if l.IsParam {
		v, ok := params[l.Param]
		if !ok {
			return Null, fmt.Errorf("unbound parameter %q", l.Param)
		}
		return v, nil
	}
	if l.IsInt {
		return IntVal(l.Int), nil
	}
	return StrVal(l.Str), nil
}

// opHolds evaluates a comparison operator against a Compare result.
func opHolds(op sqlast.CmpOp, c int) bool {
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
	case sqlast.OpGe:
		return c >= 0
	default:
		return false
	}
}

// satisfies evaluates a comparison; NULL never satisfies anything, and
// integer/string values compare only with their own kind (an integer
// literal against a CHAR column coerces by formatting, matching the
// shredder's storage rules).
func satisfies(left Value, op sqlast.CmpOp, right Value) bool {
	if left.IsNull() || right.IsNull() {
		return false
	}
	if left.Kind != right.Kind {
		// Coerce integers to strings for mixed comparisons.
		if left.Kind == IntValue {
			left = StrVal(left.String())
		}
		if right.Kind == IntValue {
			right = StrVal(right.String())
		}
	}
	return opHolds(op, Compare(left, right))
}

// compiledFilter is one constant (or same-alias column-column) filter
// with its column indices and literal resolved once per block instead of
// once per row. Resolution errors are deferred: like the per-row
// reference path, a missing column or unbound parameter only surfaces
// when at least one row is actually evaluated.
type compiledFilter struct {
	op       sqlast.CmpOp
	colIdx   int
	rightIdx int // -1: compare against lit
	lit      Value
	err      error
}

func compileFilters(t *Table, filters []sqlast.Filter, params Params) []compiledFilter {
	if len(filters) == 0 {
		return nil
	}
	out := make([]compiledFilter, len(filters))
	for i, f := range filters {
		cf := compiledFilter{op: f.Op, rightIdx: -1}
		cf.colIdx = t.ColumnIndex(f.Col.Column)
		if cf.colIdx < 0 {
			cf.err = fmt.Errorf("no column %s", f.Col.Column)
		} else if f.RightCol != nil {
			cf.rightIdx = t.ColumnIndex(f.RightCol.Column)
			if cf.rightIdx < 0 {
				cf.err = fmt.Errorf("no column %s", f.RightCol.Column)
			}
		} else {
			cf.lit, cf.err = literalValue(f.Value, params)
		}
		out[i] = cf
	}
	return out
}

// passesCompiled evaluates compiled filters on one row (the scalar path
// used for probed rows, where gathering a vector per probe would cost
// more than it saves).
func passesCompiled(row Row, cf []compiledFilter) (bool, error) {
	for i := range cf {
		f := &cf[i]
		if f.err != nil {
			return false, f.err
		}
		right := f.lit
		if f.rightIdx >= 0 {
			right = row[f.rightIdx]
		}
		if !satisfies(row[f.colIdx], f.op, right) {
			return false, nil
		}
	}
	return true, nil
}

// passesCompiledAt is passesCompiled over a row addressed by global
// position: only the filtered cells are read, so probed base rows are
// never materialized.
func passesCompiledAt(t *Table, pos int, cf []compiledFilter) (bool, error) {
	for i := range cf {
		f := &cf[i]
		if f.err != nil {
			return false, f.err
		}
		right := f.lit
		if f.rightIdx >= 0 {
			right = t.Cell(pos, f.rightIdx)
		}
		if !satisfies(t.Cell(pos, f.colIdx), f.op, right) {
			return false, nil
		}
	}
	return true, nil
}
