package engine

import (
	"context"
	"fmt"

	"legodb/internal/optimizer"
	"legodb/internal/sqlast"
)

// This file is the vectorized batch executor: the intermediate result is
// a set of per-alias position vectors ([]int32 row positions, one column
// per bound alias, all the same length) instead of per-tuple
// map[string]int bindings. Scans and filters run in chunks of BatchSize
// rows through gathered column Vectors; joins emit (source-tuple, new-
// position) pairs and rebind the position columns with tight gather
// loops; hash joins build typed hash tables. Counter accrual points are
// identical to the row-at-a-time path in exec_rows.go — see the
// differential tests.

type batchExec struct {
	db     *Database
	ctx    context.Context
	stats  *Counters
	p      *blockPlan
	params Params
	// cols[slot] is the position vector for the alias at that slot, nil
	// while unbound. All non-nil columns have length n.
	cols [][]int32
	n    int
	// Scratch buffers reused across chunks.
	vec, vec2 Vector
	selBuf    []int32
}

func (db *Database) executeBlockBatch(ctx context.Context, p *blockPlan, params Params, stats *Counters) (*ResultSet, error) {
	e := &batchExec{
		db:     db,
		ctx:    ctx,
		stats:  stats,
		p:      p,
		params: params,
		cols:   make([][]int32, len(p.order)),
		selBuf: make([]int32, 0, BatchSize),
	}
	start, err := e.scanPositions(p.tables[p.start], p.startFilters)
	if err != nil {
		return nil, err
	}
	e.cols[p.slot[p.start]] = start
	e.n = len(start)

	for i := range p.steps {
		st := &p.steps[i]
		switch st.method {
		case optimizer.INL:
			err = e.stepINL(st)
		case optimizer.Hash:
			err = e.stepHash(st)
		case optimizer.Cartesian:
			err = e.stepCartesian(st)
		}
		if err != nil {
			return nil, err
		}
		if err := e.applyCross(st.cross); err != nil {
			return nil, err
		}
	}
	return e.project()
}

// scanPositions scans a table chunk by chunk, applying constant filters
// through gathered vectors, and returns the passing live row positions.
// Counter accrual matches scanFiltered: one scan, every heap row
// (tombstoned included) read.
func (e *batchExec) scanPositions(t *Table, filters []sqlast.Filter) ([]int32, error) {
	n := t.NumRows()
	e.stats.Scans++
	e.stats.TuplesRead += int64(n)
	e.stats.BytesRead += t.scanBytes()
	cf := compileFilters(t, filters, e.params)
	out := make([]int32, 0, n)
	for base := 0; base < n; base += BatchSize {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		end := min(base+BatchSize, n)
		sel := e.selBuf[:0]
		if len(t.dead) == 0 {
			for pos := base; pos < end; pos++ {
				sel = append(sel, int32(pos))
			}
		} else {
			for pos := base; pos < end; pos++ {
				if t.Alive(pos) {
					sel = append(sel, int32(pos))
				}
			}
		}
		sel, err := e.filterChunk(t, cf, sel)
		if err != nil {
			return nil, err
		}
		out = append(out, sel...)
	}
	return out, nil
}

// filterChunk narrows one chunk's selection through the compiled
// filters. Filters evaluate in order over the surviving selection, so a
// filter's deferred resolution error surfaces exactly when some row
// reaches it — the same short-circuit the per-row passes loop has.
func (e *batchExec) filterChunk(t *Table, cf []compiledFilter, sel []int32) ([]int32, error) {
	for i := range cf {
		if len(sel) == 0 {
			return sel, nil
		}
		f := &cf[i]
		if f.err != nil {
			return nil, f.err
		}
		e.vec.gather(t, f.colIdx, sel)
		if f.rightIdx >= 0 {
			e.vec2.gather(t, f.rightIdx, sel)
			sel = compactPair(&e.vec, &e.vec2, f.op, sel)
		} else {
			sel = compactLiteral(&e.vec, f.op, f.lit, sel)
		}
	}
	return sel, nil
}

// stepINL probes the new relation's key index once per intermediate
// tuple, collecting (source tuple, matched position) pairs.
func (e *batchExec) stepINL(st *planStep) error {
	// The new side's column index is unused (Lookup probes by name) but
	// is still resolved for error parity with the reference executor.
	_, oldCi, err := e.p.resolveJoinCols(st)
	if err != nil {
		return err
	}
	newTable := e.p.tables[st.alias]
	oldTable := e.p.tables[st.oldAlias]
	cf := compileFilters(newTable, st.filters, e.params)
	oldPos := e.cols[e.p.slot[st.oldAlias]]
	var src, newPos []int32
	for i := 0; i < e.n; i++ {
		if i&ctxCheckMask == 0 {
			if err := e.ctx.Err(); err != nil {
				return err
			}
		}
		v := oldTable.Cell(int(oldPos[i]), oldCi)
		positions, _ := newTable.Lookup(st.newCol, v)
		e.stats.Probes++
		for _, pos := range positions {
			e.stats.TuplesRead++
			e.stats.BytesRead += newTable.probeRowBytes(pos)
			ok, err := passesCompiledAt(newTable, pos, cf)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			src = append(src, int32(i))
			newPos = append(newPos, int32(pos))
		}
	}
	e.rebind(st.alias, src, newPos)
	return nil
}

// stepHash scans + builds the new relation into a typed hash table, then
// probes it with each intermediate tuple's join value.
func (e *batchExec) stepHash(st *planStep) error {
	newCi, oldCi, err := e.p.resolveJoinCols(st)
	if err != nil {
		return err
	}
	newTable := e.p.tables[st.alias]
	oldTable := e.p.tables[st.oldAlias]
	build, err := e.scanPositions(newTable, st.filters)
	if err != nil {
		return err
	}
	ht := buildHash(newTable, newCi, build)
	oldPos := e.cols[e.p.slot[st.oldAlias]]
	var src, newPos []int32
	for i := 0; i < e.n; i++ {
		if i&ctxCheckMask == 0 {
			if err := e.ctx.Err(); err != nil {
				return err
			}
		}
		for _, pos := range ht.lookup(oldTable.Cell(int(oldPos[i]), oldCi)) {
			src = append(src, int32(i))
			newPos = append(newPos, pos)
		}
	}
	e.rebind(st.alias, src, newPos)
	return nil
}

// stepCartesian crosses the intermediate tuples with a filtered scan of
// a disconnected relation.
func (e *batchExec) stepCartesian(st *planStep) error {
	rows, err := e.scanPositions(e.p.tables[st.alias], st.filters)
	if err != nil {
		return err
	}
	src := make([]int32, 0, e.n*len(rows))
	newPos := make([]int32, 0, e.n*len(rows))
	for i := 0; i < e.n; i++ {
		if i&ctxCheckMask == 0 {
			if err := e.ctx.Err(); err != nil {
				return err
			}
		}
		for _, pos := range rows {
			src = append(src, int32(i))
			newPos = append(newPos, pos)
		}
	}
	e.rebind(st.alias, src, newPos)
	return nil
}

// rebind gathers every bound position column through src and installs
// newPos as the freshly bound alias's column.
func (e *batchExec) rebind(alias string, src, newPos []int32) {
	for s, c := range e.cols {
		if c == nil {
			continue
		}
		nc := make([]int32, len(src))
		for k, i := range src {
			nc[k] = c[i]
		}
		e.cols[s] = nc
	}
	e.cols[e.p.slot[alias]] = newPos
	e.n = len(newPos)
}

// applyCross filters the intermediate tuples by the scheduled cross
// filters, comparing gathered chunk vectors pairwise.
func (e *batchExec) applyCross(filters []sqlast.Filter) error {
	for _, f := range filters {
		lt, rt := e.p.tables[f.Col.Alias], e.p.tables[f.RightCol.Alias]
		li, ri := lt.ColumnIndex(f.Col.Column), rt.ColumnIndex(f.RightCol.Column)
		if li < 0 || ri < 0 {
			return fmt.Errorf("bad cross filter %s", f)
		}
		lcol := e.cols[e.p.slot[f.Col.Alias]]
		rcol := e.cols[e.p.slot[f.RightCol.Alias]]
		var keep []int32
		for base := 0; base < e.n; base += BatchSize {
			if err := e.ctx.Err(); err != nil {
				return err
			}
			end := min(base+BatchSize, e.n)
			e.vec.gather(lt, li, lcol[base:end])
			e.vec2.gather(rt, ri, rcol[base:end])
			for j := 0; j < end-base; j++ {
				if pairSatisfies(&e.vec, &e.vec2, j, f.Op) {
					keep = append(keep, int32(base+j))
				}
			}
		}
		if len(keep) == e.n {
			continue
		}
		for s, c := range e.cols {
			if c == nil {
				continue
			}
			nc := make([]int32, len(keep))
			for k, i := range keep {
				nc[k] = c[i]
			}
			e.cols[s] = nc
		}
		e.n = len(keep)
	}
	return nil
}

// project materializes the projected columns into result rows. Rows are
// carved from one backing array with full-capacity slices so the union
// padding in Execute can't overwrite a neighbor.
func (e *batchExec) project() (*ResultSet, error) {
	rs := &ResultSet{}
	projs := e.p.projs
	for _, pr := range projs {
		rs.Columns = append(rs.Columns, pr.Alias+"."+pr.Column)
	}
	if e.n == 0 {
		// Column resolution is skipped on empty results, matching the
		// reference executor's per-row resolution.
		return rs, nil
	}
	w := len(projs)
	cells := make([]Value, e.n*w)
	rows := make([]Row, e.n)
	for i := range rows {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	for k, pr := range projs {
		t := e.p.tables[pr.Alias]
		ci := t.ColumnIndex(pr.Column)
		if ci < 0 {
			return nil, fmt.Errorf("no column %s.%s", pr.Alias, pr.Column)
		}
		col := e.cols[e.p.slot[pr.Alias]]
		for i := 0; i < e.n; i++ {
			rows[i][k] = t.Cell(int(col[i]), ci)
		}
	}
	rs.Rows = rows
	return rs, nil
}
