package engine

import (
	"context"
	"fmt"

	"legodb/internal/optimizer"
	"legodb/internal/sqlast"
)

// This file is the row-at-a-time executor: the original per-tuple
// iterator over binding maps, kept behind Options{RowAtATime: true} as
// the reference implementation for the batch executor's differential
// tests and speedup baseline. It consumes the same blockPlan, so both
// paths perform identical logical work and accrue identical Counters.

// binding is one intermediate tuple: row positions per bound alias.
type binding map[string]int

func (db *Database) executeBlockRows(ctx context.Context, p *blockPlan, params Params, stats *Counters) (*ResultSet, error) {
	current, err := db.scanFiltered(ctx, p.tables[p.start], p.start, p.startFilters, params, stats)
	if err != nil {
		return nil, err
	}

	for i := range p.steps {
		st := &p.steps[i]
		switch st.method {
		case optimizer.Cartesian:
			rows, err := db.scanFiltered(ctx, p.tables[st.alias], st.alias, st.filters, params, stats)
			if err != nil {
				return nil, err
			}
			var merged []binding
			for _, l := range current {
				for _, r := range rows {
					// Poll per emitted pair, not per outer row: one
					// outer row can emit thousands of pairs.
					if len(merged)&ctxCheckMask == 0 {
						if err := ctx.Err(); err != nil {
							return nil, err
						}
					}
					m := cloneBinding(l)
					m[st.alias] = r[st.alias]
					merged = append(merged, m)
				}
			}
			current = merged

		case optimizer.INL:
			// The new side's column index is unused (Lookup probes by
			// name) but is still resolved for error parity.
			_, oldCi, err := p.resolveJoinCols(st)
			if err != nil {
				return nil, err
			}
			newTable := p.tables[st.alias]
			oldTable := p.tables[st.oldAlias]
			// Index nested-loop join: probe the new relation's key index
			// once per intermediate tuple.
			var joined []binding
			for li, l := range current {
				if li&ctxCheckMask == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				v := oldTable.Cell(l[st.oldAlias], oldCi)
				positions, _ := newTable.Lookup(st.newCol, v)
				stats.Probes++
				for _, pos := range positions {
					stats.TuplesRead++
					stats.BytesRead += newTable.probeRowBytes(pos)
					row := newTable.Row(pos)
					if ok, err := db.passes(row, newTable, st.filters, params); err != nil {
						return nil, err
					} else if !ok {
						continue
					}
					m := cloneBinding(l)
					m[st.alias] = pos
					joined = append(joined, m)
				}
			}
			current = joined

		case optimizer.Hash:
			newCi, oldCi, err := p.resolveJoinCols(st)
			if err != nil {
				return nil, err
			}
			newTable := p.tables[st.alias]
			oldTable := p.tables[st.oldAlias]
			// Hash join: scan + build the new relation, probe current.
			rows, err := db.scanFiltered(ctx, newTable, st.alias, st.filters, params, stats)
			if err != nil {
				return nil, err
			}
			hash := make(map[Value][]int, len(rows))
			for _, r := range rows {
				pos := r[st.alias]
				v := newTable.Cell(pos, newCi)
				hash[v] = append(hash[v], pos)
			}
			var joined []binding
			for li, l := range current {
				if li&ctxCheckMask == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				v := oldTable.Cell(l[st.oldAlias], oldCi)
				for _, pos := range hash[v] {
					m := cloneBinding(l)
					m[st.alias] = pos
					joined = append(joined, m)
				}
			}
			current = joined
		}

		current, err = db.applyCrossFilters(current, p.tables, st.cross)
		if err != nil {
			return nil, err
		}
	}

	// Projection.
	rs := &ResultSet{}
	for _, pr := range p.projs {
		rs.Columns = append(rs.Columns, pr.Alias+"."+pr.Column)
	}
	for _, l := range current {
		row := make(Row, len(p.projs))
		for i, pr := range p.projs {
			t := p.tables[pr.Alias]
			ci := t.ColumnIndex(pr.Column)
			if ci < 0 {
				return nil, fmt.Errorf("no column %s.%s", pr.Alias, pr.Column)
			}
			row[i] = t.Cell(l[pr.Alias], ci)
		}
		rs.Rows = append(rs.Rows, row)
	}
	return rs, nil
}

// scanFiltered scans a table, applying constant filters, and returns one
// binding per passing row.
func (db *Database) scanFiltered(ctx context.Context, t *Table, alias string, filters []sqlast.Filter, params Params, stats *Counters) ([]binding, error) {
	n := t.NumRows()
	stats.Scans++
	stats.TuplesRead += int64(n)
	stats.BytesRead += t.scanBytes()
	var out []binding
	for pos := 0; pos < n; pos++ {
		if pos&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !t.Alive(pos) {
			continue
		}
		ok, err := db.passes(t.Row(pos), t, filters, params)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, binding{alias: pos})
		}
	}
	return out, nil
}

// passes evaluates constant (and same-alias) filters on one row,
// resolving columns and parameters lazily so a bad filter only errors
// when a row actually reaches it.
func (db *Database) passes(row Row, t *Table, filters []sqlast.Filter, params Params) (bool, error) {
	for _, f := range filters {
		li := t.ColumnIndex(f.Col.Column)
		if li < 0 {
			return false, fmt.Errorf("no column %s", f.Col.Column)
		}
		left := row[li]
		var right Value
		if f.RightCol != nil {
			ri := t.ColumnIndex(f.RightCol.Column)
			if ri < 0 {
				return false, fmt.Errorf("no column %s", f.RightCol.Column)
			}
			right = row[ri]
		} else {
			var err error
			right, err = literalValue(f.Value, params)
			if err != nil {
				return false, err
			}
		}
		if !satisfies(left, f.Op, right) {
			return false, nil
		}
	}
	return true, nil
}

// applyCrossFilters applies the cross filters the planner scheduled for
// this step (both aliases bound, not consumed as a join edge).
func (db *Database) applyCrossFilters(current []binding, tables map[string]*Table, filters []sqlast.Filter) ([]binding, error) {
	for _, f := range filters {
		lt, rt := tables[f.Col.Alias], tables[f.RightCol.Alias]
		li, ri := lt.ColumnIndex(f.Col.Column), rt.ColumnIndex(f.RightCol.Column)
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("bad cross filter %s", f)
		}
		var kept []binding
		for _, b := range current {
			if satisfies(lt.Cell(b[f.Col.Alias], li), f.Op, rt.Cell(b[f.RightCol.Alias], ri)) {
				kept = append(kept, b)
			}
		}
		current = kept
	}
	return current, nil
}

func cloneBinding(b binding) binding {
	m := make(binding, len(b)+1)
	for k, v := range b {
		m[k] = v
	}
	return m
}
