// Package sqlast holds the logical SQL representation that the XQuery
// translator emits and the cost-based optimizer consumes: a query is a
// set of select-project-join blocks (publishing queries expand into one
// block per reachable relation, in the style of SilkRoute's sorted outer
// union; queries over union-partitioned types expand into one block per
// partition combination). The total cost of a query is the sum of its
// block costs.
package sqlast

import (
	"fmt"
	"strconv"
	"strings"
)

// Query is a union of SPJ blocks.
type Query struct {
	// Name labels the query for reports (e.g. "Q13").
	Name   string
	Blocks []*Block
}

// Block is one select-project-join block.
type Block struct {
	Tables   []TableRef
	Joins    []Join
	Filters  []Filter
	Projects []ColumnRef
}

// TableRef is a FROM entry: a base table under a block-unique alias.
type TableRef struct {
	Table string
	Alias string
}

// ColumnRef names a column of an aliased table.
type ColumnRef struct {
	Alias  string
	Column string
}

func (c ColumnRef) String() string { return c.Alias + "." + c.Column }

// Join is an equi-join between two aliased columns (in the mapping's
// schemas, always a key/foreign-key pair).
type Join struct {
	Left, Right ColumnRef
}

// CmpOp enumerates comparison operators in filters.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Literal is a constant operand. Unbound parameters (the paper's c1, c2,
// ...) carry IsParam and estimate like an unknown equality constant.
type Literal struct {
	IsParam bool
	Param   string
	IsInt   bool
	Int     int64
	Str     string
}

func (l Literal) String() string {
	switch {
	case l.IsParam:
		return ":" + l.Param
	case l.IsInt:
		return fmt.Sprintf("%d", l.Int)
	default:
		return "'" + strings.ReplaceAll(l.Str, "'", "''") + "'"
	}
}

// appendString appends the literal rendered exactly as String() would,
// without allocating.
func (l Literal) appendString(dst []byte) []byte {
	switch {
	case l.IsParam:
		dst = append(dst, ':')
		return append(dst, l.Param...)
	case l.IsInt:
		return strconv.AppendInt(dst, l.Int, 10)
	default:
		dst = append(dst, '\'')
		for i := 0; i < len(l.Str); i++ {
			if l.Str[i] == '\'' {
				dst = append(dst, '\'')
			}
			dst = append(dst, l.Str[i])
		}
		return append(dst, '\'')
	}
}

// Filter is a selection predicate: column op literal, or column op column
// when RightCol is set.
type Filter struct {
	Col      ColumnRef
	Op       CmpOp
	Value    Literal
	RightCol *ColumnRef
}

func (f Filter) String() string {
	if f.RightCol != nil {
		return fmt.Sprintf("%s %s %s", f.Col, f.Op, *f.RightCol)
	}
	return fmt.Sprintf("%s %s %s", f.Col, f.Op, f.Value)
}

// IsCross reports whether the filter compares columns of two different
// aliases (a join predicate) rather than restricting a single alias.
func (f Filter) IsCross() bool { return f.RightCol != nil && f.RightCol.Alias != f.Col.Alias }

// JoinPredicates returns the block's join predicates as one kind: each
// declared join as an equality Filter, then each cross-alias filter, in
// block order. Plans refer to predicates by index in this list.
func (b *Block) JoinPredicates() []Filter {
	var out []Filter
	for i := range b.Joins {
		out = append(out, Filter{Col: b.Joins[i].Left, Op: OpEq, RightCol: &b.Joins[i].Right})
	}
	for _, f := range b.Filters {
		if f.IsCross() {
			out = append(out, f)
		}
	}
	return out
}

// AddTable appends a FROM entry and returns its alias.
func (b *Block) AddTable(table, alias string) string {
	b.Tables = append(b.Tables, TableRef{Table: table, Alias: alias})
	return alias
}

// HasTable reports whether the alias is already bound in the block.
func (b *Block) HasTable(alias string) bool {
	for _, t := range b.Tables {
		if t.Alias == alias {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	cp := &Block{
		Tables:   append([]TableRef(nil), b.Tables...),
		Joins:    append([]Join(nil), b.Joins...),
		Projects: append([]ColumnRef(nil), b.Projects...),
	}
	cp.Filters = make([]Filter, len(b.Filters))
	for i, f := range b.Filters {
		cp.Filters[i] = f
		if f.RightCol != nil {
			rc := *f.RightCol
			cp.Filters[i].RightCol = &rc
		}
	}
	return cp
}

// ShapeKey returns the block's canonical positional encoding: the block
// rendered with every alias replaced by its table's position in the FROM
// list. Alias names never reach the encoding, so two blocks that differ
// only in how their aliases were numbered share a key, while everything
// that can influence costing — table names, join edges, filter columns,
// operators and constants, projections, and their order — is encoded
// exactly. The logical-plan layer (internal/plan) keys interned blocks
// and memoized block costs on this encoding.
func (b *Block) ShapeKey() string {
	return string(b.AppendShapeKey(nil))
}

// aliasIndex returns the FROM position of the first table bound under
// the alias, or -1. Blocks have a handful of tables, so a linear scan
// beats building a map per encoding.
func (b *Block) aliasIndex(alias string) int {
	for i := range b.Tables {
		if b.Tables[i].Alias == alias {
			return i
		}
	}
	return -1
}

// AppendShapeKey appends the block's canonical positional encoding (see
// ShapeKey) to dst and returns the extended slice. It allocates nothing
// beyond dst growth, so hot paths can reuse one scratch buffer across
// encodings and key maps by string(dst) lookups, which the compiler
// keeps allocation-free.
func (b *Block) AppendShapeKey(dst []byte) []byte {
	for i := range b.Tables {
		dst = append(dst, 'T')
		dst = append(dst, b.Tables[i].Table...)
		dst = append(dst, 0)
	}
	ref := func(dst []byte, c ColumnRef) []byte {
		if i := b.aliasIndex(c.Alias); i >= 0 {
			dst = strconv.AppendInt(dst, int64(i), 10)
		} else {
			// An alias not bound in FROM (malformed block): keep it
			// verbatim so the encoding stays injective.
			dst = append(dst, '?')
			dst = append(dst, c.Alias...)
		}
		dst = append(dst, '.')
		dst = append(dst, c.Column...)
		return append(dst, 0)
	}
	for _, j := range b.Joins {
		dst = append(dst, 'J')
		dst = ref(dst, j.Left)
		dst = ref(dst, j.Right)
	}
	for _, f := range b.Filters {
		dst = append(dst, 'F')
		dst = ref(dst, f.Col)
		dst = append(dst, f.Op.String()...)
		dst = append(dst, 0)
		if f.RightCol != nil {
			dst = append(dst, 'C')
			dst = ref(dst, *f.RightCol)
		} else {
			dst = append(dst, 'L')
			dst = f.Value.appendString(dst)
			dst = append(dst, 0)
		}
	}
	for _, p := range b.Projects {
		dst = append(dst, 'P')
		dst = ref(dst, p)
	}
	return dst
}

// SQL renders the block as a SELECT statement.
func (b *Block) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if len(b.Projects) == 0 {
		sb.WriteString("*")
	} else {
		parts := make([]string, len(b.Projects))
		for i, p := range b.Projects {
			parts[i] = p.String()
		}
		sb.WriteString(strings.Join(parts, ", "))
	}
	sb.WriteString("\nFROM ")
	tabs := make([]string, len(b.Tables))
	for i, t := range b.Tables {
		tabs[i] = fmt.Sprintf("%s %s", t.Table, t.Alias)
	}
	sb.WriteString(strings.Join(tabs, ", "))
	var conds []string
	for _, j := range b.Joins {
		conds = append(conds, fmt.Sprintf("%s = %s", j.Left, j.Right))
	}
	for _, f := range b.Filters {
		conds = append(conds, f.String())
	}
	if len(conds) > 0 {
		sb.WriteString("\nWHERE ")
		sb.WriteString(strings.Join(conds, "\n  AND "))
	}
	return sb.String()
}

// SQL renders the query: blocks separated by UNION ALL (the sorted outer
// union skeleton of a publishing query).
func (q *Query) SQL() string {
	parts := make([]string, len(q.Blocks))
	for i, b := range q.Blocks {
		parts[i] = b.SQL()
	}
	return strings.Join(parts, "\nUNION ALL\n")
}

// String is SQL with the query name as a comment header.
func (q *Query) String() string {
	if q.Name == "" {
		return q.SQL()
	}
	return "-- " + q.Name + "\n" + q.SQL()
}
