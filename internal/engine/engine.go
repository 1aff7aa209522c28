// Package engine is an instrumented in-memory relational execution
// substrate: heap tables over the catalogs produced by the fixed mapping,
// hash indexes on key and foreign-key columns, and an iterator executor
// for the SPJ blocks the XQuery translator emits.
//
// The paper validated its cost model against Microsoft SQL-Server 6.5;
// this engine plays that role here (see DESIGN.md): it counts the same
// quantities the cost model predicts — bytes read, probes, tuples
// processed — so estimates and measurements can be compared.
//
// A Database supports concurrent query execution against stable data:
// Execute/ExecutePlan from multiple goroutines are safe with each
// other (counters accrue execution-locally and fold into Stats under an
// internal mutex), but callers must serialize mutations — inserts,
// tombstones, executor-mode flips — against in-flight queries. The Store
// facade does exactly that with a readers-writer lock.
package engine

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"legodb/internal/relational"
)

// Value is a nullable scalar cell. The zero value is NULL. Values are
// comparable, so they key hash indexes directly.
type Value struct {
	Kind ValueKind
	Int  int64
	Str  string
}

// ValueKind discriminates Value contents.
type ValueKind int

// Value kinds.
const (
	NullValue ValueKind = iota
	IntValue
	StrValue
)

// IntVal makes an integer value.
func IntVal(v int64) Value { return Value{Kind: IntValue, Int: v} }

// StrVal makes a string value.
func StrVal(s string) Value { return Value{Kind: StrValue, Str: s} }

// Null is the NULL value.
var Null = Value{}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == NullValue }

func (v Value) String() string {
	switch v.Kind {
	case IntValue:
		return strconv.FormatInt(v.Int, 10)
	case StrValue:
		return v.Str
	default:
		return "NULL"
	}
}

// Compare orders two values: NULL sorts first, integers before strings.
func Compare(a, b Value) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	switch a.Kind {
	case IntValue:
		switch {
		case a.Int < b.Int:
			return -1
		case a.Int > b.Int:
			return 1
		}
		return 0
	case StrValue:
		return strings.Compare(a.Str, b.Str)
	default:
		return 0
	}
}

// Row is one tuple.
type Row []Value

// Table is a heap relation with hash indexes on its key and foreign-key
// columns, optionally frozen over a columnar base image (see
// colstore.go). Row positions are global — base rows first, then the
// heap tail in Rows — and deletes are tombstones: positions stay
// stable, dead rows are skipped by scans, probes and snapshots.
type Table struct {
	Def *relational.Table
	// Rows is the mutable heap tail; with a columnar base attached,
	// Rows[i] is global position baseRows()+i. Executors go through
	// NumRows/Cell/Row so both storage layouts serve transparently.
	Rows   []Row
	base   *ColumnBase
	colIdx map[string]int
	// indexes maps indexed column name to value → global row positions.
	indexes map[string]map[Value][]int
	nextID  int64
	dead    map[int]bool
}

// NewTable builds an empty heap table for a catalog relation.
func NewTable(def *relational.Table) *Table {
	t := &Table{
		Def:     def,
		colIdx:  make(map[string]int, len(def.Columns)),
		indexes: make(map[string]map[Value][]int),
		nextID:  1,
	}
	for i, c := range def.Columns {
		t.colIdx[c.Name] = i
		if c.Key || c.FKRef != "" {
			t.indexes[c.Name] = make(map[Value][]int)
		}
	}
	return t
}

// ColumnIndex returns the position of a column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// NextID allocates a fresh surrogate key.
func (t *Table) NextID() int64 {
	id := t.nextID
	t.nextID++
	return id
}

// PeekNextID returns the next key without allocating it (used by
// snapshots).
func (t *Table) PeekNextID() int64 { return t.nextID }

// SetNextID restores the key allocator (used when loading snapshots).
func (t *Table) SetNextID(id int64) {
	if id > t.nextID {
		t.nextID = id
	}
}

// Insert appends a row (len must equal the column count) and maintains
// indexes.
func (t *Table) Insert(r Row) error {
	if len(r) != len(t.Def.Columns) {
		return fmt.Errorf("engine: %s: row has %d values, table has %d columns",
			t.Def.Name, len(r), len(t.Def.Columns))
	}
	pos := t.NumRows()
	t.Rows = append(t.Rows, r)
	for col, idx := range t.indexes {
		v := r[t.colIdx[col]]
		idx[v] = append(idx[v], pos)
	}
	return nil
}

// Lookup returns the positions of live rows whose column equals v, using
// the index when available (second result true) and nil otherwise. The
// returned slice aliases the index when no listed position is dead —
// the hot case on probe-heavy plans — so callers must not mutate it; a
// fresh slice is allocated only when tombstones actually filter.
func (t *Table) Lookup(col string, v Value) ([]int, bool) {
	idx, ok := t.indexes[col]
	if !ok {
		return nil, false
	}
	positions := idx[v]
	if len(t.dead) == 0 {
		return positions, true
	}
	dead := 0
	for _, p := range positions {
		if t.dead[p] {
			dead++
		}
	}
	if dead == 0 {
		return positions, true
	}
	live := make([]int, 0, len(positions)-dead)
	for _, p := range positions {
		if !t.dead[p] {
			live = append(live, p)
		}
	}
	return live, true
}

// Alive reports whether the row at pos has not been deleted.
func (t *Table) Alive(pos int) bool { return !t.dead[pos] }

// MarkDeleted tombstones the row at pos (idempotent).
func (t *Table) MarkDeleted(pos int) {
	if pos < 0 || pos >= t.NumRows() {
		return
	}
	if t.dead == nil {
		t.dead = make(map[int]bool)
	}
	t.dead[pos] = true
}

// LiveRows counts rows that are not tombstoned.
func (t *Table) LiveRows() int { return t.NumRows() - len(t.dead) }

// Counters accumulates the execution measurements compared against the
// optimizer's estimates.
type Counters struct {
	BytesRead  float64
	TuplesRead int64
	Probes     int64
	Scans      int64
	TuplesOut  int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.BytesRead += other.BytesRead
	c.TuplesRead += other.TuplesRead
	c.Probes += other.Probes
	c.Scans += other.Scans
	c.TuplesOut += other.TuplesOut
}

// Options selects the executor implementation. The zero value runs the
// vectorized batch executor (columnar position vectors flowing through
// scan/filter/join/project operators in chunks of BatchSize rows).
type Options struct {
	// RowAtATime runs the original per-tuple iterator over binding maps
	// instead — kept as the reference implementation for differential
	// tests and as the baseline the batch executor's speedup is measured
	// against. Both executors run the same physical plan and maintain
	// identical Counters.
	RowAtATime bool
}

// Database is a set of tables instantiating one relational catalog.
type Database struct {
	Cat    *relational.Catalog
	Tables map[string]*Table
	// Stats counts work done by Execute calls. Executions accrue into a
	// local Counters and fold in once under statsMu; concurrent readers
	// should use Measured instead of the field.
	Stats Counters
	// Exec selects the executor implementation for Execute/ExecuteBlock.
	Exec Options

	statsMu sync.Mutex
}

// addStats folds one execution's counters into the database totals.
func (db *Database) addStats(c Counters) {
	db.statsMu.Lock()
	db.Stats.Add(c)
	db.statsMu.Unlock()
}

// Measured snapshots the accumulated execution counters; unlike reading
// Stats directly, it is safe against concurrent executions.
func (db *Database) Measured() Counters {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	return db.Stats
}

// NewDatabase creates empty tables for every relation in the catalog.
func NewDatabase(cat *relational.Catalog) *Database {
	db := &Database{Cat: cat, Tables: make(map[string]*Table, len(cat.Order))}
	for _, name := range cat.Order {
		db.Tables[name] = NewTable(cat.Tables[name])
	}
	return db
}

// Table returns the named table, or nil.
func (db *Database) Table(name string) *Table { return db.Tables[name] }

// RowCount sums live rows over all tables.
func (db *Database) RowCount() int {
	total := 0
	for _, t := range db.Tables {
		total += t.LiveRows()
	}
	return total
}

// String summarizes table sizes.
func (db *Database) String() string {
	var b strings.Builder
	for _, name := range db.Cat.Order {
		fmt.Fprintf(&b, "%-24s %8d rows\n", name, db.Tables[name].NumRows())
	}
	return b.String()
}
