package legodb

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"legodb/internal/core"
	"legodb/internal/engine"
	"legodb/internal/relational"
	"legodb/internal/shred"
	"legodb/internal/sqlast"
	"legodb/internal/xmltree"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
)

// Store is an instantiated storage configuration: an in-memory relational
// database following the chosen mapping, with document loading, XQuery
// execution and publishing.
//
// A Store is safe for concurrent use: queries, prepared executions,
// publishing and stats reads run concurrently with each other, while
// mutations (Load, InsertChild, DeleteWhere) and executor-mode flips are
// serialized against them under a readers-writer lock — the serving
// layer's contract (one store per tenant, many concurrent requests).
type Store struct {
	// mu is the store's readers-writer lock: queries, publishing and
	// stats reads share it, mutations take it exclusively. The engine
	// below is safe for concurrent reads but not for reads racing writes.
	mu        sync.RWMutex
	schema    *xschema.Schema
	catalog   *relational.Catalog
	db        *engine.Database
	shredder  *shred.Shredder
	publisher *shred.Publisher

	// mutEpoch counts mutations (loads, deletes, inserts). A live
	// migration records it when publishing the old image and re-checks it
	// at cutover: a mismatch means the rebuilt image is stale and the
	// migration restarts instead of installing it.
	mutEpoch uint64

	// obs accumulates the observed workload from served traffic; it has
	// its own lock and survives migration (observation is a property of
	// the traffic, not of the storage configuration).
	obs *workloadObserver

	// prepared reuses PreparedQuerys by query text, so a served request
	// skips parsing, translation and planning. It holds at most
	// preparedCap entries and is cleared when full. Entries survive
	// migration: each re-plans itself on its next run.
	prepMu   sync.Mutex
	prepared map[string]*PreparedQuery
}

// preparedCap bounds Store.prepared.
const preparedCap = 256

// Open instantiates the advised configuration as an empty store.
func (a *Advice) Open() (*Store, error) {
	return openStore(a.result.Best.Schema, a.result.Best.Catalog)
}

func openStore(ps *xschema.Schema, cat *relational.Catalog) (*Store, error) {
	db := engine.NewDatabase(cat)
	return &Store{
		schema:    ps,
		catalog:   cat,
		db:        db,
		shredder:  shred.New(ps, cat, db),
		publisher: shred.NewPublisher(ps, cat, db),
		obs:       newWorkloadObserver(),
		prepared:  make(map[string]*PreparedQuery),
	}, nil
}

// Load shreds a document into the store. Documents must validate against
// the engine's schema.
func (s *Store) Load(doc *xmltree.Node) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mutEpoch++
	return s.shredder.Shred(doc)
}

// LoadXML parses and loads an XML document from a reader.
func (s *Store) LoadXML(r io.Reader) error {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return err
	}
	return s.Load(doc)
}

// Params binds query parameters (c1, c2, ...) to values. Each value
// binds according to the catalog type of the column the parameter is
// compared against in the translated query: parameters filtering an
// INT column bind as integers, parameters filtering a string column
// bind verbatim (so "007" matches a CHAR column storing "007" instead
// of being silently collapsed to the integer 7). A parameter with no
// comparison site in the query falls back to the digit heuristic:
// values that parse as integers bind as integers.
type Params map[string]string

// toEngine is the catalog-blind fallback: digit-shaped values bind as
// integers. Only used for parameters whose comparison site cannot be
// resolved; query and mutation execution bind through forBlocks.
func (p Params) toEngine() engine.Params {
	out := make(engine.Params, len(p))
	for k, v := range p {
		out[k] = looseValue(v)
	}
	return out
}

func looseValue(v string) engine.Value {
	if n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err == nil {
		return engine.IntVal(n)
	}
	return engine.StrVal(v)
}

// forBlocks binds each parameter by consulting the catalog type of the
// column it is compared against in the given blocks (the parameter's
// comparison site). INT-column parameters bind as integers when they
// parse — an unparseable value (overflow-length digits, non-numeric
// text) binds as a string and simply matches no stored integer.
// String-column parameters always bind verbatim, preserving leading
// zeros, surrounding spaces and overlong digit strings exactly as
// stored. Parameters without a site keep the loose heuristic.
func (p Params) forBlocks(cat *relational.Catalog, blocks ...*sqlast.Block) engine.Params {
	sites := paramColumnTypes(cat, blocks)
	out := make(engine.Params, len(p))
	for k, v := range p {
		ct, found := sites[k]
		switch {
		case found && ct == relational.IntCol:
			if n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err == nil {
				out[k] = engine.IntVal(n)
			} else {
				out[k] = engine.StrVal(v)
			}
		case found:
			out[k] = engine.StrVal(v)
		default:
			out[k] = looseValue(v)
		}
	}
	return out
}

// paramColumnTypes maps each parameter name to the catalog type of its
// first comparison site across the blocks (alias → table via the
// block's FROM list, then column lookup in the catalog). Sites that
// cannot be resolved are omitted.
func paramColumnTypes(cat *relational.Catalog, blocks []*sqlast.Block) map[string]relational.ColumnType {
	sites := make(map[string]relational.ColumnType)
	if cat == nil {
		return sites
	}
	for _, b := range blocks {
		if b == nil {
			continue
		}
		tableOf := make(map[string]string, len(b.Tables))
		for _, t := range b.Tables {
			if _, ok := tableOf[t.Alias]; !ok {
				tableOf[t.Alias] = t.Table
			}
		}
		for _, f := range b.Filters {
			if !f.Value.IsParam || f.RightCol != nil {
				continue
			}
			if _, seen := sites[f.Value.Param]; seen {
				continue
			}
			tbl := cat.Table(tableOf[f.Col.Alias])
			if tbl == nil {
				continue
			}
			for _, col := range tbl.Columns {
				if col.Name == f.Col.Column {
					sites[f.Value.Param] = col.Type
					break
				}
			}
		}
	}
	return sites
}

// Result is a query result: column headers and stringified rows.
type Result struct {
	Columns []string
	Rows    [][]string
}

// Query parses, translates and executes an XQuery against the store.
func (s *Store) Query(text string, params Params) (*Result, error) {
	return s.QueryContext(context.Background(), text, params)
}

// QueryContext is Query under a caller-controlled context: cancelling
// ctx (or exceeding its deadline) aborts the execution mid-plan with the
// context's error, so a served request's timeout actually stops engine
// work instead of letting it run to completion.
func (s *Store) QueryContext(ctx context.Context, text string, params Params) (*Result, error) {
	p, err := s.Prepare(text)
	if err != nil {
		return nil, err
	}
	return p.RunContext(ctx, params)
}

// PreparedQuery is a parsed, translated and planned query, reusable
// with different parameters; repeated executions skip parsing,
// translation and planning.
type PreparedQuery struct {
	store *Store
	q     *xquery.Query
	// shape is the parsed query with its report name stripped — the
	// observation key each successful execution is recorded under.
	shape *xquery.Query

	// planMu guards the cached translation and physical plan. Both are
	// bound to the catalog they were made against; when a live migration
	// swaps the store's configuration (catalog and database together),
	// the next execution re-translates and re-plans against the new one
	// instead of running a stale plan.
	planMu sync.Mutex
	sql    *sqlast.Query
	plan   *engine.Plan
	cat    *relational.Catalog
}

// Prepare parses, translates and plans an XQuery once for repeated
// execution. Preparing the same text again returns the same
// PreparedQuery.
func (s *Store) Prepare(text string) (*PreparedQuery, error) {
	s.prepMu.Lock()
	p := s.prepared[text]
	s.prepMu.Unlock()
	if p != nil {
		return p, nil
	}
	q, err := xquery.Parse(text)
	if err != nil {
		return nil, err
	}
	shape, _ := queryShape(q)
	p = &PreparedQuery{store: s, q: q, shape: shape}
	s.mu.RLock()
	_, _, err = p.planLocked(s)
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	s.prepMu.Lock()
	if len(s.prepared) >= preparedCap {
		clear(s.prepared)
	}
	s.prepared[text] = p
	s.prepMu.Unlock()
	return p, nil
}

// planLocked returns the translated query and its physical plan for the
// store's current configuration, translating and planning again when a
// migration has swapped the catalog since the last execution (or on the
// first call). The caller holds the store's read lock, pinning schema,
// catalog and database for the duration.
func (p *PreparedQuery) planLocked(s *Store) (*sqlast.Query, *engine.Plan, error) {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	if p.cat != s.catalog {
		sq, err := xquery.Translate(p.q, s.schema, s.catalog)
		if err != nil {
			return nil, nil, err
		}
		plan, err := s.db.Plan(sq)
		if err != nil {
			return nil, nil, err
		}
		p.sql, p.plan, p.cat = sq, plan, s.catalog
	}
	return p.sql, p.plan, nil
}

// SQL returns the prepared query's translated SQL (for the configuration
// it was last executed or prepared against).
func (p *PreparedQuery) SQL() string {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	return p.sql.SQL()
}

// Run executes the prepared query with the given parameters.
func (p *PreparedQuery) Run(params Params) (*Result, error) {
	return p.RunContext(context.Background(), params)
}

// RunContext executes the prepared query under a caller-controlled
// context (see Store.QueryContext).
func (p *PreparedQuery) RunContext(ctx context.Context, params Params) (*Result, error) {
	s := p.store
	s.mu.RLock()
	sql, plan, err := p.planLocked(s)
	if err != nil {
		s.mu.RUnlock()
		return nil, err
	}
	rs, err := s.db.ExecutePlan(ctx, plan, params.forBlocks(s.catalog, sql.Blocks...))
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	// Record the observation outside the serving lock: a successful
	// execution is one vote for this query shape in the observed
	// workload.
	s.obs.observeQuery(p.shape)
	out := &Result{Columns: rs.Columns}
	for _, row := range rs.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out.Rows = append(out.Rows, cells)
	}
	return out, nil
}

// ExplainQuery returns an XQuery's translated SQL and the physical plan
// the engine executes for it: per block the start relation, then per
// step the join method, join key and the predicates deferred to filters,
// with the optimizer's estimated cost and rows.
func (s *Store) ExplainQuery(text string) (string, error) {
	p, err := s.Prepare(text)
	if err != nil {
		return "", err
	}
	s.mu.RLock()
	sql, plan, err := p.planLocked(s)
	s.mu.RUnlock()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s\n%s", sql.SQL(), plan), nil
}

// Publish reconstructs all loaded documents.
func (s *Store) Publish() ([]*xmltree.Node, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.publisher.PublishAll()
}

// DDL returns the store's relational schema.
func (s *Store) DDL() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.catalog.SQL()
}

// PSchema renders the store's current physical schema in algebra
// notation (statistics annotations included) — comparable against
// Advice.PSchema to tell whether an advised configuration is already
// installed.
func (s *Store) PSchema() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.schema.String()
}

// Documents reports the number of loaded documents (live rows of the
// root type's relation; 0 when the root relation does not exist).
func (s *Store) Documents() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.db.Table(s.catalog.TableOf[s.schema.Root])
	if t == nil {
		return 0
	}
	return t.LiveRows()
}

// TableRows reports the number of live rows stored in a relation (-1
// when the relation does not exist).
func (s *Store) TableRows(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.db.Table(name)
	if t == nil {
		return -1
	}
	return t.LiveRows()
}

// Tables lists the store's relations in creation order.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.catalog.Order...)
}

// Measured returns the engine's accumulated execution counters (bytes
// read, tuples, probes) since the store was opened.
func (s *Store) Measured() engine.Counters {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.Measured()
}

// EstimatedCost prices the store's current physical schema under a
// workload (typically the observed one) with the optimizer's cost model,
// through eng's cost cache — the "is the installed configuration still
// the right one?" half of the adaptation loop's comparison. documents
// is the stored document count (0 = 1).
func (s *Store) EstimatedCost(eng *Engine, w *xquery.Workload, documents float64) (float64, error) {
	s.mu.RLock()
	ps := s.schema
	s.mu.RUnlock()
	if documents == 0 {
		documents = 1
	}
	return core.GetPSchemaCostWith(ps, w, documents, nil, eng.snapshotCache())
}

// TotalRows sums live rows over the store's relations.
func (s *Store) TotalRows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.RowCount()
}
