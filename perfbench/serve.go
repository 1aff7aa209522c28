package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"legodb"
	"legodb/internal/imdb"
	"legodb/internal/server"
	"legodb/internal/xmltree"
)

const tenantName = "advised"

// lookupWorkloadQueries and joinWorkloadQueries are the declared
// workloads the serving tenants are advised for.
var (
	lookupWorkloadQueries = []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"}
	joinWorkloadQueries   = []string{"Q8", "Q9", "Q11", "Q12", "Q13"}
)

// sink is a reusable http.ResponseWriter, so the client side of an
// in-process request allocates nothing the server does not.
type sink struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (s *sink) Header() http.Header { return s.hdr }

func (s *sink) Write(b []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.body.Write(b)
}

func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

// client issues in-process requests straight into the server's handler:
// routing, admission, JSON and the store run as under legodbd, with no
// sockets between.
type client struct {
	h http.Handler
	w sink
}

func newClient() *client { return &client{w: sink{hdr: make(http.Header)}} }

// post times one request; the response body stays in c.w.body until
// the next request.
func (c *client) post(path string, body []byte) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	clear(c.w.hdr)
	c.w.code = 0
	c.w.body.Reset()
	start := time.Now()
	c.h.ServeHTTP(&c.w, req)
	d := time.Since(start)
	if c.w.code != http.StatusOK {
		return d, fmt.Errorf("%s: status %d: %s", path, c.w.code, bytes.TrimSpace(c.w.body.Bytes()))
	}
	return d, nil
}

func tenantSpec(queries []string) server.TenantSpec {
	spec := server.TenantSpec{Name: tenantName, Schema: imdb.SchemaText, Stats: imdb.StatsText, Config: "advised"}
	for _, q := range queries {
		spec.Queries = append(spec.Queries, server.TenantQuery{Name: q, Text: imdb.Query(q).String(), Weight: 1})
	}
	return spec
}

// serverConfig is legodbd's default configuration, logging discarded;
// a non-empty storeDir persists tenant stores as legodbd -store-dir
// does.
func serverConfig(storeDir string) server.Config {
	return server.Config{StoreDir: storeDir, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

// newServer is the serving workloads' set-up: a server, the advised
// tenant (legodbd's default advise) and the document loaded into it.
// Document generation is not part of it.
func newServer(ctx context.Context, spec server.TenantSpec, storeDir string, doc *xmltree.Node, rec *recorder) (*server.Server, time.Duration, error) {
	start := time.Now()
	rec.nextOp()
	root := rec.begin("setup", -1)
	srv, err := server.New(serverConfig(storeDir))
	if err != nil {
		return nil, 0, err
	}
	sp := rec.begin("legodb.advise", root)
	err = srv.AddTenant(ctx, spec)
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = rec.begin("shred.load", root)
	err = srv.LoadDocument(tenantName, doc)
	rec.end(sp)
	rec.end(root)
	if err != nil {
		return nil, 0, err
	}
	return srv, time.Since(start), nil
}

// setUp builds the server several times and keeps the last one: setup_s
// is the median, so a single slow set-up does not move it.
func setUp(ctx context.Context, cfg config, spec server.TenantSpec, storeDir string, doc *xmltree.Node, rec *recorder, rep *report) (*server.Server, error) {
	var times []float64
	var srv *server.Server
	begun := time.Now()
	for len(times) < cfg.scale.setups || (len(times) < maxSetups && time.Since(begun) < setupBudget) {
		srv = nil // let the collection below free the previous set-up
		runtime.GC()
		s, d, err := newServer(ctx, spec, storeDir, doc, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		srv = s
		times = append(times, d.Seconds())
	}
	rep.setE2E("setup_s", median(times), fmt.Sprintf("median of %d set-ups", len(times)))
	return srv, nil
}

// advisedCost prices the tenant's installed configuration under its
// declared workload with the advisor's cost model.
func advisedCost(store *legodb.Store, spec server.TenantSpec) (float64, error) {
	eng, err := legodb.New(spec.Schema)
	if err != nil {
		return 0, err
	}
	if err := eng.SetStatisticsText(spec.Stats); err != nil {
		return 0, err
	}
	for _, q := range spec.Queries {
		if err := eng.AddQuery(q.Name, q.Text, q.Weight); err != nil {
			return 0, err
		}
	}
	return store.EstimatedCost(eng, eng.Workload(), 0)
}

// queryOp is one seeded request with its oracle answer.
type queryOp struct {
	body []byte
	want [][]string
}

func queryBody(text string, params map[string]string) []byte {
	b, _ := json.Marshal(map[string]any{"query": text, "params": params})
	return b
}

// lookupOps draws a lookup op sequence: one of the queries with a title
// (a year for Q3) taken from a show of the document.
func lookupOps(seed int64, n int, ix *showIndex, queries []lookupQuery) []queryOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]queryOp, n)
	for i := range ops {
		q := queries[rng.Intn(len(queries))]
		show := ix.shows[rng.Intn(len(ix.shows))]
		param, _ := showField(show, q.key)
		ops[i] = queryOp{
			body: queryBody(imdb.Query(q.name).String(), map[string]string{"c1": param}),
			want: ix.expect(q, param),
		}
	}
	return ops
}

// serveWorkload describes one serving workload.
type serveWorkload struct {
	queries []string
	shows   func(scale) int
	clients int
	tailQ   float64
	// query ops (serve-lookup, serve-join) or write ops (serve-write)
	queryOps func(seed int64, doc *xmltree.Node, ix *showIndex) []queryOp
	writes   bool
}

var serveWorkloads = map[string]serveWorkload{
	"serve-lookup": {
		queries: lookupWorkloadQueries, shows: func(s scale) int { return s.lookupShows },
		clients: 2, tailQ: 0.99,
		queryOps: func(seed int64, _ *xmltree.Node, ix *showIndex) []queryOp {
			return lookupOps(seed, opSequenceLen, ix, lookupQueries)
		},
	},
	"serve-join": {
		queries: joinWorkloadQueries, shows: func(s scale) int { return s.joinShows },
		clients: 1, tailQ: 0.90,
		queryOps: func(_ int64, doc *xmltree.Node, _ *showIndex) []queryOp {
			return []queryOp{{body: queryBody(imdb.Query("Q12").String(), nil), want: q12Rows(doc)}}
		},
	},
	"serve-write": {
		queries: lookupWorkloadQueries, shows: func(s scale) int { return s.lookupShows },
		clients: 2, tailQ: 0.99, writes: true,
	},
}

// opSequenceLen is the length of a seeded op sequence. Clients cycle
// through it, so every response after the first of an op is checked by
// a byte comparison; serve-write restarts the server after each pass.
const opSequenceLen = 2048

// live is the server the clients talk to; serve-write replaces it at
// each restart. Ops read it holding the loop's gate shared, restarts
// replace it holding the gate exclusively.
type live struct {
	srv      *server.Server
	spec     server.TenantSpec
	storeDir string
	rows     int // TotalRows every reopened store must have
}

// do runs one request of cl against the current server.
func (l *live) do(cl *client, f func() (time.Duration, error)) (time.Duration, error) {
	cl.h = l.srv.Handler()
	return f()
}

func (l *live) store() *legodb.Store { return l.srv.TenantStore(tenantName) }

// restart is legodbd's -store-dir drain and restart, timed as a snapshot
// cycle: the tenant's store is saved into the store directory and a new
// server reopens it instead of advising. Deletes leave tombstones that
// every later hash join over the table scans; the snapshot drops them,
// so restarting after each pass over the write sequence keeps the write
// op's cost level across a run instead of growing with its length.
func (l *live) restart(ctx context.Context, s *snapshotter) error {
	return s.cycle(l.store(), func() error {
		srv, err := server.New(serverConfig(l.storeDir))
		if err != nil {
			return err
		}
		if err := srv.AddTenant(ctx, l.spec); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		if n := srv.TenantStore(tenantName).TotalRows(); n != l.rows {
			return fmt.Errorf("restarted store has %d rows, set-up had %d", n, l.rows)
		}
		l.srv = srv
		return nil
	})
}

func runServe(ctx context.Context, cfg config, wl serveWorkload, rec *recorder, rep *report) error {
	doc := imdb.Generate(imdb.GenOptions{Shows: wl.shows(cfg.scale), Seed: cfg.seed})
	ix := indexShows(doc)
	var xml bytes.Buffer
	if err := doc.Encode(&xml); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "stores-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l := &live{spec: tenantSpec(wl.queries)}
	if wl.writes {
		// legodbd -store-dir: restarts reopen the tenant's snapshot.
		l.storeDir = dir
	}
	srv, err := setUp(ctx, cfg, l.spec, l.storeDir, doc, rec, rep)
	if err != nil {
		return err
	}
	l.srv = srv
	cost, err := advisedCost(l.store(), l.spec)
	if err != nil {
		return err
	}
	rep.setE2E("advised_cost", cost, "tenant configuration under its declared workload")
	l.rows = l.store().TotalRows()
	published, err := canonicalPublish(l.store())
	if err != nil {
		return err
	}

	g := &gate{}
	snap := &snapshotter{path: filepath.Join(dir, tenantName+".store"), rec: rec}
	w := &serveOps{}
	var m *maintenance
	if wl.writes {
		w.writes = writeOps(cfg.seed, opSequenceLen, ix)
		w.queries = lookupOps(cfg.seed+1, opSequenceLen, ix, lookupQueries[1:2]) // Q2 reads
		// Every pass over the write sequence, the first included, runs on
		// a freshly reopened store.
		if err := g.exclusive(func() error { return l.restart(ctx, snap) }); err != nil {
			return err
		}
		var restartedAt int64
		m = &maintenance{
			due: func() bool { return w.written.Load()-restartedAt >= int64(len(w.writes)) },
			run: func() error {
				restartedAt = w.written.Load()
				return l.restart(ctx, snap)
			},
		}
	} else {
		w.queries = wl.queryOps(cfg.seed, doc, ix)
		m = snap.every(l.store)
	}
	if err := w.warmUp(l); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if cfg.trace {
		err = traceServe(ctx, cfg, wl, l, w, g, m, rec, rep)
	} else {
		err = measureServe(cfg, wl, l, w, g, m, rep)
	}
	if err != nil {
		return err
	}

	store := l.store()
	if wl.writes {
		// Every insert was undone by its delete: the store is back to its
		// set-up state.
		if n := store.TotalRows(); n != l.rows {
			rep.problem("TotalRows %d after the write loop, %d after set-up", n, l.rows)
		}
		after, err := canonicalPublish(store)
		if err != nil {
			return err
		}
		if after != published {
			rep.problem("canonical Publish after the write loop differs from set-up")
		}
	}
	return snap.finish(cfg, store, xml.Len(), rep)
}

// serveOps is a serving workload's seeded op sequences: queries (the
// op, or the reads beside the writer) and writes.
type serveOps struct {
	queries []queryOp
	writes  []writeOp
	written atomic.Int64 // writer ops issued, for serve-write's restarts
}

const queryPath = "/tenants/" + tenantName + "/query"

// warmUp issues one op of each kind, untimed and uncounted.
func (w *serveOps) warmUp(l *live) error {
	cl := newClient()
	if len(w.writes) > 0 {
		if _, err := l.do(cl, func() (time.Duration, error) { return cl.postWrite(w.writes[len(w.writes)-1]) }); err != nil {
			return err
		}
	}
	_, err := l.do(cl, func() (time.Duration, error) { return cl.post(queryPath, w.queries[len(w.queries)-1].body) })
	return err
}

// query runs query op k through the handler and checks the answer.
func (w *serveOps) query(l *live, cl *client, chk *queryChecker, k int) (time.Duration, error) {
	k %= len(w.queries)
	return l.do(cl, func() (time.Duration, error) {
		d, err := cl.post(queryPath, w.queries[k].body)
		if err == nil {
			err = chk.check(k, cl.w.body.Bytes(), w.queries[k].want)
		}
		return d, err
	})
}

// write runs writer op k through the handler.
func (w *serveOps) write(l *live, cl *client, k int) (time.Duration, error) {
	defer w.written.Add(1)
	return l.do(cl, func() (time.Duration, error) { return cl.postWrite(w.writes[k%len(w.writes)]) })
}

// measureServe is the untraced run: the end-to-end metrics.
func measureServe(cfg config, wl serveWorkload, l *live, w *serveOps, g *gate, m *maintenance, rep *report) error {
	clients := make([]*client, wl.clients)
	checkers := make([]*queryChecker, wl.clients)
	for c := range clients {
		clients[c] = newClient()
		checkers[c] = newQueryChecker()
	}
	lat, wall, cpu := closedLoop(wl.clients, cfg.duration(), cfg.scale.ops, rep, g, m, func(c, i int) (time.Duration, error) {
		if wl.writes {
			if c == 0 {
				return w.write(l, clients[c], i)
			}
			return w.query(l, clients[c], checkers[c], i)
		}
		// Clients start at different points of the sequence.
		return w.query(l, clients[c], checkers[c], c*len(w.queries)/wl.clients+i)
	})
	rep.note("snapshot cycles and restarts between ops: %.2fs, not loop time", g.wall.Seconds())
	if !wl.writes {
		var all latencies
		for _, c := range lat {
			all = append(all, c...)
		}
		opStats(rep, all, wl.tailQ, wall, cpu)
		return nil
	}
	opStats(rep, lat[0], wl.tailQ, wall, cpu)
	reads := lat[1]
	p99, beyond := reads.tail(0.99)
	rep.note("read_p50_ms = %.4f ms (Q2 beside the writer, n=%d)", quantile(reads.sorted(), 0.5), len(reads))
	rep.note("read_p99_ms = %.4f ms (n=%d, %d beyond)", p99, len(reads), beyond)
	return nil
}

// canonicalPublish renders the store's documents up to sibling order.
func canonicalPublish(store *legodb.Store) (string, error) {
	docs, err := store.Publish()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, d := range docs {
		b.WriteString(canonical(d))
	}
	return b.String(), nil
}

// canonical serializes a subtree with attributes and children sorted,
// each child's form computed once (xmltree.Canonicalize re-serializes
// subtrees inside its sort, which takes seconds at 500 shows).
func canonical(n *xmltree.Node) string {
	kids := make([]string, len(n.Children))
	for i, c := range n.Children {
		kids[i] = canonical(c)
	}
	sort.Strings(kids)
	attrs := make([]string, len(n.Attrs))
	for i, a := range n.Attrs {
		attrs[i] = a.Name + "=" + strconv.Quote(a.Value)
	}
	sort.Strings(attrs)
	var b strings.Builder
	b.WriteString("<" + n.Name)
	for _, a := range attrs {
		b.WriteString(" " + a)
	}
	b.WriteString(">" + strconv.Quote(strings.TrimSpace(n.Text)))
	for _, k := range kids {
		b.WriteString(k)
	}
	b.WriteString("</" + n.Name + ">")
	return b.String()
}
