package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"legodb/internal/faults"
	"legodb/internal/optimizer"
	"legodb/internal/plan"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
)

// Incremental evaluation (the per-evaluator reuse layers).
//
// A greedy move rewrites exactly one named type, yet the baseline
// pipeline re-maps the whole p-schema and re-translates and re-costs the
// whole workload per candidate. The layers here exploit the locality:
//
//   - delta re-mapping: the evaluator's relational.Mapper memoizes
//     column templates per shallow definition digest, so an unchanged
//     definition's columns are reused by pointer (see relational.Mapper);
//   - per-query cost reuse: each workload slot memoizes its recent
//     translate+cost outcomes keyed by the dependency state the
//     translation actually read (queryCacheKey below), so queries
//     untouched by a transformation skip xquery.Translate and
//     optimizer.QueryCost entirely;
//   - materialized-configuration reuse: every full evaluation is
//     remembered under the schema's name-sensitive digest, so a
//     cost-cache hit that wins an iteration no longer pays a
//     re-evaluation just to recover its catalog and DDL.
//
// Hard invariant: incremental and full evaluation produce bit-identical
// costs (cached floats are the stored outputs of an identical
// computation, and the weighted summation order never changes),
// byte-identical traces and byte-identical DDL (the materialization
// cache keys on a name-sensitive schema digest, which pins type and
// table names).

const (
	// queryVariantsCap bounds the memoized outcomes per dependency group
	// (greedy neighborhoods revisit a bounded set of dependency states).
	queryVariantsCap = 16
	// queryGroupsCap bounds the distinct dependency lists per workload
	// slot. Successive candidates mostly reuse a few lists (a rewrite
	// far from the query's path leaves its dependency list intact), but
	// inlining and outlining near the path rename the examined types, so
	// a search accumulates dozens of lists per query.
	queryGroupsCap = 64
	// matCacheCap bounds the materialized-configuration cache.
	matCacheCap = 256
)

// queryVariant is one memoized translate+cost outcome for a workload
// query: the key its dependency state hashed to, and the cost. Variants
// deliberately do NOT retain the translated AST: a search stores
// hundreds of variants, and a pointer-dense AST graph per variant turns
// every GC cycle into a scan of the whole translation history — the
// scan time was measured eating the entire incremental saving on small
// heaps. The AST a shape hit needs to re-cost lives once per group
// (depsGroup.shapeAST), bounding retained ASTs by distinct dependency
// lists instead of distinct dependency states.
type queryVariant struct {
	key  uint64 // full dependency-state key: structure + statistics
	skey uint64 // shape key: structure only (see depKey)
	cost float64
}

// depsGroup collects the variants whose translations examined the same
// named types. Grouping makes lookups cheap: the dependency-state key is
// a pure function of (root, deps, digests, catalog), so one hash per
// group decides every variant in it — a lookup costs one hash per
// distinct dependency list plus uint64 compares, not one hash per
// stored variant. shapeAST is the most recently stored translation for
// this dependency list together with its shape key: when a lookup's
// shape key matches, the AST is exactly what re-translation would
// produce and only re-costing is paid.
type depsGroup struct {
	deps     []string
	variants []queryVariant
	shapeKey uint64
	shapeAST *sqlast.Query // nil for update slots
}

// queryShardCount shards the per-query store by query digest: every
// worker consults the store for every workload slot of every candidate,
// so a single mutex would serialize the pool's hottest read path.
const queryShardCount = 16

// queryStore holds memoized translate+cost outcomes grouped by query
// digest. It lives inside a shared CostCache when the evaluator has one
// (so searches over the same queries reuse each other's translations),
// falling back to an evaluator-local store otherwise. Races store
// identical values (the key determines the outputs), so last-write-wins
// is sound. The zero value is ready to use.
//
// Mutation is copy-on-write on the group slice: put reassigns m[qdig]
// with a fresh header and never shrinks or rewrites array elements a
// concurrent snapshot can see (appends past a reader's len are
// invisible; evictions copy), so snapshots are scanned without the lock.
type queryStore struct {
	shards [queryShardCount]queryShard
}

type queryShard struct {
	mu sync.Mutex
	m  map[uint64][]depsGroup
}

func (qs *queryStore) shard(qdig uint64) *queryShard {
	return &qs.shards[(qdig^qdig>>32)&(queryShardCount-1)]
}

// snapshot returns the dependency groups stored under a query digest.
func (qs *queryStore) snapshot(qdig uint64) []depsGroup {
	sh := qs.shard(qdig)
	sh.mu.Lock()
	gs := sh.m[qdig]
	sh.mu.Unlock()
	return gs
}

// put stores a variant under a query digest and its dependency list,
// evicting the oldest variant (or group) on overflow. q, when non-nil,
// becomes the group's shape AST (the translation matching v.skey).
func (qs *queryStore) put(qdig uint64, deps []string, v queryVariant, q *sqlast.Query) {
	sh := qs.shard(qdig)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m == nil {
		sh.m = make(map[uint64][]depsGroup)
	}
	gs := append(sh.m[qdig][:0:0], sh.m[qdig]...)
	gi := -1
	for i := range gs {
		if slicesEqual(gs[i].deps, deps) {
			gi = i
			break
		}
	}
	switch {
	case gi < 0:
		// New dependency lists go to the front: lookups scan in order, and
		// a search's hits cluster in recently created groups. The oldest
		// list falls off the tail.
		if len(gs) >= queryGroupsCap {
			gs = gs[:queryGroupsCap-1]
		}
		g := depsGroup{deps: deps, variants: []queryVariant{v}}
		if q != nil {
			g.shapeKey, g.shapeAST = v.skey, q
		}
		gs = append(append(gs[:0:0], g), gs...)
	default:
		g := gs[gi]
		if q != nil && g.shapeKey != v.skey {
			g.shapeKey, g.shapeAST = v.skey, q
		}
		for _, old := range g.variants {
			if old.key == v.key {
				gs[gi] = g
				sh.m[qdig] = gs
				return
			}
		}
		if len(g.variants) >= queryVariantsCap {
			vs := make([]queryVariant, 0, len(g.variants))
			g.variants = append(vs, g.variants[1:]...)
		}
		g.variants = append(g.variants, v)
		gs[gi] = g
	}
	sh.m[qdig] = gs
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fnv64a primitives, inlined to keep the dependency-key hash
// allocation-free (hash/fnv's New64a escapes to the heap, and the key
// is computed once per dependency group per slot per evaluation — the
// hottest loop of the incremental path).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return fnvByte(h, 0) // terminator keeps the encoding unambiguous
}

// mixUint64 folds one 64-bit word into the chain. Its inputs are
// already-hashed words (table digests, per-name state hashes), so a
// single multiply-xor-shift round diffuses them fully — much cheaper
// than the byte-at-a-time fnv loop, which dominated the dependency-key
// hash (the hottest per-candidate loop of the incremental path).
func mixUint64(h, v uint64) uint64 {
	h ^= v
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 32
	return h
}

// depState is the dependency-state view of one evaluation: the schema's
// shallow digests and the catalog, with each named type's 64-bit state
// hash memoized on first use. One evaluation consults the cache for
// every workload slot against many stored dependency lists, and those
// lists overlap heavily — memoizing per name turns each group key into
// a handful of multiplies per dependency.
// depKey is the pair of dependency-state hashes for one translation:
// full covers everything translate+cost reads (type structure and table
// statistics), shape covers only what translate reads (structure). A
// full match reuses the stored cost and query outright; a shape-only
// match reuses the stored query AST — the expensive half — and pays
// only re-costing against the current catalog. Shape-only matches are
// common in a search: a transformation's cardinality effects cascade
// into descendant tables' row estimates without touching their
// structure.
type depKey struct {
	full, shape uint64
}

type depState struct {
	root    uint64 // fnv state after hashing the root name
	digests map[string]xschema.Fingerprint
	cat     *relational.Catalog
	names   map[string]depKey
}

// acquireDepState returns a depState initialized for one evaluation,
// reusing a pooled instance (and its per-name memo map) when one is
// free. Release with releaseDepState when the evaluation is done.
func (e *Evaluator) acquireDepState(ps *xschema.Schema, cat *relational.Catalog, digests map[string]xschema.Fingerprint) *depState {
	st, _ := e.depPool.Get().(*depState)
	if st == nil {
		st = &depState{names: make(map[string]depKey, len(digests))}
	} else {
		clear(st.names)
	}
	st.root = fnvStr(fnvOffset64, ps.Root)
	st.digests = digests
	st.cat = cat
	return st
}

// releaseDepState returns a depState to the pool, dropping references
// to the evaluation's schema state.
func (e *Evaluator) releaseDepState(st *depState) {
	st.digests, st.cat = nil, nil
	e.depPool.Put(st)
}

// acquireDigests computes the schema's shallow type digests into a
// pooled map; release with releaseDigests.
func (e *Evaluator) acquireDigests(ps *xschema.Schema) map[string]xschema.Fingerprint {
	m, _ := e.digPool.Get().(map[string]xschema.Fingerprint)
	if m == nil {
		m = make(map[string]xschema.Fingerprint, len(ps.Types))
	}
	return ps.TypeDigestsInto(m)
}

func (e *Evaluator) releaseDigests(m map[string]xschema.Fingerprint) {
	e.digPool.Put(m)
}

// stateOf hashes everything a translation can read about one named
// type: its name, its shallow definition digest and its table's content
// digest (with explicit markers for aliases and absent names or
// tables). The full hash chains the table's complete digest; the shape
// hash chains only its structural ShapeDigest, so it is stable across
// statistics-only table changes.
func (st *depState) stateOf(name string) depKey {
	if v, ok := st.names[name]; ok {
		return v
	}
	h := fnvStr(fnvOffset64, name)
	if dig, ok := st.digests[name]; ok {
		for _, b := range dig {
			h = fnvByte(h, b)
		}
	} else {
		h = fnvByte(h, 0xFF) // name undefined in this schema
	}
	k := depKey{}
	tblName, mapped := st.cat.TableOf[name]
	switch {
	case !mapped:
		h = fnvByte(h, 'n') // type unknown to the catalog
		k = depKey{full: h, shape: h}
	case tblName == "":
		h = fnvByte(h, 'a') // alias: no table of its own
		k = depKey{full: h, shape: h}
	default:
		tbl := st.cat.Table(tblName)
		if tbl == nil {
			h = fnvByte(h, 'm') // mapped but missing (malformed)
			k = depKey{full: h, shape: h}
		} else {
			h = fnvByte(h, 't')
			k = depKey{full: mixUint64(h, tbl.Digest), shape: mixUint64(h, tbl.ShapeDigest)}
		}
	}
	st.names[name] = k
	return k
}

// keyOf hashes the dependency state of one translation: the root name
// plus the state of every examined type, in examination order.
// Translation is a deterministic function whose only schema reads are
// the root name and the examined definitions, and whose only catalog
// reads are those types' tables; query and update costing read only the
// tables the translation referenced. So if a stored variant's key
// matches the current state, re-running translate+cost would reproduce
// the stored result bit for bit.
func (st *depState) keyOf(deps []string) depKey {
	k := depKey{full: st.root, shape: st.root}
	for _, name := range deps {
		s := st.stateOf(name)
		k.full = mixUint64(k.full, s.full)
		k.shape = mixUint64(k.shape, s.shape)
	}
	return k
}

// queryCacheKey is keyOf over a one-shot depState (test seam); it
// returns the full key.
func queryCacheKey(root string, deps []string, digests map[string]xschema.Fingerprint, cat *relational.Catalog) uint64 {
	st := &depState{root: fnvStr(fnvOffset64, root), digests: digests, cat: cat, names: map[string]depKey{}}
	return st.keyOf(deps).full
}

// blockStoreFor returns the block-costing memo the evaluator's plan
// spaces feed: the shared cache's when one is attached (so sibling
// candidates and repeated searches share block costings for tables whose
// statistics did not change), the evaluator's own otherwise.
func (e *Evaluator) blockStoreFor() *plan.Store {
	if e.Cache != nil {
		return &e.Cache.blocks
	}
	return &e.localBlocks
}

// sharedMapper returns the evaluator's memoizing relational mapper.
func (e *Evaluator) sharedMapper() *relational.Mapper {
	e.mapperOnce.Do(func() {
		e.mapper = relational.NewMapper(relational.Options{RootCount: e.RootCount})
	})
	return e.mapper
}

// slotDigests computes each workload slot's identity digest once: the
// query or update text plus the cost-model digest (outcomes under a
// different cost model must never be reused). Together with the
// per-variant dependency-state key, this is the full cache identity —
// weights and root counts stay out (raw per-slot costs are stored;
// root-count effects reach costs only through table statistics, which
// the dependency key covers).
func (e *Evaluator) slotDigests() []uint64 {
	e.qdigOnce.Do(func() {
		mid := ModelID(e.Model)
		digest := func(tag byte, text string) uint64 {
			h := fnv.New64a()
			var b [9]byte
			b[0] = tag
			for i := 0; i < 8; i++ {
				b[i+1] = byte(mid >> (8 * i))
			}
			h.Write(b[:])
			h.Write([]byte(text))
			return h.Sum64()
		}
		out := make([]uint64, 0, len(e.Workload.Entries)+len(e.Workload.Updates))
		for _, en := range e.Workload.Entries {
			out = append(out, digest('q', en.Query.String()))
		}
		for _, u := range e.Workload.Updates {
			out = append(out, digest('u', u.Update.String()))
		}
		e.qdigests = out
	})
	return e.qdigests
}

// queryStoreFor returns the per-query memoization store: the shared
// cache's when one is attached (cross-search reuse), the evaluator's
// own otherwise.
func (e *Evaluator) queryStoreFor() *queryStore {
	if e.Cache != nil {
		return &e.Cache.queries
	}
	return &e.localQueries
}

// qhitKind classifies a per-query cache lookup: a full hit reuses the
// stored cost and translation, a shape hit reuses only the translation
// (the dependency structure matched but some table statistics changed,
// so the caller must re-cost the stored AST), a miss reuses nothing.
type qhitKind int

const (
	qmiss qhitKind = iota
	qhitShape
	qhitFull
)

// cachedQueryCost scans a workload slot's stored variants for one whose
// dependency state matches the current schema and catalog: one hash per
// dependency group, one uint64 compare per variant. A full-key match
// anywhere wins (the returned AST is the group's shape AST when its
// shape key still matches, nil otherwise — hits intentionally do not
// guarantee an AST, see queryVariant); failing that, the first
// shape-key match with a stored translation is returned for re-costing,
// together with its dependency list and the keys the new costing
// should be stored under.
func (e *Evaluator) cachedQueryCost(slot int, st *depState) (float64, *sqlast.Query, []string, depKey, qhitKind) {
	groups := e.queryStoreFor().snapshot(e.slotDigests()[slot])
	var shapeQ *sqlast.Query
	var shapeDeps []string
	var shapeKey depKey
	for gi := range groups {
		g := &groups[gi]
		key := st.keyOf(g.deps)
		for vi := range g.variants {
			v := &g.variants[vi]
			if v.key == key.full {
				e.qhits.Add(1)
				var ast *sqlast.Query
				if g.shapeAST != nil && g.shapeKey == key.shape {
					ast = g.shapeAST
				}
				return v.cost, ast, g.deps, key, qhitFull
			}
		}
		if shapeQ == nil && g.shapeAST != nil && g.shapeKey == key.shape {
			shapeQ, shapeDeps, shapeKey = g.shapeAST, g.deps, key
		}
	}
	if shapeQ != nil {
		e.qhits.Add(1)
		return 0, shapeQ, shapeDeps, shapeKey, qhitShape
	}
	e.qmisses.Add(1)
	return 0, nil, nil, depKey{}, qmiss
}

// storeQueryCost memoizes a slot's translate+cost outcome.
func (e *Evaluator) storeQueryCost(slot int, key depKey, deps []string, cost float64, q *sqlast.Query) {
	e.queryStoreFor().put(e.slotDigests()[slot], deps, queryVariant{key: key.full, skey: key.shape, cost: cost}, q)
}

// namedKeyFrom derives a name-sensitive schema key from the shallow
// digest map the evaluation already computed: the root, the definition
// order, and each definition's shallow digest. Shallow digests encode
// Refs by target name, so this triple determines the schema's rendered
// form exactly as xschema.NamedDigest does — without re-walking the
// definition trees.
func namedKeyFrom(ps *xschema.Schema, digests map[string]xschema.Fingerprint) xschema.Fingerprint {
	h := xschema.NewHash128()
	h.Str(ps.Root)
	h.Byte(0)
	for _, name := range ps.Names {
		h.Str(name)
		h.Byte(0)
		if d, ok := digests[name]; ok {
			h.Bytes(d[:])
		} else {
			h.Byte('?')
		}
	}
	return h.Sum()
}

// rememberConfig stores a fully evaluated configuration under its
// schema's derived name-sensitive key (FIFO-bounded). Only
// configurations at least as cheap as the cheapest seen are kept: a
// search only ever materializes iteration winners, which are cheapest-
// so-far by construction, and each remembered Config pins its schema,
// catalog and translated queries — retaining one per candidate turns
// every GC cycle into a scan of the search's whole history.
func (e *Evaluator) rememberConfig(ps *xschema.Schema, digests map[string]xschema.Fingerprint, cfg Config) {
	e.matMu.Lock()
	defer e.matMu.Unlock()
	if len(e.matCache) > 0 && cfg.Cost > e.matBest {
		return
	}
	e.matBest = cfg.Cost
	key := namedKeyFrom(ps, digests)
	if e.matCache == nil {
		e.matCache = make(map[xschema.Fingerprint]*Config)
	}
	if _, ok := e.matCache[key]; ok {
		return
	}
	e.matCache[key] = &cfg
	e.matOrder = append(e.matOrder, key)
	for len(e.matCache) > matCacheCap {
		oldest := e.matOrder[0]
		e.matOrder = e.matOrder[1:]
		delete(e.matCache, oldest)
	}
}

// lookupConfig returns the remembered configuration for a schema, or
// nil. The returned config's schema renders byte-identically to ps (the
// key pins root, definition order, names and annotated bodies), so
// substituting it preserves traces and DDL exactly.
func (e *Evaluator) lookupConfig(ps *xschema.Schema) *Config {
	digests := e.acquireDigests(ps)
	key := namedKeyFrom(ps, digests)
	e.releaseDigests(digests)
	e.matMu.Lock()
	defer e.matMu.Unlock()
	return e.matCache[key]
}

// errMemoInconsistent reports an incremental evaluation that found its
// memoized state out of step with the schema in hand (e.g. a cached
// per-query variant without its translated query). The evaluator treats
// it as a signal to fall back to the full pipeline for this candidate —
// a counted graceful degradation, never a trusted-but-wrong cost.
var errMemoInconsistent = errors.New("core: inconsistent memo state")

// evaluateIncremental is the incremental counterpart of evaluateFull:
// same pipeline, same summation order, but each workload slot first
// consults its per-query cost cache and only re-translates and re-costs
// on a dependency-state change.
//
// materialize selects what a hit without a retained translation does:
// during the search (false) the slot's cached cost is used as-is and
// the evaluation returns a cost-only Config — candidates only race on
// cost, so translations for hit slots are pure overhead there; when
// materializing a winner (true) such slots re-translate so the returned
// Config carries the complete catalog and query set.
func (e *Evaluator) evaluateIncremental(ctx context.Context, ps *xschema.Schema, materialize bool) (Config, error) {
	if err := faults.Inject(faults.SiteMemo); err != nil {
		return Config{}, errMemoInconsistent
	}
	digests := e.acquireDigests(ps)
	defer e.releaseDigests(digests)
	cat, err := e.sharedMapper().Map(ps, digests)
	if err != nil {
		return Config{}, err
	}
	var opt *optimizer.Optimizer
	getOpt := func() *optimizer.Optimizer {
		if opt == nil {
			opt = optimizer.New(cat)
			if e.Model != nil {
				opt.Model = *e.Model
			}
		}
		return opt
	}
	// The plan space is per-evaluation (it threads this catalog's table
	// digests into its memo keys); the store behind it outlives the
	// evaluation. Lazily built: evaluations fully answered by the
	// per-query cache never cost a block.
	var space *plan.Space
	getSpace := func() *plan.Space {
		if space == nil {
			space = plan.NewSpace(getOpt(), ModelID(e.Model), e.blockStoreFor())
		}
		return space
	}
	defer func() {
		if space != nil {
			e.blocksReq.Add(space.Requested)
			e.blocksCosted.Add(space.Computed)
		}
	}()
	queries := make([]*sqlast.Query, len(e.Workload.Entries))
	st := e.acquireDepState(ps, cat, digests)
	defer e.releaseDepState(st)
	total, wsum := 0.0, 0.0
	complete := true
	for i, entry := range e.Workload.Entries {
		if err := ctx.Err(); err != nil {
			return Config{}, err
		}
		cost, sq, deps, key, kind := e.cachedQueryCost(i, st)
		if kind == qhitFull && sq == nil {
			// A hit whose group no longer holds this state's translation:
			// the cost stands.
			if !materialize {
				// The returned Config will be cost-only (Materialize
				// re-derives the winner's queries; see below).
				complete = false
			} else {
				// Re-derive just the translation; re-storing it refreshes
				// the group's shape AST for later materializations.
				sq, deps, err = xquery.TranslateDeps(entry.Query, ps, cat)
				if err != nil {
					return Config{}, err
				}
				key = st.keyOf(deps)
				e.translations.Add(1)
				e.storeQueryCost(i, key, deps, cost, sq)
			}
		}
		if kind != qhitFull {
			if kind == qmiss {
				sq, deps, err = xquery.TranslateDeps(entry.Query, ps, cat)
				if err != nil {
					return Config{}, err
				}
				key = st.keyOf(deps)
				e.translations.Add(1)
			}
			// On a shape hit the stored AST is what re-translation would
			// produce (translation reads only the structure the shape key
			// covers), so only the costing below is paid.
			cost, err = getSpace().QueryCost(sq)
			if err != nil {
				return Config{}, err
			}
			e.storeQueryCost(i, key, deps, cost, sq)
		}
		queries[i] = sq
		total += cost * entry.Weight
		wsum += entry.Weight
	}
	for j, ue := range e.Workload.Updates {
		if err := ctx.Err(); err != nil {
			return Config{}, err
		}
		slot := len(e.Workload.Entries) + j
		// Update variants store no query AST, so shape hits never fire
		// for them (cachedQueryCost requires a stored translation): kind
		// is qhitFull or qmiss.
		cost, _, _, _, kind := e.cachedQueryCost(slot, st)
		if kind != qhitFull {
			targets, deps, err := xquery.ResolveUpdateDeps(ue.Update, ps, cat)
			if err != nil {
				return Config{}, err
			}
			cost, err = getOpt().UpdateCost(ue.Update, targets)
			if err != nil {
				return Config{}, err
			}
			e.translations.Add(1)
			e.storeQueryCost(slot, st.keyOf(deps), deps, cost, nil)
		}
		total += cost * ue.Weight
		wsum += ue.Weight
	}
	if wsum == 0 {
		return Config{}, fmt.Errorf("core: workload has zero total weight")
	}
	if !complete {
		// Cost-only result: some slot's cost came from a variant whose
		// translation is no longer retained. The search only compares
		// costs; the winning configuration's catalog and queries are
		// derived once by Materialize, which refuses cost-only configs.
		return Config{Schema: ps, Cost: total / wsum}, nil
	}
	cfg := Config{Schema: ps, Catalog: cat, Queries: queries, Cost: total / wsum}
	e.rememberConfig(ps, digests, cfg)
	return cfg, nil
}
