// Package optimizer implements the relational cost model LegoDB uses to
// rank storage configurations. Like the Volcano-derived optimizer of the
// paper (Section 5), it estimates, for each SPJ block, the cost of the
// best plan it can find — accounting for the number of seeks, the amount
// of data read and written, and CPU time — using the catalog statistics
// produced by the fixed mapping.
//
// Physical assumptions, documented for reproducibility:
//
//   - rows are stored fixed-width (CHAR semantics; NULL columns still
//     occupy space), as in the paper's SQL Server 6.5 validation target;
//   - each relation is indexed on its key (<T>_id) column only, so a
//     join can run as an index nested-loop when it enters the new
//     relation through its key; joins entering through a foreign key and
//     selections on data columns cost a scan (this matches Table 2 of
//     the paper, where the cost over the un-partitioned reviews table
//     does not change with the NYT percentage);
//   - join orders are chosen greedily from the most selective base
//     relation, choosing per step between index nested-loop and hash
//     join.
package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"legodb/internal/faults"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
)

// CostModel holds the constants of the cost function. Units are
// arbitrary "cost units"; experiments report ratios.
type CostModel struct {
	// PageSize is the IO unit in bytes.
	PageSize float64
	// SeekCost is charged per random IO (starting a scan, one index
	// probe miss).
	SeekCost float64
	// PageIOCost is charged per page read sequentially.
	PageIOCost float64
	// RandomIOPenalty multiplies page IO fetched through an index.
	RandomIOPenalty float64
	// ProbeCost is the CPU+IO cost of one index probe (descending the
	// index, warm caches).
	ProbeCost float64
	// CPUTupleCost is charged per tuple handled.
	CPUTupleCost float64
	// HashCost is charged per tuple hashed (build or probe).
	HashCost float64
	// OutputByteCost is charged per result byte materialized.
	OutputByteCost float64
	// DefaultEqSelectivity applies when no distinct count is known.
	DefaultEqSelectivity float64
	// DefaultRangeSelectivity applies to <, <=, >, >= without bounds.
	DefaultRangeSelectivity float64
	// WriteByteCost is charged per row byte written by update operations
	// (fixed-width rows rewrite whole rows).
	WriteByteCost float64
	// IndexWriteCost is charged per index maintained per row written.
	IndexWriteCost float64
}

// DefaultModel returns the calibrated constants used in the experiments.
func DefaultModel() CostModel {
	return CostModel{
		PageSize:                4096,
		SeekCost:                8,
		PageIOCost:              1,
		RandomIOPenalty:         4,
		ProbeCost:               0.5,
		CPUTupleCost:            0.01,
		HashCost:                0.012,
		OutputByteCost:          0.0004,
		DefaultEqSelectivity:    0.05,
		DefaultRangeSelectivity: 1.0 / 3,
		WriteByteCost:           0.002,
		IndexWriteCost:          1,
	}
}

// Optimizer estimates query costs over one catalog.
type Optimizer struct {
	Model CostModel
	Cat   *relational.Catalog
}

// New returns an optimizer over the catalog with the default cost model.
func New(cat *relational.Catalog) *Optimizer {
	return &Optimizer{Model: DefaultModel(), Cat: cat}
}

// Estimate is the optimizer's verdict on a block or query.
type Estimate struct {
	Cost float64
	Rows float64
	// Start and Steps are a block's chosen join plan: the relation read
	// first, then one step per further relation. The engine executes
	// exactly this plan. QueryCost's total over a query's blocks leaves
	// them empty; BlockCostShared plans the blocks one by one.
	Start string
	Steps []Step
}

// Method is how a plan step binds its relation.
type Method int

// Join methods.
const (
	// INL probes the new relation's key index once per intermediate
	// tuple (index nested-loop join).
	INL Method = iota
	// Hash scans the new relation into a hash table on the join column
	// and probes it with the intermediate tuples.
	Hash
	// Cartesian crosses the intermediate tuples with a scan of a
	// relation that no equality predicate connects.
	Cartesian
)

func (m Method) String() string { return [...]string{"inl", "hash", "cartesian"}[m] }

// Step binds one more relation into a block's intermediate result.
type Step struct {
	Alias  string
	Method Method
	// Preds indexes the block's JoinPredicates that connect Alias to the
	// relations bound before it: every cross-alias predicate that first
	// becomes evaluable at this step.
	Preds []int
	// Key is the predicate (an index into JoinPredicates, one of Preds)
	// the join runs on: the equality entering Alias through its key
	// column for INL, the most selective equality for Hash; -1 for
	// Cartesian.
	Key int
}

// QueryCost sums the best-plan costs of all blocks. Blocks of one query
// share scans: a table already read by an earlier block costs only CPU
// when read again (the paper's optimizer descends from the multi-query
// optimizer of Roy et al. [16], which shares common sub-expressions; a
// sorted-outer-union publishing query re-reads its hub relations in
// every block).
func (o *Optimizer) QueryCost(q *sqlast.Query) (Estimate, error) {
	if err := faults.Inject(faults.SiteQueryCost); err != nil {
		return Estimate{}, err
	}
	var total Estimate
	scanned := make(map[string]bool)
	for _, b := range q.Blocks {
		est, err := o.BlockCostShared(b, scanned)
		if err != nil {
			return Estimate{}, fmt.Errorf("optimizer: %s: %w", q.Name, err)
		}
		total.Cost += est.Cost
		total.Rows += est.Rows
	}
	return total, nil
}

// WorkloadCost returns the weighted average cost of translated queries:
// Σ weight_i · cost_i / Σ weight_i.
func (o *Optimizer) WorkloadCost(queries []*sqlast.Query, weights []float64) (float64, error) {
	if len(queries) != len(weights) {
		return 0, fmt.Errorf("optimizer: %d queries, %d weights", len(queries), len(weights))
	}
	total, wsum := 0.0, 0.0
	for i, q := range queries {
		est, err := o.QueryCost(q)
		if err != nil {
			return 0, err
		}
		total += est.Cost * weights[i]
		wsum += weights[i]
	}
	if wsum == 0 {
		return 0, fmt.Errorf("optimizer: zero total weight")
	}
	return total / wsum, nil
}

// rel is the per-alias working state during block costing.
type rel struct {
	alias   string
	table   *relational.Table
	rows    float64 // after local selections
	rawRows float64
	width   float64
	filters int // local selections on the alias
}

// BlockCostShared is the block-level costing unit that QueryCost composes:
// it estimates the best plan for one block given the tables already read
// by earlier blocks of the same query, and records into scanned the tables
// (and shared hash builds, under "hash:"-prefixed entries) the chosen plan
// reads. The estimate depends on the scanned set only through the entries
// for the block's own table names, and the entries it adds are likewise
// confined to those names — the invariant that lets the logical-plan layer
// (internal/plan) memoize (cost, added entries) across structurally
// identical blocks and replay them into a different query's scan state.
// A nil scanned set costs the block on its own.
func (o *Optimizer) BlockCostShared(b *sqlast.Block, scanned map[string]bool) (Estimate, error) {
	if len(b.Tables) == 0 {
		return Estimate{}, fmt.Errorf("block has no tables")
	}
	rels := make(map[string]*rel, len(b.Tables))
	var order []string
	for _, tref := range b.Tables {
		t := o.Cat.Table(tref.Table)
		if t == nil {
			return Estimate{}, fmt.Errorf("unknown table %q", tref.Table)
		}
		r := &rel{alias: tref.Alias, table: t, rows: t.Rows, rawRows: t.Rows, width: t.RowBytes()}
		if r.rows < 1 {
			r.rows = 1
		}
		if r.rawRows < 1 {
			r.rawRows = 1
		}
		rels[tref.Alias] = r
		order = append(order, tref.Alias)
	}
	preds := b.JoinPredicates()
	for _, p := range preds {
		if rels[p.Col.Alias] == nil || rels[p.RightCol.Alias] == nil {
			return Estimate{}, fmt.Errorf("predicate %s on unknown alias", p)
		}
	}
	// Local selections reduce the estimated rows of their alias.
	for _, f := range b.Filters {
		if f.IsCross() {
			continue
		}
		r := rels[f.Col.Alias]
		if r == nil {
			return Estimate{}, fmt.Errorf("filter on unknown alias %q", f.Col.Alias)
		}
		r.rows *= o.selectivity(r.table, f)
		if r.rows < 0.01 {
			r.rows = 0.01
		}
		r.filters++
	}
	est := o.greedyJoin(rels, order, preds, scanned)
	// Output cost: result rows times projected width.
	projWidth := 0.0
	for _, p := range b.Projects {
		r := rels[p.Alias]
		if r == nil {
			return Estimate{}, fmt.Errorf("projection on unknown alias %q", p.Alias)
		}
		if c := r.table.Column(p.Column); c != nil {
			projWidth += float64(c.Size)
		}
	}
	est.Cost += est.Rows * projWidth * o.Model.OutputByteCost
	return est, nil
}

// selectivity estimates the fraction of rows passing a constant filter.
func (o *Optimizer) selectivity(t *relational.Table, f sqlast.Filter) float64 {
	col := t.Column(f.Col.Column)
	switch f.Op {
	case sqlast.OpEq:
		if f.RightCol != nil { // same-alias column equality
			return o.Model.DefaultEqSelectivity
		}
		if col != nil && col.Distinct > 0 {
			return 1 / col.Distinct
		}
		return o.Model.DefaultEqSelectivity
	case sqlast.OpNe:
		if col != nil && col.Distinct > 0 {
			return 1 - 1/col.Distinct
		}
		return 1 - o.Model.DefaultEqSelectivity
	default:
		if col != nil && col.Max > col.Min && f.Value.IsInt {
			below := cumulativeBelow(col, float64(f.Value.Int))
			switch f.Op {
			case sqlast.OpLt, sqlast.OpLe:
				return math.Max(below, 0.001)
			default:
				return math.Max(1-below, 0.001)
			}
		}
		return o.Model.DefaultRangeSelectivity
	}
}

// cumulativeBelow estimates the fraction of column values below v: from
// the equi-width histogram when present (with linear interpolation inside
// the boundary bucket), else assuming a uniform distribution over
// [Min, Max].
func cumulativeBelow(col *relational.Column, v float64) float64 {
	lo, hi := float64(col.Min), float64(col.Max)
	pos := (v - lo) / (hi - lo)
	pos = math.Max(0, math.Min(1, pos))
	if len(col.Hist) == 0 {
		return pos
	}
	buckets := float64(len(col.Hist))
	exact := pos * buckets
	full := int(exact)
	below := 0.0
	for i := 0; i < full && i < len(col.Hist); i++ {
		below += col.Hist[i]
	}
	if full < len(col.Hist) {
		below += col.Hist[full] * (exact - float64(full))
	}
	return below
}

// scanCost is the cost of reading a relation sequentially. Tables in the
// scanned set have been read earlier in the same query and cost only
// CPU. The set is not modified; callers commit a scan with markScanned
// once a plan step is actually chosen.
func (o *Optimizer) scanCost(r *rel, scanned map[string]bool) float64 {
	if scanned != nil && scanned[r.table.Name] {
		return r.rawRows * o.Model.CPUTupleCost
	}
	pages := math.Ceil(r.rawRows * r.width / o.Model.PageSize)
	return o.Model.SeekCost + pages*o.Model.PageIOCost + r.rawRows*o.Model.CPUTupleCost
}

func markScanned(scanned map[string]bool, r *rel) {
	if scanned != nil {
		scanned[r.table.Name] = true
	}
}

// greedyJoin orders the join greedily: start from the cheapest filtered
// relation, then repeatedly attach the connected relation with the
// lowest incremental cost, choosing between index nested-loop (when an
// equality enters the new relation through its key) and hash join. Only
// equality predicates connect relations; every predicate applies as a
// selectivity reduction at the step where both its sides become bound.
func (o *Optimizer) greedyJoin(rels map[string]*rel, order []string, preds []sqlast.Filter, scanned map[string]bool) Estimate {
	if len(order) == 1 {
		r := rels[order[0]]
		c := o.scanCost(r, scanned)
		markScanned(scanned, r)
		return Estimate{Cost: c, Rows: r.rows, Start: r.alias}
	}
	// Candidate start relations: the globally smallest, and the smallest
	// among locally-filtered relations (starting at a filtered child lets
	// the plan probe ancestors through their keys). Keep the cheaper
	// resulting plan; side effects on the shared scan cache commit only
	// for the winner.
	minRows := order[0]
	var minFiltered string
	for _, a := range order {
		if rels[a].rows < rels[minRows].rows {
			minRows = a
		}
		if rels[a].filters > 0 && (minFiltered == "" || rels[a].rows < rels[minFiltered].rows) {
			minFiltered = a
		}
	}
	starts := []string{minRows}
	if minFiltered != "" && minFiltered != minRows {
		starts = append(starts, minFiltered)
	}
	best := Estimate{Cost: math.Inf(1)}
	var bestCache map[string]bool
	for _, start := range starts {
		cache := cloneCache(scanned)
		est := o.greedyJoinFrom(rels, order, preds, cache, start)
		if est.Cost < best.Cost {
			best = est
			bestCache = cache
		}
	}
	if scanned != nil {
		for k, v := range bestCache {
			if v {
				scanned[k] = true
			}
		}
	}
	return best
}

func cloneCache(scanned map[string]bool) map[string]bool {
	out := make(map[string]bool, len(scanned))
	for k, v := range scanned {
		out[k] = v
	}
	return out
}

// greedyJoinFrom runs the greedy join ordering from a fixed start
// relation.
func (o *Optimizer) greedyJoinFrom(rels map[string]*rel, order []string, preds []sqlast.Filter, scanned map[string]bool, start string) Estimate {
	joined := map[string]bool{start: true}
	cost := o.scanCost(rels[start], scanned)
	markScanned(scanned, rels[start])
	rows := rels[start].rows
	steps := make([]Step, 0, len(order)-1)
	consumed := make([]bool, len(preds))
	for len(joined) < len(order) {
		best := Step{Key: -1}
		bestCost := math.Inf(1)
		bestRows := 0.0
		for _, a := range order {
			if joined[a] {
				continue
			}
			connecting, eq := connectingPreds(preds, consumed, joined, a)
			if !eq {
				continue
			}
			stepCost, stepRows, method, key := o.joinStep(rels, rows, a, preds, connecting, scanned)
			if stepCost < bestCost {
				best = Step{Alias: a, Method: method, Preds: connecting, Key: key}
				bestCost, bestRows = stepCost, stepRows
			}
		}
		if best.Alias == "" {
			// Disconnected component: fall back to a cartesian-ish merge
			// with the smallest remaining relation.
			for _, a := range order {
				if joined[a] {
					continue
				}
				r := rels[a]
				stepCost := o.scanCost(r, scanned) + rows*r.rows*o.Model.CPUTupleCost
				if stepCost < bestCost {
					connecting, _ := connectingPreds(preds, consumed, joined, a)
					best = Step{Alias: a, Method: Cartesian, Preds: connecting, Key: -1}
					bestCost = stepCost
					bestRows = rows * r.rows * math.Pow(o.Model.DefaultRangeSelectivity, float64(len(connecting)))
				}
			}
		}
		joined[best.Alias] = true
		if best.Method != INL {
			markScanned(scanned, rels[best.Alias])
			if best.Method == Hash && scanned != nil {
				scanned["hash:"+rels[best.Alias].table.Name] = true
			}
		}
		for _, i := range best.Preds {
			consumed[i] = true
		}
		cost += bestCost
		rows = bestRows
		steps = append(steps, best)
	}
	return Estimate{Cost: cost, Rows: rows, Start: start, Steps: steps}
}

// connectingPreds returns the indexes of every unconsumed predicate
// linking the joined set to alias a, and whether one of them is an
// equality (only equalities can drive a join).
func connectingPreds(preds []sqlast.Filter, consumed []bool, joined map[string]bool, a string) ([]int, bool) {
	var out []int
	eq := false
	for i, p := range preds {
		if consumed[i] {
			continue
		}
		l, r := p.Col.Alias, p.RightCol.Alias
		if (joined[l] && r == a) || (joined[r] && l == a) {
			out = append(out, i)
			eq = eq || p.Op == sqlast.OpEq
		}
	}
	return out, eq
}

// joinStep costs attaching relation a to the current intermediate result,
// applying every connecting predicate jointly (independent selectivities
// multiply): equalities by distinct counts, other comparisons by the
// default range selectivity. It returns the cheaper method and the
// predicate the join runs on. The scanned set is consulted read-only.
func (o *Optimizer) joinStep(rels map[string]*rel, curRows float64, a string, preds []sqlast.Filter, connecting []int, scanned map[string]bool) (float64, float64, Method, int) {
	r := rels[a]
	outRows := curRows * r.rows
	// hashEq is the most selective equality (the first among equals):
	// keying the hash join on it keeps the intermediate result smallest
	// before the step's other predicates filter it.
	hashEq, keyEq, hashSel := -1, -1, math.Inf(1)
	for _, i := range connecting {
		p := preds[i]
		if p.Op != sqlast.OpEq {
			outRows *= o.Model.DefaultRangeSelectivity
			continue
		}
		aCol, other, bCol := p.Col.Column, p.RightCol.Alias, p.RightCol.Column
		if p.RightCol.Alias == a {
			aCol, other, bCol = p.RightCol.Column, p.Col.Alias, p.Col.Column
		}
		sel := 1.0
		den := math.Max(colDistinct(r, aCol), colDistinct(rels[other], bCol))
		if den > 1 {
			outRows /= den
			sel /= den
		}
		// NULL join keys never match: scale by the non-null share of
		// both sides (partitioned FK columns carry a null fraction).
		if col := r.table.Column(aCol); col != nil {
			if col.NullFraction > 0 {
				outRows *= 1 - col.NullFraction
				sel *= 1 - col.NullFraction
			}
			if col.Key && keyEq < 0 {
				keyEq = i
			}
		}
		if col := rels[other].table.Column(bCol); col != nil && col.NullFraction > 0 {
			outRows *= 1 - col.NullFraction
			sel *= 1 - col.NullFraction
		}
		if sel < hashSel {
			hashEq, hashSel = i, sel
		}
	}
	if outRows < 0.01 {
		outRows = 0.01
	}

	// Hash join: scan + build the new relation, probe with current rows.
	// Like scans, hash builds are shared across the blocks of one query.
	buildCPU := r.rows * o.Model.HashCost
	if scanned != nil && scanned["hash:"+r.table.Name] {
		buildCPU = 0
	}
	hash := o.scanCost(r, scanned) +
		buildCPU +
		curRows*o.Model.HashCost +
		outRows*o.Model.CPUTupleCost

	// Index nested-loop: available when some equality enters r through
	// its key (relations are indexed on their id column only; joins
	// entering a child table through its foreign key run as hash joins,
	// matching the scan-based plans of the paper's Table 2).
	inl := math.Inf(1)
	if keyEq >= 0 {
		inl = curRows*(o.Model.ProbeCost+
			r.width/o.Model.PageSize*o.Model.PageIOCost*o.Model.RandomIOPenalty+
			o.Model.CPUTupleCost) +
			outRows*o.Model.CPUTupleCost
	}
	if inl < hash {
		return inl, outRows, INL, keyEq
	}
	return hash, outRows, Hash, hashEq
}

func colDistinct(r *rel, colName string) float64 {
	if c := r.table.Column(colName); c != nil && c.Distinct > 0 {
		return c.Distinct
	}
	return math.Max(1, r.rawRows/10)
}

// TableSizes returns "table rows width" lines sorted by name; a debugging
// aid for experiments.
func (o *Optimizer) TableSizes() string {
	names := append([]string(nil), o.Cat.Order...)
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		t := o.Cat.Tables[n]
		fmt.Fprintf(&b, "%-24s %12.0f %8.0f\n", n, t.Rows, t.RowBytes())
	}
	return b.String()
}
