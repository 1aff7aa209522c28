// Package xstats implements LegoDB's XML data statistics: counts, sizes
// and value distributions attached to element paths, exactly as in the
// paper's Appendix A notation:
//
//	(["imdb";"show"], STcnt(34798));
//	(["imdb";"show";"title"], STsize(50));
//	(["imdb";"show";"year"], STbase(1800,2100,300));
//
// Statistics are either parsed from that notation, or collected from an
// example document. Annotate pushes them onto a schema's type tree, which
// turns a plain schema into the statistics-carrying physical schema the
// rest of the system consumes.
package xstats

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"legodb/internal/faults"
	"legodb/internal/xmltree"
	"legodb/internal/xschema"
)

// Tilde is the path component used for wildcard elements, following the
// paper's Appendix A ("TILDE").
const Tilde = "TILDE"

// Stat aggregates all statistics known for one element path.
type Stat struct {
	Path  []string
	Count float64 // STcnt: number of instances in the whole dataset
	Size  int     // STsize: average value width in bytes
	// STbase(min, max, distinct) for integer-valued content.
	Min, Max, Distinct int64
	// Hist is an equi-width histogram over [Min, Max]: per-bucket value
	// counts (SThist; an extension beyond the paper's Appendix A).
	Hist []int64
}

func (st *Stat) String() string {
	var parts []string
	if st.Count > 0 {
		parts = append(parts, fmt.Sprintf("STcnt(%g)", st.Count))
	}
	if st.Size > 0 {
		parts = append(parts, fmt.Sprintf("STsize(%d)", st.Size))
	}
	if st.Distinct > 0 || st.Min != 0 || st.Max != 0 {
		parts = append(parts, fmt.Sprintf("STbase(%d,%d,%d)", st.Min, st.Max, st.Distinct))
	}
	if len(st.Hist) > 0 {
		cells := make([]string, len(st.Hist))
		for i, b := range st.Hist {
			cells[i] = fmt.Sprintf("%d", b)
		}
		parts = append(parts, fmt.Sprintf("SThist(%s)", strings.Join(cells, ",")))
	}
	return fmt.Sprintf("([%q], %s)", strings.Join(st.Path, ";"), strings.Join(parts, " "))
}

// Set is a collection of path statistics with O(1) lookup by path.
type Set struct {
	byPath map[string]*Stat
	order  []string
}

// NewSet returns an empty statistics set.
func NewSet() *Set { return &Set{byPath: make(map[string]*Stat)} }

func key(path []string) string { return strings.Join(path, "/") }

// get returns (creating if needed) the Stat for a path.
func (s *Set) get(path []string) *Stat {
	k := key(path)
	if st, ok := s.byPath[k]; ok {
		return st
	}
	st := &Stat{Path: append([]string(nil), path...)}
	s.byPath[k] = st
	s.order = append(s.order, k)
	return st
}

// Lookup returns the Stat for a path, or nil.
func (s *Set) Lookup(path ...string) *Stat {
	return s.byPath[key(path)]
}

// Count returns the instance count for a path (0 if unknown).
func (s *Set) Count(path ...string) float64 {
	if st := s.byPath[key(path)]; st != nil {
		return st.Count
	}
	return 0
}

// SetCount records an instance count for a path.
func (s *Set) SetCount(count float64, path ...string) { s.get(path).Count = count }

// SetSize records an average value size for a path.
func (s *Set) SetSize(size int, path ...string) { s.get(path).Size = size }

// SetBase records an integer value distribution for a path.
func (s *Set) SetBase(min, max, distinct int64, path ...string) {
	st := s.get(path)
	st.Min, st.Max, st.Distinct = min, max, distinct
}

// Paths returns all recorded paths in insertion order.
func (s *Set) Paths() [][]string {
	out := make([][]string, len(s.order))
	for i, k := range s.order {
		out[i] = s.byPath[k].Path
	}
	return out
}

// Clone returns a deep copy, so experiments can scale statistics without
// mutating the original.
func (s *Set) Clone() *Set {
	cp := NewSet()
	for _, k := range s.order {
		st := *s.byPath[k]
		st.Path = append([]string(nil), st.Path...)
		st.Hist = append([]int64(nil), st.Hist...)
		cp.byPath[k] = &st
		cp.order = append(cp.order, k)
	}
	return cp
}

// ScaleCounts multiplies every instance count under (and including) the
// given path prefix by factor. Used by the parameter sweeps (e.g. "total
// reviews = 10,000 vs 100,000").
func (s *Set) ScaleCounts(factor float64, prefix ...string) {
	pk := key(prefix)
	for _, k := range s.order {
		if k == pk || strings.HasPrefix(k, pk+"/") {
			s.byPath[k].Count *= factor
		}
	}
}

// String renders the set in the Appendix A notation, one entry per line.
func (s *Set) String() string {
	var b strings.Builder
	for _, k := range s.order {
		fmt.Fprintf(&b, "%s;\n", s.byPath[k])
	}
	return b.String()
}

// Parse reads statistics in the paper's Appendix A notation. Multiple
// entries for the same path merge into one Stat. Whitespace and trailing
// punctuation are forgiving; lines starting with // are comments.
func Parse(src string) (*Set, error) {
	set := NewSet()
	rest := src
	for {
		start := strings.IndexByte(rest, '(')
		if start < 0 {
			break
		}
		rest = rest[start:]
		entry, remainder, err := parseEntry(rest)
		if err != nil {
			return nil, err
		}
		merge(set.get(entry.Path), entry)
		rest = remainder
	}
	if len(set.order) == 0 {
		return nil, fmt.Errorf("xstats: no statistics entries found")
	}
	return set, nil
}

// MustParse is Parse that panics on error; for embedded statistic tables.
func MustParse(src string) *Set {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

func merge(dst, src *Stat) {
	if src.Count > 0 {
		dst.Count = src.Count
	}
	if src.Size > 0 {
		dst.Size = src.Size
	}
	if src.Distinct > 0 || src.Min != 0 || src.Max != 0 {
		dst.Min, dst.Max, dst.Distinct = src.Min, src.Max, src.Distinct
	}
	if len(src.Hist) > 0 {
		dst.Hist = append([]int64(nil), src.Hist...)
	}
}

// parseEntry parses one `(["a";"b"], STcnt(1))` entry and returns the
// remaining input.
func parseEntry(src string) (*Stat, string, error) {
	orig := src
	src = strings.TrimPrefix(src, "(")
	src = skipSpace(src)
	if !strings.HasPrefix(src, "[") {
		return nil, "", fmt.Errorf("xstats: expected path list in %.40q", orig)
	}
	end := strings.IndexByte(src, ']')
	if end < 0 {
		return nil, "", fmt.Errorf("xstats: unterminated path list in %.40q", orig)
	}
	var path []string
	for _, part := range strings.Split(src[1:end], ";") {
		part = strings.TrimSpace(part)
		part = strings.Trim(part, `"`)
		if part != "" {
			path = append(path, part)
		}
	}
	src = skipSpace(src[end+1:])
	src = strings.TrimPrefix(src, ",")
	src = skipSpace(src)
	st := &Stat{Path: path}
	for strings.HasPrefix(src, "ST") {
		name := src[:strings.IndexByte(src, '(')]
		open := strings.IndexByte(src, '(')
		closing := strings.IndexByte(src, ')')
		if open < 0 || closing < open {
			return nil, "", fmt.Errorf("xstats: malformed %s in %.40q", name, orig)
		}
		args := strings.Split(src[open+1:closing], ",")
		nums := make([]int64, 0, len(args))
		for _, a := range args {
			n, err := strconv.ParseInt(strings.TrimSpace(a), 10, 64)
			if err != nil {
				return nil, "", fmt.Errorf("xstats: bad number %q in %s", a, name)
			}
			nums = append(nums, n)
		}
		switch name {
		case "STcnt":
			if len(nums) != 1 {
				return nil, "", fmt.Errorf("xstats: STcnt wants 1 arg, got %d", len(nums))
			}
			st.Count = float64(nums[0])
		case "STsize":
			if len(nums) != 1 {
				return nil, "", fmt.Errorf("xstats: STsize wants 1 arg, got %d", len(nums))
			}
			st.Size = int(nums[0])
		case "STbase":
			if len(nums) != 3 {
				return nil, "", fmt.Errorf("xstats: STbase wants 3 args, got %d", len(nums))
			}
			st.Min, st.Max, st.Distinct = nums[0], nums[1], nums[2]
		case "SThist":
			if len(nums) == 0 {
				return nil, "", fmt.Errorf("xstats: SThist wants at least 1 bucket")
			}
			st.Hist = append([]int64(nil), nums...)
		default:
			return nil, "", fmt.Errorf("xstats: unknown statistic %q", name)
		}
		src = skipSpace(src[closing+1:])
	}
	src = strings.TrimPrefix(src, ")")
	src = strings.TrimPrefix(skipSpace(src), ";")
	return st, src, nil
}

func skipSpace(s string) string { return strings.TrimLeft(s, " \t\r\n") }

// Collect derives path statistics from one or more example documents:
// instance counts, average text sizes, and integer min/max/distinct.
// Wildcard positions are not known without a schema, so paths use the
// concrete tag names; Annotate aggregates them under wildcards as needed.
func Collect(docs ...*xmltree.Node) *Set {
	set := NewSet()
	sizes := make(map[string][2]int) // total bytes, samples
	ints := make(map[string]*intAgg)
	distinct := make(map[string]map[string]bool)
	for _, doc := range docs {
		doc.Walk(func(path []string, n *xmltree.Node) {
			k := key(path)
			set.get(path).Count++
			if n.Text != "" {
				acc := sizes[k]
				acc[0] += len(n.Text)
				acc[1]++
				sizes[k] = acc
				if distinct[k] == nil {
					distinct[k] = make(map[string]bool)
				}
				distinct[k][n.Text] = true
				if v, err := strconv.ParseInt(strings.TrimSpace(n.Text), 10, 64); err == nil {
					agg := ints[k]
					if agg == nil {
						agg = &intAgg{min: v, max: v}
						ints[k] = agg
					}
					agg.add(v)
				}
			}
			for _, a := range n.Attrs {
				ap := append(append([]string(nil), path...), a.Name)
				ak := key(ap)
				set.get(ap).Count++
				acc := sizes[ak]
				acc[0] += len(a.Value)
				acc[1]++
				sizes[ak] = acc
				if distinct[ak] == nil {
					distinct[ak] = make(map[string]bool)
				}
				distinct[ak][a.Value] = true
			}
		})
	}
	for k, acc := range sizes {
		if acc[1] > 0 {
			set.byPath[k].Size = (acc[0] + acc[1] - 1) / acc[1]
		}
	}
	for k, agg := range ints {
		st := set.byPath[k]
		// Only treat as integer-valued if every sample parsed.
		if float64(agg.n) == st.Count {
			st.Min, st.Max = agg.min, agg.max
			st.Distinct = int64(len(distinct[k]))
			st.Hist = bucketize(agg.samples, agg.min, agg.max, HistogramBuckets)
		}
	}
	for k, vals := range distinct {
		st := set.byPath[k]
		if st.Distinct == 0 {
			st.Distinct = int64(len(vals))
		}
	}
	sort.Strings(set.order)
	return set
}

// HistogramBuckets is the number of equi-width buckets Collect builds
// for integer-valued paths.
const HistogramBuckets = 20

// maxHistogramSamples caps the values retained per path for histogram
// construction.
const maxHistogramSamples = 100000

type intAgg struct {
	min, max int64
	n        int
	samples  []int64
}

func (a *intAgg) add(v int64) {
	if v < a.min {
		a.min = v
	}
	if v > a.max {
		a.max = v
	}
	a.n++
	if len(a.samples) < maxHistogramSamples {
		a.samples = append(a.samples, v)
	}
}

// bucketize builds an equi-width histogram of the samples over
// [min, max].
func bucketize(samples []int64, min, max int64, buckets int) []int64 {
	if len(samples) == 0 || max <= min || buckets <= 0 {
		return nil
	}
	hist := make([]int64, buckets)
	span := float64(max-min) + 1
	for _, v := range samples {
		b := int(float64(v-min) / span * float64(buckets))
		if b >= buckets {
			b = buckets - 1
		}
		hist[b]++
	}
	return hist
}

// Annotate pushes the path statistics onto the schema's type tree:
// scalar sizes and distributions, repetition average counts, and choice
// branch fractions. The schema is modified in place; it becomes the
// "p-schema with statistics" of Section 3.1.
//
// The walk follows element names from the schema root; wildcards look up
// the TILDE component first and otherwise aggregate the collected
// children at that position.
func Annotate(s *xschema.Schema, set *Set) error {
	if err := faults.Inject(faults.SiteAnnotate); err != nil {
		return err
	}
	root, ok := s.Lookup(s.Root)
	if !ok {
		return fmt.Errorf("xstats: schema root %q undefined", s.Root)
	}
	a := &annotator{schema: s, set: set, onStack: make(map[string]int)}
	a.walk(root, nil, 1)
	return nil
}

type annotator struct {
	schema *xschema.Schema
	set    *Set
	// onStack counts how often each named type occurs on the current walk
	// branch; recursive types are expanded at most twice so that
	// annotation terminates on schemas like AnyElement.
	onStack map[string]int
}

// walk annotates t in the context of the given element path; parentCount
// is the instance count of the enclosing element.
func (a *annotator) walk(t xschema.Type, path []string, parentCount float64) {
	switch t := t.(type) {
	case *xschema.Element:
		childPath := append(append([]string(nil), path...), t.Name)
		count := a.set.Count(childPath...)
		if count == 0 {
			count = parentCount
		}
		a.annotateScalar(t.Content, childPath)
		a.walk(t.Content, childPath, count)
	case *xschema.Attribute:
		attrPath := append(append([]string(nil), path...), t.Name)
		a.annotateScalar(t.Content, attrPath)
	case *xschema.Wildcard:
		childPath := append(append([]string(nil), path...), Tilde)
		count := a.set.Count(childPath...)
		if count == 0 {
			count = a.aggregateWildcard(path, t)
		}
		if count == 0 {
			count = parentCount
		}
		a.annotateScalar(t.Content, childPath)
		a.walk(t.Content, childPath, count)
	case *xschema.Sequence:
		for _, it := range t.Items {
			a.walk(it, path, parentCount)
		}
	case *xschema.Choice:
		total := 0.0
		fracs := make([]float64, len(t.Alts))
		for i, alt := range t.Alts {
			if name, ok := representative(a.schema, alt); ok {
				fracs[i] = a.set.Count(append(append([]string(nil), path...), name)...)
				total += fracs[i]
			}
		}
		if total > 0 {
			for i := range fracs {
				fracs[i] /= total
			}
			t.Fractions = fracs
		}
		for i, alt := range t.Alts {
			branchCount := parentCount
			if total > 0 {
				branchCount = parentCount * fracs[i]
			}
			a.walk(alt, path, branchCount)
		}
	case *xschema.Repeat:
		cnt := 0.0
		for _, name := range representatives(a.schema, t.Inner, nil) {
			childPath := append(append([]string(nil), path...), name)
			c := a.set.Count(childPath...)
			if c == 0 && name == Tilde {
				if w := a.wildcardOf(t.Inner); w != nil {
					c = a.aggregateWildcard(path, w)
				}
			}
			cnt += c
		}
		if cnt > 0 && parentCount > 0 {
			t.AvgCount = cnt / parentCount
		}
		a.walk(t.Inner, path, parentCount)
	case *xschema.Ref:
		// Guard against revisiting recursive types; each named type is
		// expanded at most twice along one walk branch.
		if a.onStack[t.Name] >= 2 {
			return
		}
		a.onStack[t.Name]++
		if def, ok := a.schema.Lookup(t.Name); ok {
			a.walk(def, path, parentCount)
		}
		a.onStack[t.Name]--
	}
}

// annotateScalar applies size/base statistics when the content of an
// element or attribute at the given path is a scalar.
func (a *annotator) annotateScalar(content xschema.Type, path []string) {
	sc, ok := content.(*xschema.Scalar)
	if !ok {
		return
	}
	st := a.set.Lookup(path...)
	if st == nil {
		return
	}
	if st.Size > 0 {
		sc.Size = st.Size
	}
	if st.Distinct > 0 {
		sc.Distinct = st.Distinct
	}
	if sc.Kind == xschema.IntegerKind {
		sc.Min, sc.Max = st.Min, st.Max
		if sc.Size == 0 {
			sc.Size = 4
		}
		if len(st.Hist) > 0 {
			total := int64(0)
			for _, b := range st.Hist {
				total += b
			}
			if total > 0 {
				sc.Hist = make([]float64, len(st.Hist))
				for i, b := range st.Hist {
					sc.Hist[i] = float64(b) / float64(total)
				}
			}
		}
	}
}

// wildcardOf resolves a type to the wildcard node it denotes, following
// references; nil if the type is not a (reference to a) wildcard.
func (a *annotator) wildcardOf(t xschema.Type) *xschema.Wildcard {
	for i := 0; i < 100; i++ {
		switch n := t.(type) {
		case *xschema.Wildcard:
			return n
		case *xschema.Ref:
			def, ok := a.schema.Lookup(n.Name)
			if !ok {
				return nil
			}
			t = def
		default:
			return nil
		}
	}
	return nil
}

// aggregateWildcard sums collected counts of concrete children at the
// wildcard's position (excluding names the wildcard itself excludes).
func (a *annotator) aggregateWildcard(path []string, w *xschema.Wildcard) float64 {
	prefix := key(path)
	excluded := make(map[string]bool, len(w.Exclude))
	for _, e := range w.Exclude {
		excluded[e] = true
	}
	total := 0.0
	for _, k := range a.set.order {
		if !strings.HasPrefix(k, prefix+"/") {
			continue
		}
		rest := k[len(prefix)+1:]
		if strings.Contains(rest, "/") || excluded[rest] {
			continue
		}
		total += a.set.byPath[k].Count
	}
	return total
}

// representatives returns the distinct element names a type can expand
// to first: the path components used to look up its statistics. A union
// contributes the representatives of every alternative.
func representatives(s *xschema.Schema, t xschema.Type, seen map[string]bool) []string {
	if seen == nil {
		seen = make(map[string]bool)
	}
	switch t := t.(type) {
	case *xschema.Choice:
		var out []string
		have := make(map[string]bool)
		for _, alt := range t.Alts {
			for _, n := range representatives(s, alt, seen) {
				if !have[n] {
					have[n] = true
					out = append(out, n)
				}
			}
		}
		return out
	case *xschema.Ref:
		if seen[t.Name] {
			return nil
		}
		seen[t.Name] = true
		def, ok := s.Lookup(t.Name)
		if !ok {
			return nil
		}
		return representatives(s, def, seen)
	default:
		if n, ok := representative(s, t); ok {
			return []string{n}
		}
		return nil
	}
}

// representative returns the element name a type expands to first: the
// path component used to look up its statistics. Choices have no single
// representative.
func representative(s *xschema.Schema, t xschema.Type) (string, bool) {
	switch t := t.(type) {
	case *xschema.Element:
		return t.Name, true
	case *xschema.Wildcard:
		return Tilde, true
	case *xschema.Ref:
		def, ok := s.Lookup(t.Name)
		if !ok {
			return "", false
		}
		return representative(s, def)
	case *xschema.Sequence:
		if len(t.Items) > 0 {
			return representative(s, t.Items[0])
		}
	case *xschema.Repeat:
		return representative(s, t.Inner)
	}
	return "", false
}
