// Package shred loads XML documents into the relational image of a
// physical schema (the document half of the fixed mapping, Section 3.2)
// and reconstructs documents from that image (publishing). Together the
// two directions give the round-trip property the tests rely on:
// publish(shred(doc)) is the original document up to the interleaving
// order of differently-typed siblings, which the relational image does
// not record.
package shred

import (
	"fmt"
	"strconv"
	"strings"

	"legodb/internal/engine"
	"legodb/internal/faults"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/xmltree"
	"legodb/internal/xschema"
)

// Shredder maps documents of one physical schema into an engine database.
type Shredder struct {
	Schema *xschema.Schema
	Cat    *relational.Catalog
	DB     *engine.Database

	// Restrict, when non-nil, limits materialization to the named
	// tables: rows destined for any other table are matched and id'd but
	// not inserted. Because every instance still burns its table's
	// NextID, ids assigned under any restriction are identical to an
	// unrestricted shred of the same documents in the same order — the
	// property live migration relies on to rebuild a store
	// table-group-by-table-group across separate passes.
	Restrict map[string]bool
}

// New builds a shredder over schema, catalog and database (all three must
// derive from the same p-schema).
func New(s *xschema.Schema, cat *relational.Catalog, db *engine.Database) *Shredder {
	return &Shredder{Schema: s, Cat: cat, DB: db}
}

// Shred inserts one document. It can be called repeatedly to load
// multiple documents into the same database.
func (sh *Shredder) Shred(doc *xmltree.Node) error {
	if err := faults.Inject(faults.SiteShred); err != nil {
		return err
	}
	_, err := sh.shredInstance(sh.Schema.Root, doc, "", 0)
	return err
}

// piece is one unit of a successful structural match: either a column
// value (path non-empty) or a child instance of a named type together
// with the pieces captured for it.
type piece struct {
	// Column value, keyed by the XMLPath join.
	path  string
	value string
	// Child instance of a named type: its columns and children.
	refName string
	sub     *rope
}

// rope is a persistent concatenation of captured pieces. Extending a
// partial match is cat, which is O(1) and shares both operands, so
// alternatives and repetition prefixes never copy what they captured;
// only the winning match of an instance is flattened, once.
type rope struct {
	leaf        []piece // when left == nil
	left, right *rope
	n           int
}

func leaf(ps ...piece) *rope { return &rope{leaf: ps, n: len(ps)} }

func cat(a, b *rope) *rope {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &rope{left: a, right: b, n: a.n + b.n}
}

// flatten returns the pieces in order. A leaf's slice is returned as is:
// captured pieces are never modified.
func (r *rope) flatten() []piece {
	if r == nil {
		return nil
	}
	if r.left == nil {
		return r.leaf
	}
	out := make([]piece, r.n)
	r.fill(out)
	return out
}

// fill writes r's pieces into out (len(out) == r.n). Matches grow to the
// right, so ropes are left-deep: the left spine is walked iteratively and
// only the short right operands recurse.
func (r *rope) fill(out []piece) {
	for r.left != nil {
		r.right.fill(out[r.left.n:])
		out = out[:r.left.n]
		r = r.left
	}
	copy(out, r.leaf)
}

type itemKind int

const (
	itemAttr itemKind = iota
	itemElem
	itemText
)

type item struct {
	kind  itemKind
	name  string
	value string
	node  *xmltree.Node
}

func itemsOf(n *xmltree.Node) []item {
	items := make([]item, 0, len(n.Attrs)+len(n.Children)+1)
	for _, a := range n.Attrs {
		items = append(items, item{kind: itemAttr, name: a.Name, value: a.Value})
	}
	if n.Text != "" {
		items = append(items, item{kind: itemText, value: n.Text})
	}
	for _, c := range n.Children {
		items = append(items, item{kind: itemElem, name: c.Name, node: c})
	}
	return items
}

// mres is one partial match: the position reached and the pieces captured.
type mres struct {
	end    int
	pieces *rope
}

// shredInstance inserts the row for one instance of a named element or
// wildcard type and, recursively, the rows of its children. It returns
// the new row's id.
func (sh *Shredder) shredInstance(typeName string, node *xmltree.Node, parentTable string, parentID int64) (int64, error) {
	body, ok := sh.Schema.Lookup(typeName)
	if !ok {
		return 0, fmt.Errorf("shred: undefined type %q", typeName)
	}
	pieces, ok := sh.elementPieces(body, node)
	if !ok {
		return 0, fmt.Errorf("shred: <%s> does not instantiate type %s", node.Name, typeName)
	}
	return sh.insertRow(typeName, pieces, parentTable, parentID)
}

// elementPieces matches node against the body of a named element or
// wildcard type and returns the pieces of that instance: its columns and
// its child instances, each carrying its own pieces. It is the one place
// a node is matched: the captured children are inserted from their pieces
// without being matched again. It accepts exactly the nodes the validator
// accepts.
func (sh *Shredder) elementPieces(body xschema.Type, node *xmltree.Node) ([]piece, bool) {
	switch b := body.(type) {
	case *xschema.Element:
		if b.Name != node.Name {
			return nil, false
		}
		return sh.elementContent(b.Content, node, nil, "#text")
	case *xschema.Wildcard:
		if excluded(b, node.Name) {
			return nil, false
		}
		sub, ok := sh.elementContent(b.Content, node, nil, "#text")
		if !ok {
			return nil, false
		}
		return append([]piece{{path: "#tag", value: node.Name}}, sub...), true
	}
	return nil, false
}

// elementContent matches node's attributes, text and children against an
// element's content type, with column paths under prefix. Scalar content
// is the node's text alone, stored in column textPath.
func (sh *Shredder) elementContent(content xschema.Type, node *xmltree.Node, prefix []string, textPath string) ([]piece, bool) {
	if sc, ok := content.(*xschema.Scalar); ok {
		if len(node.Attrs) > 0 || len(node.Children) > 0 {
			return nil, false
		}
		if sc.Kind == xschema.IntegerKind && !parsesInt(node.Text) {
			return nil, false
		}
		return []piece{{path: textPath, value: node.Text}}, true
	}
	items := itemsOf(node)
	for _, r := range sh.match(content, items, 0, prefix) {
		if r.end == len(items) {
			return r.pieces.flatten(), true
		}
	}
	return nil, false
}

func excluded(w *xschema.Wildcard, name string) bool {
	for _, ex := range w.Exclude {
		if name == ex {
			return true
		}
	}
	return false
}

// match is the assignment-producing regular-expression matcher: like the
// validator, but each successful alternative carries the pieces captured
// along the way. Results are deduplicated by end position (first parse
// wins, as in ordered alternation).
func (sh *Shredder) match(t xschema.Type, items []item, i int, prefix []string) []mres {
	switch t := t.(type) {
	case *xschema.Empty:
		return []mres{{end: i}}
	case *xschema.Scalar:
		if i < len(items) && items[i].kind == itemText {
			if t.Kind == xschema.IntegerKind && !parsesInt(items[i].value) {
				return nil
			}
			return []mres{{end: i + 1, pieces: leaf(piece{path: pathKey(prefix, "#text"), value: items[i].value})}}
		}
		if t.Kind == xschema.StringKind {
			return []mres{{end: i}}
		}
		return nil
	case *xschema.Attribute:
		if i < len(items) && items[i].kind == itemAttr && items[i].name == t.Name {
			if sc, ok := t.Content.(*xschema.Scalar); ok && sc.Kind == xschema.IntegerKind && !parsesInt(items[i].value) {
				return nil
			}
			return []mres{{end: i + 1, pieces: leaf(piece{path: pathKey(prefix, "@"+t.Name), value: items[i].value})}}
		}
		return nil
	case *xschema.Element:
		if i >= len(items) || items[i].kind != itemElem || items[i].name != t.Name {
			return nil
		}
		sub, ok := sh.elementContent(t.Content, items[i].node, extend(prefix, t.Name), pathKey(prefix, t.Name))
		if !ok {
			return nil
		}
		return []mres{{end: i + 1, pieces: leaf(sub...)}}
	case *xschema.Wildcard:
		if i >= len(items) || items[i].kind != itemElem || excluded(t, items[i].name) {
			return nil
		}
		inner := extend(prefix, "~")
		sub, ok := sh.elementContent(t.Content, items[i].node, inner, pathKey(inner, "#text"))
		if !ok {
			return nil
		}
		return []mres{{end: i + 1, pieces: cat(leaf(piece{path: pathKey(inner, "#tag"), value: items[i].name}), leaf(sub...))}}
	case *xschema.Sequence:
		results := []mres{{end: i}}
		for _, part := range t.Items {
			var next resultSet
			for _, r := range results {
				for _, s := range sh.match(part, items, r.end, prefix) {
					next.add(mres{end: s.end, pieces: cat(r.pieces, s.pieces)})
				}
			}
			if len(next.list) == 0 {
				return nil
			}
			results = next.list
		}
		return results
	case *xschema.Choice:
		var out resultSet
		for _, alt := range t.Alts {
			for _, r := range sh.match(alt, items, i, prefix) {
				out.add(r)
			}
		}
		return out.list
	case *xschema.Repeat:
		current := []mres{{end: i}}
		var accepted resultSet
		if t.Min == 0 {
			accepted.add(mres{end: i})
		}
		for count := 1; t.Max == xschema.Unbounded || count <= t.Max; count++ {
			var next resultSet
			for _, r := range current {
				for _, s := range sh.match(t.Inner, items, r.end, prefix) {
					if s.end <= r.end {
						continue // progress guard
					}
					next.add(mres{end: s.end, pieces: cat(r.pieces, s.pieces)})
				}
			}
			if len(next.list) == 0 {
				break
			}
			if count >= t.Min {
				for _, r := range next.list {
					accepted.add(r)
				}
			}
			current = next.list
		}
		return accepted.list
	case *xschema.Ref:
		def, ok := sh.Schema.Lookup(t.Name)
		if !ok {
			return nil
		}
		if pschema.IsAlias(def) {
			return sh.match(def, items, i, prefix)
		}
		switch body := def.(type) {
		case *xschema.Element, *xschema.Wildcard:
			if i >= len(items) || items[i].kind != itemElem {
				return nil
			}
			sub, ok := sh.elementPieces(body, items[i].node)
			if !ok {
				return nil
			}
			return []mres{{end: i + 1, pieces: leaf(piece{refName: t.Name, sub: leaf(sub...)})}}
		default:
			// Group or scalar type: its content splices into the parent
			// element; the captured pieces become one row of its table.
			// (An absent String text, which the validator accepts as
			// empty, leaves the row's text column null.)
			var out []mres
			for _, r := range sh.match(def, items, i, nil) {
				out = append(out, mres{end: r.end, pieces: leaf(piece{refName: t.Name, sub: r.pieces})})
			}
			return out
		}
	default:
		return nil
	}
}

// resultSet collects match results, one per end position: the first parse
// to reach an end wins, as in ordered alternation. Ends mostly arrive in
// increasing order, since matches grow to the right, and a new maximum
// cannot be a duplicate. Any other end is looked up: by a scan in a small
// set, by an index of ends in a large one (a long repetition).
type resultSet struct {
	list []mres
	max  int
	ends map[int]bool // built at the first lookup in a large set
}

const scanLimit = 8

func (s *resultSet) add(r mres) {
	if len(s.list) > 0 && r.end <= s.max && s.has(r.end) {
		return
	}
	s.list = append(s.list, r)
	s.max = max(s.max, r.end)
	if s.ends != nil {
		s.ends[r.end] = true
	}
}

func (s *resultSet) has(end int) bool {
	if s.ends == nil {
		if len(s.list) <= scanLimit {
			for _, e := range s.list {
				if e.end == end {
					return true
				}
			}
			return false
		}
		s.ends = make(map[int]bool, 2*len(s.list))
		for _, e := range s.list {
			s.ends[e.end] = true
		}
	}
	return s.ends[end]
}

// insertRow materializes one instance: assigns an id, fills columns from
// value pieces, sets the parent foreign key, and recurses into child
// pieces, whose own pieces were captured when the instance was matched.
func (sh *Shredder) insertRow(typeName string, pieces []piece, parentTable string, parentID int64) (int64, error) {
	tableName := sh.Cat.TableOf[typeName]
	table := sh.DB.Table(tableName)
	if table == nil {
		return 0, fmt.Errorf("shred: no table for type %q", typeName)
	}
	id := table.NextID()
	row := make(engine.Row, len(table.Def.Columns))
	for ci, col := range table.Def.Columns {
		switch {
		case col.Key:
			row[ci] = engine.IntVal(id)
		case col.FKRef != "":
			if col.FKRef == parentTable {
				row[ci] = engine.IntVal(parentID)
			} else {
				row[ci] = engine.Null
			}
		default:
			row[ci] = engine.Null
		}
	}
	for _, p := range pieces {
		if p.path == "" {
			continue
		}
		ci := columnFor(table.Def, p.path)
		if ci < 0 {
			return 0, fmt.Errorf("shred: type %s has no column for path %q", typeName, p.path)
		}
		v, err := coerce(table.Def.Columns[ci], p.value)
		if err != nil {
			return 0, fmt.Errorf("shred: %s.%s: %w", tableName, table.Def.Columns[ci].Name, err)
		}
		row[ci] = v
	}
	if sh.Restrict == nil || sh.Restrict[tableName] {
		if err := table.Insert(row); err != nil {
			return 0, err
		}
	}
	for _, c := range pieces {
		if c.path != "" {
			continue
		}
		if _, err := sh.insertRow(c.refName, c.sub.flatten(), tableName, id); err != nil {
			return 0, err
		}
	}
	return id, nil
}

func columnFor(def *relational.Table, path string) int {
	for i, c := range def.Columns {
		if strings.Join(c.XMLPath, "/") == path {
			return i
		}
	}
	return -1
}

func coerce(col *relational.Column, raw string) (engine.Value, error) {
	if col.Type == relational.IntCol {
		n, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			return engine.Null, fmt.Errorf("value %q is not an integer", raw)
		}
		return engine.IntVal(n), nil
	}
	return engine.StrVal(raw), nil
}

func pathKey(prefix []string, last string) string {
	if len(prefix) == 0 {
		return last
	}
	return strings.Join(prefix, "/") + "/" + last
}

func extend(prefix []string, comp string) []string {
	out := make([]string, 0, len(prefix)+1)
	out = append(out, prefix...)
	return append(out, comp)
}

func parsesInt(s string) bool {
	_, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	return err == nil
}
