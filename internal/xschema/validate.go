package xschema

import (
	"fmt"
	"strconv"
	"strings"

	"legodb/internal/xmltree"
)

// ValidationError reports why a document failed to validate.
type ValidationError struct {
	Path   string
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("xschema: validation failed at %s: %s", e.Path, e.Reason)
}

// ValidateDocument checks that doc conforms to the schema's root type.
//
// The matcher treats an element's attributes as pseudo-items placed (in
// document order) before the element's children, followed by an optional
// text item when the element carries character data. This matches the
// paper's schemas, where attributes are declared ahead of element content.
func (s *Schema) ValidateDocument(doc *xmltree.Node) error {
	root, ok := s.Types[s.Root]
	if !ok {
		return fmt.Errorf("xschema: root type %q not defined", s.Root)
	}
	m := &matcher{schema: s}
	if !m.matchSingle(root, doc, "/") {
		if m.firstErr != nil {
			return m.firstErr
		}
		return &ValidationError{Path: "/", Reason: "document does not match root type"}
	}
	return nil
}

// Valid reports whether doc conforms to the schema.
func (s *Schema) Valid(doc *xmltree.Node) bool { return s.ValidateDocument(doc) == nil }

// item is one unit of element content seen by the regular-expression
// matcher: an attribute, a child element, or character data.
type itemKind int

const (
	itemAttr itemKind = iota
	itemElem
	itemText
)

type contentItem struct {
	kind  itemKind
	name  string
	value string
	node  *xmltree.Node
}

type matcher struct {
	schema   *Schema
	firstErr *ValidationError
}

// matchSingle matches a type expected to describe exactly one element (or
// a named alias thereof) against a concrete element node.
func (m *matcher) matchSingle(t Type, node *xmltree.Node, path string) bool {
	switch t := t.(type) {
	case *Element:
		if t.Name != node.Name {
			m.fail(path, fmt.Sprintf("expected element <%s>, found <%s>", t.Name, node.Name))
			return false
		}
		return m.matchContent(t.Content, node, path+node.Name+"/")
	case *Wildcard:
		for _, ex := range t.Exclude {
			if node.Name == ex {
				m.fail(path, fmt.Sprintf("element <%s> excluded by wildcard", node.Name))
				return false
			}
		}
		return m.matchContent(t.Content, node, path+node.Name+"/")
	case *Ref:
		def, ok := m.schema.Types[t.Name]
		if !ok {
			m.fail(path, fmt.Sprintf("undefined type %q", t.Name))
			return false
		}
		return m.matchSingle(def, node, path)
	case *Choice:
		for _, alt := range t.Alts {
			if m.matchSingle(alt, node, path) {
				return true
			}
		}
		return false
	case *Sequence:
		// A sequence can describe a single element only if it has one
		// effective item.
		if len(t.Items) == 1 {
			return m.matchSingle(t.Items[0], node, path)
		}
		m.fail(path, "sequence type cannot describe a single element")
		return false
	default:
		m.fail(path, fmt.Sprintf("type %s cannot describe an element", t))
		return false
	}
}

// matchContent matches an element's content model against its attributes,
// children and text.
func (m *matcher) matchContent(t Type, node *xmltree.Node, path string) bool {
	items := make([]contentItem, 0, len(node.Attrs)+len(node.Children)+1)
	for _, a := range node.Attrs {
		items = append(items, contentItem{kind: itemAttr, name: a.Name, value: a.Value})
	}
	if node.Text != "" {
		items = append(items, contentItem{kind: itemText, value: node.Text})
	}
	for _, c := range node.Children {
		items = append(items, contentItem{kind: itemElem, name: c.Name, node: c})
	}
	ends := m.match(t, items, 0, path)
	for _, e := range ends {
		if e == len(items) {
			return true
		}
	}
	m.fail(path, fmt.Sprintf("content does not match %s", t))
	return false
}

// match returns the set of positions the matcher can reach after matching
// t against items starting at position i. Duplicate positions are pruned.
func (m *matcher) match(t Type, items []contentItem, i int, path string) []int {
	switch t := t.(type) {
	case *Empty:
		return []int{i}
	case *Scalar:
		if i < len(items) && items[i].kind == itemText {
			if t.Kind == IntegerKind {
				if _, err := strconv.ParseInt(strings.TrimSpace(items[i].value), 10, 64); err != nil {
					return nil
				}
			}
			return []int{i + 1}
		}
		// An absent text node is an empty string; integers require text.
		if t.Kind == StringKind {
			return []int{i}
		}
		return nil
	case *Attribute:
		if i < len(items) && items[i].kind == itemAttr && items[i].name == t.Name {
			if sc, ok := t.Content.(*Scalar); ok && sc.Kind == IntegerKind {
				if _, err := strconv.ParseInt(strings.TrimSpace(items[i].value), 10, 64); err != nil {
					return nil
				}
			}
			return []int{i + 1}
		}
		return nil
	case *Element:
		if i < len(items) && items[i].kind == itemElem && items[i].name == t.Name {
			if m.matchSingle(t, items[i].node, path) {
				return []int{i + 1}
			}
		}
		return nil
	case *Wildcard:
		if i < len(items) && items[i].kind == itemElem {
			if m.matchSingle(t, items[i].node, path) {
				return []int{i + 1}
			}
		}
		return nil
	case *Ref:
		def, ok := m.schema.Types[t.Name]
		if !ok {
			return nil
		}
		return m.match(def, items, i, path)
	case *Sequence:
		positions := []int{i}
		for _, part := range t.Items {
			var next []int
			for _, p := range positions {
				next = union(next, m.match(part, items, p, path))
			}
			if len(next) == 0 {
				return nil
			}
			positions = next
		}
		return positions
	case *Choice:
		var out []int
		for _, alt := range t.Alts {
			out = union(out, m.match(alt, items, i, path))
		}
		return out
	case *Repeat:
		// Standard bounded-repetition matching with progress guard:
		// repetitions that consume nothing are not iterated.
		current := []int{i}
		var accepted []int
		if t.Min == 0 {
			accepted = append(accepted, i)
		}
		for count := 1; t.Max == Unbounded || count <= t.Max; count++ {
			var next []int
			for _, p := range current {
				for _, q := range m.match(t.Inner, items, p, path) {
					if q > p { // progress guard
						next = appendUnique(next, q)
					}
				}
			}
			if len(next) == 0 {
				break
			}
			if count >= t.Min {
				accepted = union(accepted, next)
			}
			current = next
		}
		return accepted
	default:
		return nil
	}
}

func (m *matcher) fail(path, reason string) {
	if m.firstErr == nil {
		m.firstErr = &ValidationError{Path: path, Reason: reason}
	}
}

func union(a, b []int) []int {
	for _, v := range b {
		a = appendUnique(a, v)
	}
	return a
}

func appendUnique(a []int, v int) []int {
	for _, x := range a {
		if x == v {
			return a
		}
	}
	return append(a, v)
}
