package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"legodb/internal/xmltree"
)

// The oracles below compute expected answers from the generated XML
// tree alone: they share no code with the shredder, translator or
// executor they check.

// showField reads one returned field of a <show>: the type attribute or
// a child element's text; ok is false when the show has no such field.
func showField(show *xmltree.Node, field string) (string, bool) {
	if field == "type" {
		return show.Attr("type")
	}
	if c := show.Child(field); c != nil {
		return c.Text, true
	}
	return "", false
}

// lookupQuery is one of the Appendix C lookups Q1–Q6: a selection on a
// show's title (or year) returning some of its fields. A show lacking
// any returned field yields no row.
type lookupQuery struct {
	name    string
	key     string // "title" or "year"
	returns []string
}

var lookupQueries = []lookupQuery{
	{"Q1", "title", []string{"title", "year", "type"}},
	{"Q2", "title", []string{"title", "year"}},
	{"Q3", "year", []string{"title", "year"}},
	{"Q4", "title", []string{"title", "year", "description"}},
	{"Q5", "title", []string{"title", "year", "box_office"}},
	{"Q6", "title", []string{"title", "year", "box_office", "description"}},
}

// showIndex is the document's title and year index.
type showIndex struct {
	shows  []*xmltree.Node
	byKey  map[string]map[string][]*xmltree.Node // key field → value → shows
	titles []string
}

func indexShows(doc *xmltree.Node) *showIndex {
	ix := &showIndex{shows: doc.ChildrenNamed("show"), byKey: map[string]map[string][]*xmltree.Node{
		"title": {}, "year": {},
	}}
	for _, s := range ix.shows {
		for key, m := range ix.byKey {
			v, _ := showField(s, key)
			m[v] = append(m[v], s)
		}
		t, _ := showField(s, "title")
		ix.titles = append(ix.titles, t)
	}
	return ix
}

func (ix *showIndex) expect(q lookupQuery, param string) [][]string {
	var rows [][]string
	for _, s := range ix.byKey[q.key][param] {
		row := make([]string, 0, len(q.returns))
		for _, f := range q.returns {
			v, ok := showField(s, f)
			if !ok {
				row = nil
				break
			}
			row = append(row, v)
		}
		if row != nil {
			rows = append(rows, row)
		}
	}
	return rows
}

// q12Rows is Q12 evaluated as a nested-loop join over the tree: every
// (actor, played, director, directed) with equal names and equal titles
// yields (actor name, played title, played year).
func q12Rows(doc *xmltree.Node) [][]string {
	var rows [][]string
	directors := doc.ChildrenNamed("director")
	for _, a := range doc.ChildrenNamed("actor") {
		aname := a.Child("name").Text
		for _, p := range a.ChildrenNamed("played") {
			for _, d := range directors {
				if d.Child("name").Text != aname {
					continue
				}
				for _, m := range d.ChildrenNamed("directed") {
					if m.Child("title").Text == p.Child("title").Text {
						rows = append(rows, []string{aname, p.Child("title").Text, p.Child("year").Text})
					}
				}
			}
		}
	}
	return rows
}

// sameRows compares two row lists as multisets.
func sameRows(got, want [][]string) error {
	key := func(rows [][]string) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = strings.Join(r, "\x00")
		}
		sort.Strings(out)
		return out
	}
	g, w := key(got), key(want)
	if len(g) != len(w) {
		return fmt.Errorf("%d rows, oracle has %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("row %q not in oracle (oracle has %q)", g[i], w[i])
		}
	}
	return nil
}

// queryChecker verifies /query responses. The first response for an op
// is decoded and compared with the oracle; its rows bytes are then
// remembered, so a repeat of the op is verified by a byte comparison
// instead of a decode. One checker per client: no locking.
type queryChecker struct {
	verified map[int][]byte
}

func newQueryChecker() *queryChecker { return &queryChecker{verified: make(map[int][]byte)} }

// rowsPart cuts the "rows" value out of a legodbd query response.
func rowsPart(body []byte) []byte {
	i := bytes.Index(body, []byte(`"rows":`))
	j := bytes.LastIndex(body, []byte(`,"elapsed_ms":`))
	if i < 0 || j < i {
		return nil
	}
	return body[i+len(`"rows":`) : j]
}

func (c *queryChecker) check(op int, body []byte, want [][]string) error {
	part := rowsPart(body)
	if part == nil {
		return fmt.Errorf("malformed response %q", body)
	}
	if v, ok := c.verified[op]; ok && bytes.Equal(v, part) {
		return nil
	}
	var resp struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if err := sameRows(resp.Rows, want); err != nil {
		return err
	}
	c.verified[op] = append([]byte(nil), part...)
	return nil
}
