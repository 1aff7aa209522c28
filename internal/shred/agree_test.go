package shred

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"legodb/internal/core"
	"legodb/internal/engine"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/transform"
	"legodb/internal/xmltree"
	"legodb/internal/xschema"
)

// libSchema exercises what IMDB does not: scalar elements inlined into
// the root's own row, a named wildcard type with an excluded tag, and a
// named scalar type (Title) that may be empty.
const libSchema = `
type Lib = lib[ name[ String ], count[ Integer ], Book{0,*}, Note{0,*} ]
type Book = book[ title[ Title ], year[ Integer ] ]
type Title = String
type Note = (~!secret)[ String ]
`

type layout struct {
	name string
	ps   *xschema.Schema
	cat  *relational.Catalog
}

var (
	layoutsOnce sync.Once
	layoutsList []layout
	layoutsErr  error
)

// agreementLayouts returns the physical schemas the shredder is checked
// on: the IMDB all-inlined, all-outlined, advised and union-distributed
// layouts (in the last, two types share the element name show and the
// matcher must choose), and the library schema.
func agreementLayouts(tb testing.TB) []layout {
	tb.Helper()
	layoutsOnce.Do(func() {
		base := imdb.Schema()
		builders := []struct {
			name  string
			build func() (*xschema.Schema, error)
		}{
			{"imdb/all-inlined", func() (*xschema.Schema, error) { return pschema.AllInlined(base) }},
			{"imdb/all-outlined", func() (*xschema.Schema, error) { return pschema.InitialOutlined(base) }},
			{"imdb/advised", func() (*xschema.Schema, error) {
				res, err := core.GreedySearch(context.Background(), base, imdb.LookupWorkload(), imdb.Stats(),
					core.Options{Strategy: core.GreedySO, Workers: 1})
				if err != nil {
					return nil, err
				}
				return res.Best.Schema, nil
			}},
			{"imdb/union-distributed", func() (*xschema.Schema, error) {
				out, err := pschema.InitialOutlined(base)
				if err != nil {
					return nil, err
				}
				cands := transform.Candidates(out, transform.Options{Kinds: []transform.Kind{transform.KindUnionDistribute}})
				if len(cands) == 0 {
					return nil, errors.New("no union-distribution candidate")
				}
				return transform.Apply(out, cands[0])
			}},
			{"lib", func() (*xschema.Schema, error) { return xschema.ParseSchema(libSchema) }},
		}
		for _, b := range builders {
			ps, err := b.build()
			if err != nil {
				layoutsErr = err
				return
			}
			cat, err := relational.Map(ps)
			if err != nil {
				layoutsErr = err
				return
			}
			layoutsList = append(layoutsList, layout{b.name, ps, cat})
		}
	})
	if layoutsErr != nil {
		tb.Fatal(layoutsErr)
	}
	return layoutsList
}

// checkAgreement shreds doc into every layout and fails unless the shred
// succeeds exactly when the layout's schema validates doc. It returns
// whether any layout validates doc.
func checkAgreement(t *testing.T, layouts []layout, doc *xmltree.Node) (valid bool) {
	t.Helper()
	for _, l := range layouts {
		ok := l.ps.Valid(doc)
		err := New(l.ps, l.cat, engine.NewDatabase(l.cat)).Shred(doc)
		if (err == nil) != ok {
			t.Errorf("%s: Valid = %v but Shred error = %v\n%s", l.name, ok, err, doc)
		}
		valid = valid || ok
	}
	return valid
}

// imdbCase builds a small generated IMDB document and applies one edit.
func imdbCase(edit func(doc *xmltree.Node)) *xmltree.Node {
	doc := imdb.Generate(imdb.GenOptions{Shows: 4, Seed: 3})
	edit(doc)
	return doc
}

func mustParse(t testing.TB, s string) *xmltree.Node {
	t.Helper()
	doc, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestShredAgreesWithValidator: on every layout, Shred accepts exactly
// the documents Valid accepts — generated ones, and ones mutated in the
// places where a matcher can be laxer than the validator.
func TestShredAgreesWithValidator(t *testing.T) {
	layouts := agreementLayouts(t)
	show := func(doc *xmltree.Node) *xmltree.Node { return doc.Child("show") }
	cases := []struct {
		name  string
		doc   func(t *testing.T) *xmltree.Node
		valid bool
	}{
		{"imdb generated", func(*testing.T) *xmltree.Node { return imdbCase(func(*xmltree.Node) {}) }, true},
		{"imdb attribute on scalar title", func(*testing.T) *xmltree.Node {
			return imdbCase(func(d *xmltree.Node) { show(d).Child("title").SetAttr("lang", "en") })
		}, false},
		{"imdb attribute on nested scalar", func(*testing.T) *xmltree.Node {
			return imdbCase(func(d *xmltree.Node) { d.Path("actor", "played", "title")[0].SetAttr("lang", "en") })
		}, false},
		{"imdb child element under scalar year", func(*testing.T) *xmltree.Node {
			return imdbCase(func(d *xmltree.Node) { show(d).Child("year").Append(xmltree.NewText("b", "1")) })
		}, false},
		{"imdb non-integer year", func(*testing.T) *xmltree.Node {
			return imdbCase(func(d *xmltree.Node) { show(d).Child("year").Text = "MCMXCIII" })
		}, false},
		{"imdb empty integer", func(*testing.T) *xmltree.Node {
			return imdbCase(func(d *xmltree.Node) { d.Path("director", "directed", "year")[0].Text = "" })
		}, false},
		{"imdb missing title", func(*testing.T) *xmltree.Node {
			return imdbCase(func(d *xmltree.Node) {
				s := show(d)
				s.Children = s.Children[1:] // title is the first child
			})
		}, false},
		{"lib valid", func(t *testing.T) *xmltree.Node {
			return mustParse(t, `<lib><name>N</name><count>3</count><book><title>T</title><year>1999</year></book><note>n</note></lib>`)
		}, true},
		{"lib empty string name", func(t *testing.T) *xmltree.Node {
			return mustParse(t, `<lib><name/><count>0</count></lib>`)
		}, true},
		{"lib empty named scalar", func(t *testing.T) *xmltree.Node {
			return mustParse(t, `<lib><name>N</name><count>1</count><book><title/><year>1999</year></book></lib>`)
		}, true},
		{"lib attribute on root-level scalar", func(t *testing.T) *xmltree.Node {
			return mustParse(t, `<lib><name lang="en">N</name><count>3</count></lib>`)
		}, false},
		{"lib attribute on scalar inside Book", func(t *testing.T) *xmltree.Node {
			return mustParse(t, `<lib><name>N</name><count>3</count><book><title lang="en">T</title><year>1999</year></book></lib>`)
		}, false},
		{"lib non-integer count", func(t *testing.T) *xmltree.Node {
			return mustParse(t, `<lib><name>N</name><count>three</count></lib>`)
		}, false},
		{"lib excluded wildcard tag", func(t *testing.T) *xmltree.Node {
			return mustParse(t, `<lib><name>N</name><count>3</count><secret>s</secret></lib>`)
		}, false},
		{"lib attribute on wildcard scalar", func(t *testing.T) *xmltree.Node {
			return mustParse(t, `<lib><name>N</name><count>3</count><note x="1">n</note></lib>`)
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := checkAgreement(t, layouts, c.doc(t)); got != c.valid {
				t.Errorf("valid = %v, want %v", got, c.valid)
			}
		})
	}
	for seed := int64(1); seed <= 20; seed++ {
		doc, err := xschema.NewGenerator(imdb.Schema(), rand.New(rand.NewSource(seed))).Generate()
		if err != nil {
			t.Fatal(err)
		}
		if !checkAgreement(t, layouts, doc) {
			t.Errorf("generated document (seed %d) is invalid", seed)
		}
	}
}

// FuzzShredAgreesWithValidator drives checkAgreement with arbitrary XML.
// The seeds are generated documents and the mutations of
// TestShredAgreesWithValidator; the fuzzer edits names, attributes and
// text from there.
func FuzzShredAgreesWithValidator(f *testing.F) {
	f.Add(`<lib><name lang="en">N</name><count>3</count></lib>`)
	f.Add(`<lib><name>N</name><count>3</count><book><title lang="en">T</title><year>1999</year></book></lib>`)
	f.Add(`<lib><name>N</name><count>3</count><book><title>T</title><year>1999</year></book><note>n</note></lib>`)
	f.Add(`<lib><name>N</name><count>3</count><secret>s</secret></lib>`)
	f.Add(imdb.Generate(imdb.GenOptions{Shows: 2, Seed: 1}).String())
	f.Add(imdbCase(func(d *xmltree.Node) { d.Child("show").Child("year").Text = "x" }).String())
	f.Add(imdbCase(func(d *xmltree.Node) { d.Child("show").Child("title").SetAttr("lang", "en") }).String())
	for seed := int64(1); seed <= 4; seed++ {
		doc, err := xschema.NewGenerator(imdb.Schema(), rand.New(rand.NewSource(seed))).Generate()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := xmltree.ParseString(src)
		if err != nil {
			return
		}
		checkAgreement(t, agreementLayouts(t), doc)
	})
}

// TestElementPiecesChoosesType: two types share the element name show;
// a node instantiates exactly the one whose content it matches.
func TestElementPiecesChoosesType(t *testing.T) {
	s := xschema.MustParseSchema(`
type Movie = show[ title[ String ], box_office[ Integer ] ]
type TV = show[ title[ String ], seasons[ Integer ] ]`)
	sh := &Shredder{Schema: s}
	movie := mustParse(t, `<show><title>X</title><box_office>5</box_office></show>`)
	tv := mustParse(t, `<show><title>Y</title><seasons>3</seasons></show>`)
	mt, _ := s.Lookup("Movie")
	tt, _ := s.Lookup("TV")
	matches := func(body xschema.Type, n *xmltree.Node) bool {
		_, ok := sh.elementPieces(body, n)
		return ok
	}
	if !matches(mt, movie) || matches(mt, tv) {
		t.Error("Movie matching broken")
	}
	if !matches(tt, tv) || matches(tt, movie) {
		t.Error("TV matching broken")
	}
}
