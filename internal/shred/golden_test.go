package shred

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"legodb/internal/engine"
	"legodb/internal/imdb"
	"legodb/internal/pschema"
	"legodb/internal/relational"
	"legodb/internal/xschema"
)

// rowsDigest hashes every table's rows in catalog order, row order and
// column order: ids, foreign keys and nulls included.
func rowsDigest(cat *relational.Catalog, db *engine.Database) string {
	h := sha256.New()
	var buf [8]byte
	for _, name := range cat.Order {
		t := db.Table(name)
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(buf[:], uint64(t.NumRows()))
		h.Write(buf[:])
		for pos := 0; pos < t.NumRows(); pos++ {
			for ci := range t.Def.Columns {
				v := t.Cell(pos, ci)
				binary.LittleEndian.PutUint64(buf[:], uint64(v.Kind))
				h.Write(buf[:])
				binary.LittleEndian.PutUint64(buf[:], uint64(v.Int))
				h.Write(buf[:])
				binary.LittleEndian.PutUint64(buf[:], uint64(len(v.Str)))
				h.Write(buf[:])
				h.Write([]byte(v.Str))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestShredRowsGolden pins the exact relational image of a generated
// IMDB document in the all-inlined and all-outlined layouts. The digests
// were computed with the shredder that matched every referenced element
// twice (validator first, shredder second) and copied captured pieces
// on every extension, so they prove the single-pass shred writes the
// same rows under the same ids.
func TestShredRowsGolden(t *testing.T) {
	layouts := map[string]struct {
		build func(*xschema.Schema) (*xschema.Schema, error)
		want  string
	}{
		"all-inlined":  {pschema.AllInlined, "cb44b3169e89a5710fd10ff32b19938e30bca208c6fc04f304f2702524374280"},
		"all-outlined": {pschema.InitialOutlined, "d1b7b805cb7db284354f955ee6ab45404fe6a544804fa5f3b984aa4f0c436b70"},
	}
	for name, l := range layouts {
		t.Run(name, func(t *testing.T) {
			ps, err := l.build(imdb.Schema())
			if err != nil {
				t.Fatal(err)
			}
			doc := imdb.Generate(imdb.GenOptions{Shows: 50, Seed: 1})
			cat, db := build(t, ps, doc)
			if got := rowsDigest(cat, db); got != l.want {
				t.Errorf("rows digest = %s, want %s", got, l.want)
			}
		})
	}
}

// shredBytes returns the bytes allocated while shredding doc into a
// fresh all-inlined IMDB database.
func shredBytes(t *testing.T, shows int) uint64 {
	t.Helper()
	ps, err := pschema.AllInlined(imdb.Schema())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := relational.Map(ps)
	if err != nil {
		t.Fatal(err)
	}
	doc := imdb.Generate(imdb.GenOptions{Shows: shows, Seed: 1})
	sh := New(ps, cat, engine.NewDatabase(cat))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := sh.Shred(doc); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestShredAllocationsScaleLinearly guards the single-pass shred: four
// times the shows may cost at most five times the bytes. A shred that
// copies captured pieces per extension, or re-matches subtrees, grows
// with the square of the root's item count and fails this.
func TestShredAllocationsScaleLinearly(t *testing.T) {
	small, large := shredBytes(t, 50), shredBytes(t, 200)
	t.Logf("50 shows: %d bytes, 200 shows: %d bytes (%.1fx)", small, large, float64(large)/float64(small))
	if large > 5*small {
		t.Fatalf("200-show shred allocated %d bytes, more than 5x the 50-show shred's %d", large, small)
	}
}
