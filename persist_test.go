package legodb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"legodb/internal/faults"
	"legodb/internal/fsio"
	"legodb/internal/imdb"
	"legodb/internal/xmltree"
)

func advisedStore(t *testing.T) (*Store, *xmltree.Node) {
	t.Helper()
	eng, err := New(imdb.SchemaText)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetStatisticsText(imdb.Stats().String()); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddQuery("q", `FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/title, $v/year`, 1); err != nil {
		t.Fatal(err)
	}
	advice, err := eng.Advise(AdviseOptions{Strategy: GreedySI, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	store, err := advice.Open()
	if err != nil {
		t.Fatal(err)
	}
	doc := imdb.Generate(imdb.GenOptions{Shows: 40, Seed: 13})
	if err := store.Load(doc); err != nil {
		t.Fatal(err)
	}
	return store, doc
}

func TestSaveAndOpenStore(t *testing.T) {
	store, doc := advisedStore(t)
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored, err := OpenStore(&buf)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	// Row counts survive.
	for _, name := range store.Tables() {
		if got, want := restored.TableRows(name), store.TableRows(name); got != want {
			t.Errorf("table %s: %d rows restored, want %d", name, got, want)
		}
	}
	// Queries answer identically.
	title := doc.Path("show", "title")[0].Text
	q := `FOR $v IN imdb/show WHERE $v/title = c1 RETURN $v/title, $v/year`
	orig, err := store.Query(q, Params{"c1": title})
	if err != nil {
		t.Fatal(err)
	}
	back, err := restored.Query(q, Params{"c1": title})
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Rows) == 0 || len(orig.Rows) != len(back.Rows) {
		t.Fatalf("rows: %d vs %d", len(orig.Rows), len(back.Rows))
	}
	// Publishing still round-trips.
	docs, err := restored.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.EqualCanonical(doc, docs[0]) {
		t.Fatal("restored store publishes a different document")
	}
	// Inserts after restore continue the id sequence without collision.
	extra := imdb.Generate(imdb.GenOptions{Shows: 3, Seed: 99})
	if err := restored.Load(extra); err != nil {
		t.Fatalf("Load after restore: %v", err)
	}
	docs, err = restored.Publish()
	if err != nil {
		t.Fatalf("Publish after post-restore load: %v", err)
	}
	if len(docs) != 2 {
		t.Fatalf("documents after second load = %d", len(docs))
	}
}

func TestSaveFileRoundTrip(t *testing.T) {
	store, _ := advisedStore(t)
	path := filepath.Join(t.TempDir(), "store.legodb")
	if err := store.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	restored, err := OpenStoreFile(path)
	if err != nil {
		t.Fatalf("OpenStoreFile: %v", err)
	}
	if restored.DDL() != store.DDL() {
		t.Fatal("DDL changed across the file round trip")
	}
}

func TestOpenStoreRejectsGarbage(t *testing.T) {
	if _, err := OpenStore(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if _, err := OpenStoreFile("/nonexistent/path"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestSnapshotFrameValidation corrupts a valid snapshot every way the
// header can catch — magic, version, truncation, payload bit-flip — and
// demands ErrCorruptStoreSnapshot before any reconstruction starts.
func TestSnapshotFrameValidation(t *testing.T) {
	store, _ := advisedStore(t)
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(name string, mutate func(b []byte) []byte) {
		t.Helper()
		b := append([]byte(nil), good...)
		b = mutate(b)
		_, err := OpenStore(bytes.NewReader(b))
		if !errors.Is(err, ErrCorruptStoreSnapshot) {
			t.Errorf("%s: want ErrCorruptStoreSnapshot, got %v", name, err)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	corrupt("bad version", func(b []byte) []byte { b[8] = 0x7f; return b })
	corrupt("retired version 1", func([]byte) []byte { return retiredV1Frame() })
	corrupt("truncated header", func(b []byte) []byte { return b[:storeHeaderLen-3] })
	corrupt("truncated payload", func(b []byte) []byte { return b[:len(b)-5] })
	corrupt("payload bit-flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
	corrupt("forged table count", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[10:18], 1<<40)
		return b
	})
	corrupt("forged payload length", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[18:26], uint64(maxStoreSnapshotBytes)+1)
		return b
	})

	// The pristine bytes still open.
	if _, err := OpenStore(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// TestOpenStoreFileQuarantinesCorrupt is the regression test for the
// quarantine path: a corrupt snapshot file is moved aside to
// path+".corrupt" and the error names both the corruption and the
// quarantine location.
func TestOpenStoreFileQuarantinesCorrupt(t *testing.T) {
	store, _ := advisedStore(t)
	path := filepath.Join(t.TempDir(), "store.legodb")
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenStoreFile(path)
	if !errors.Is(err, ErrCorruptStoreSnapshot) {
		t.Fatalf("want ErrCorruptStoreSnapshot, got %v", err)
	}
	if !strings.Contains(err.Error(), ".corrupt") {
		t.Errorf("error does not mention the quarantine: %v", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Error("corrupt file still occupies the snapshot path")
	}
	if _, statErr := os.Stat(path + ".corrupt"); statErr != nil {
		t.Errorf("quarantined file missing: %v", statErr)
	}
	// The freed path accepts the next save, which then opens cleanly.
	if err := store.SaveFile(path); err != nil {
		t.Fatalf("SaveFile after quarantine: %v", err)
	}
	if _, err := OpenStoreFile(path); err != nil {
		t.Fatalf("reopen after quarantine: %v", err)
	}
}

// TestSaveRacesServing snapshots a store while queries and mutations
// hammer it (run under -race in CI): every snapshot must be internally
// consistent — it reopens cleanly and publishes valid documents.
func TestSaveRacesServing(t *testing.T) {
	store, _ := advisedStore(t)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan error, 16)
	report := func(op string, err error) {
		select {
		case fail <- fmt.Errorf("%s: %w", op, err):
		default:
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := store.Query(
				`FOR $v IN imdb/show WHERE $v/year = c1 RETURN $v/title`,
				Params{"c1": fmt.Sprint(1990 + i%20)}); err != nil {
				report("Query", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := store.InsertChild(
				`FOR $s IN imdb/show RETURN $s`, nil,
				fmt.Sprintf(`<aka>save race %d</aka>`, i)); err != nil {
				report("InsertChild", err)
				return
			}
		}
	}()

	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if err := store.Save(&buf); err != nil {
			t.Fatalf("Save %d under load: %v", i, err)
		}
		restored, err := OpenStore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("snapshot %d taken under load does not reopen: %v", i, err)
		}
		if _, err := restored.Publish(); err != nil {
			t.Fatalf("snapshot %d does not publish: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
}

// TestSaveFileCrashBeforeRename is the acceptance test for snapshot
// durability: a store killed mid-SaveFile at the faults.SiteSnapshot
// failpoint (between the temp fsync and the rename) must leave the
// previous complete snapshot at the canonical path — never a torn image
// — and the next save must land cleanly.
func TestSaveFileCrashBeforeRename(t *testing.T) {
	store, _ := advisedStore(t)
	path := filepath.Join(t.TempDir(), "store.legodb")
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the store so an aborted second save would be observable.
	if _, err := store.InsertChild(
		`FOR $s IN imdb/show RETURN $s`, nil, `<aka>crash witness</aka>`); err != nil {
		t.Fatal(err)
	}
	defer faults.Enable(faults.SiteSnapshot, 1, false)()
	if err := store.SaveFile(path); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("want injected crash, got %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("canonical path unreadable after aborted save: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("aborted save changed the canonical path")
	}
	restored, err := OpenStoreFile(path)
	if err != nil {
		t.Fatalf("previous snapshot does not reopen after aborted save: %v", err)
	}
	if got, want := restored.TotalRows(), len(before) > 0; want && got == 0 {
		t.Fatal("previous snapshot reopened empty")
	}

	// Failpoint budget spent: the retry publishes the new image.
	if err := store.SaveFile(path); err != nil {
		t.Fatalf("retry save: %v", err)
	}
	restored, err = OpenStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.TotalRows() != store.TotalRows() {
		t.Errorf("retried snapshot rows = %d, want %d", restored.TotalRows(), store.TotalRows())
	}
}

// TestOpenStoreFileQuarantinesTruncated covers the torn-write shape a
// crashing pre-fix writer could leave: a prefix of a valid snapshot.
// Every truncation point must be detected and quarantined.
func TestOpenStoreFileQuarantinesTruncated(t *testing.T) {
	store, _ := advisedStore(t)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.legodb")
	if err := store.SaveFile(full); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 7, storeHeaderLen - 1, storeHeaderLen + 10, len(raw) / 2, len(raw) - 1} {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.legodb", cut))
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenStoreFile(path)
		if !errors.Is(err, ErrCorruptStoreSnapshot) {
			t.Errorf("truncation at %d: want ErrCorruptStoreSnapshot, got %v", cut, err)
			continue
		}
		if _, statErr := os.Stat(path + ".corrupt"); statErr != nil {
			t.Errorf("truncation at %d: not quarantined: %v", cut, statErr)
		}
	}
}

// retiredV1Frame hand-builds a frame whose magic, sizes and checksum
// are all valid but whose header declares the retired version 1 (gob
// rows), which no reader accepts any more.
func retiredV1Frame() []byte {
	payload := []byte("version-1 gob rows")
	frame := make([]byte, storeHeaderLen, storeHeaderLen+len(payload))
	copy(frame[:8], storeMagic[:])
	binary.LittleEndian.PutUint16(frame[8:10], 1)
	binary.LittleEndian.PutUint64(frame[10:18], 1)
	binary.LittleEndian.PutUint64(frame[18:26], uint64(len(payload)))
	binary.LittleEndian.PutUint32(frame[26:30], fsio.Checksum(payload))
	return append(frame, payload...)
}

// TestOpenStoreFileQuarantinesRetiredVersion: a version-1 snapshot file
// fails the version check like any other corrupt file and is moved aside
// to path+".corrupt".
func TestOpenStoreFileQuarantinesRetiredVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.legodb")
	if err := os.WriteFile(path, retiredV1Frame(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStoreFile(path); !errors.Is(err, ErrCorruptStoreSnapshot) {
		t.Fatalf("version-1 snapshot: want ErrCorruptStoreSnapshot, got %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("version-1 snapshot still occupies the snapshot path")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("version-1 snapshot not quarantined: %v", err)
	}
}

// TestOpenStoreV2CorruptSegmentQuarantines flips a byte inside a colfile
// segment (past the frame header, so the frame checksum is recomputed to
// match) and demands the chunk-level checksum still catches it.
func TestOpenStoreV2CorruptSegmentQuarantines(t *testing.T) {
	store, _ := advisedStore(t)
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a byte in the middle of the payload (inside some table
	// segment) and re-stamp the frame checksum so only colfile-level
	// validation can object.
	payload := raw[storeHeaderLen:]
	payload[len(payload)/2] ^= 0x40
	binary.LittleEndian.PutUint32(raw[26:30], fsio.Checksum(payload))
	_, err := OpenStore(bytes.NewReader(raw))
	if !errors.Is(err, ErrCorruptStoreSnapshot) {
		t.Fatalf("forged frame checksum slipped past colfile validation: %v", err)
	}
}
