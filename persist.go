package legodb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"legodb/internal/colfile"
	"legodb/internal/engine"
	"legodb/internal/fsio"
	"legodb/internal/relational"
	"legodb/internal/xschema"
)

// Store persistence: a snapshot carries the physical schema (from which
// the catalog re-derives via the fixed mapping) and every relation's
// rows, so an advised-and-loaded store can be saved and reopened without
// re-running the search or re-shredding documents.
//
// Snapshots are framed with the in-house header (the cost-cache
// snapshot idiom): magic, version, table count, payload length and a
// CRC32C of the payload. Version 2, the only version read or written,
// stores each table as a colfile segment — the column-chunked binary
// format of internal/colfile — which reopened stores serve directly as
// frozen columnar bases. A truncated, bit-flipped or foreign file, or
// one with any other version (including the retired version-1 gob
// rows), is rejected with ErrCorruptStoreSnapshot before any table is
// built, and OpenStoreFile quarantines such a file (to path+".corrupt",
// or the first free path+".corrupt.N" when earlier evidence holds that
// name) so the evidence survives and the path is free for the next
// save. SaveFile is crash-consistent: temp file, fsync, rename,
// parent-directory fsync — a snapshot visible at the canonical path is
// complete and checksum-valid.

// storeMagic identifies a store snapshot ("LGDBSTOR").
var storeMagic = [8]byte{'L', 'G', 'D', 'B', 'S', 'T', 'O', 'R'}

const (
	// storeSnapshotVersion is the column-chunked payload: the schema
	// text plus one colfile segment per table.
	storeSnapshotVersion = 2
	storeHeaderLen       = 30
	// maxStoreSnapshotTables bounds the declared table count; a header
	// claiming more is forged (catalogs are tens of tables, not
	// millions).
	maxStoreSnapshotTables = 1 << 20
	// maxStoreSnapshotBytes bounds the payload allocation (1 GiB).
	maxStoreSnapshotBytes = 1 << 30
)

// ErrCorruptStoreSnapshot marks a snapshot OpenStore rejected before
// reconstructing anything: bad magic, wrong version, truncation, an
// implausible size, a checksum mismatch at the frame or inside a
// colfile segment, or a payload that does not decode. Callers can
// errors.Is on it to quarantine the file.
var ErrCorruptStoreSnapshot = errors.New("legodb: corrupt store snapshot")

// Save writes the store (schema and all tables as colfile segments) to
// w, framed and checksummed. It takes the store's read lock, so a
// snapshot taken while queries are serving is consistent (mutations
// wait).
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	schemaText := s.schema.String()
	segments := make([][]byte, 0, len(s.catalog.Order))
	for _, name := range s.catalog.Order {
		t := s.db.Table(name)
		cols := make([]string, len(t.Def.Columns))
		for i, c := range t.Def.Columns {
			cols[i] = c.Name
		}
		// Tombstoned rows compact away in the snapshot.
		ct := &colfile.Table{
			Name:    name,
			Columns: cols,
			Rows:    t.LiveRows(),
			NextID:  t.PeekNextID(),
			Cols:    t.SnapshotColumns(),
		}
		seg, err := colfile.Encode(ct)
		if err != nil {
			s.mu.RUnlock()
			return fmt.Errorf("legodb: encode snapshot table %s: %w", name, err)
		}
		segments = append(segments, seg)
	}
	s.mu.RUnlock()
	var payload bytes.Buffer
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(schemaText)))
	payload.Write(n[:])
	payload.WriteString(schemaText)
	for _, seg := range segments {
		binary.LittleEndian.PutUint32(n[:], uint32(len(seg)))
		payload.Write(n[:])
		payload.Write(seg)
	}
	var hdr [storeHeaderLen]byte
	copy(hdr[:8], storeMagic[:])
	binary.LittleEndian.PutUint16(hdr[8:10], storeSnapshotVersion)
	binary.LittleEndian.PutUint64(hdr[10:18], uint64(len(segments)))
	binary.LittleEndian.PutUint64(hdr[18:26], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[26:30], fsio.Checksum(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("legodb: write snapshot header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("legodb: write snapshot payload: %w", err)
	}
	return nil
}

// SaveFile writes the store to a file crash-consistently: a sibling
// temp file is written and fsynced, renamed into place, and the parent
// directory fsynced, so a crash at any instant leaves either the
// previous complete snapshot or the new one at path — never a torn
// image. The faults.SiteSnapshot failpoint (inside WriteFileAtomic)
// simulates the crash between fsync and rename.
func (s *Store) SaveFile(path string) error {
	return fsio.WriteFileAtomic(path, s.Save)
}

// OpenStore reads a snapshot written by Save and reconstructs the store:
// the frame is validated (magic, version, declared sizes, payload
// checksum — failures return ErrCorruptStoreSnapshot before anything is
// built), then the schema is re-parsed, the catalog re-derived through
// the fixed mapping, and the tables restored — each colfile segment
// becomes a frozen columnar base with its indexes rebuilt.
func OpenStore(r io.Reader) (*Store, error) {
	var hdr [storeHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorruptStoreSnapshot, err)
	}
	if !bytes.Equal(hdr[:8], storeMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptStoreSnapshot)
	}
	version := binary.LittleEndian.Uint16(hdr[8:10])
	if version != storeSnapshotVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, want %d",
			ErrCorruptStoreSnapshot, version, storeSnapshotVersion)
	}
	declared := binary.LittleEndian.Uint64(hdr[10:18])
	payloadLen := binary.LittleEndian.Uint64(hdr[18:26])
	sum := binary.LittleEndian.Uint32(hdr[26:30])
	if declared > maxStoreSnapshotTables {
		return nil, fmt.Errorf("%w: %d tables exceeds limit %d", ErrCorruptStoreSnapshot, declared, maxStoreSnapshotTables)
	}
	if payloadLen > maxStoreSnapshotBytes {
		return nil, fmt.Errorf("%w: %d payload bytes exceeds limit %d", ErrCorruptStoreSnapshot, payloadLen, maxStoreSnapshotBytes)
	}
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: short payload: %v", ErrCorruptStoreSnapshot, err)
	}
	if got := fsio.Checksum(payload); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrCorruptStoreSnapshot, got, sum)
	}
	return openStoreV2(payload, declared)
}

// openStoreV2 reconstructs a store from the column-chunked payload:
// length-prefixed schema text, then one length-prefixed colfile segment
// per table, each installed as a frozen columnar base.
func openStoreV2(payload []byte, declared uint64) (*Store, error) {
	schemaText, rest, err := takeSegment(payload, "schema")
	if err != nil {
		return nil, err
	}
	tables := make([]*colfile.Table, 0, declared)
	for len(rest) > 0 {
		var seg []byte
		seg, rest, err = takeSegment(rest, "table")
		if err != nil {
			return nil, err
		}
		ct, err := colfile.Decode(seg)
		if err != nil {
			if errors.Is(err, colfile.ErrCorrupt) {
				return nil, fmt.Errorf("%w: table segment %d: %v", ErrCorruptStoreSnapshot, len(tables), err)
			}
			return nil, err
		}
		tables = append(tables, ct)
	}
	if uint64(len(tables)) != declared {
		return nil, fmt.Errorf("%w: %d tables decoded, header declared %d", ErrCorruptStoreSnapshot, len(tables), declared)
	}
	ps, err := xschema.ParseSchema(string(schemaText))
	if err != nil {
		return nil, fmt.Errorf("legodb: snapshot schema: %w", err)
	}
	cat, err := relational.Map(ps)
	if err != nil {
		return nil, fmt.Errorf("legodb: snapshot mapping: %w", err)
	}
	store, err := openStore(ps, cat)
	if err != nil {
		return nil, err
	}
	for _, ct := range tables {
		t := store.db.Table(ct.Name)
		if t == nil {
			return nil, fmt.Errorf("legodb: snapshot table %q not in the re-derived catalog", ct.Name)
		}
		if err := matchColumns(ct.Name, ct.Columns, t); err != nil {
			return nil, err
		}
		base, err := engine.NewColumnBase(ct.Cols, float64(ct.DataBytes))
		if err != nil {
			return nil, fmt.Errorf("%w: table %q: %v", ErrCorruptStoreSnapshot, ct.Name, err)
		}
		if base.Rows() != ct.Rows {
			return nil, fmt.Errorf("%w: table %q holds %d rows, segment declared %d",
				ErrCorruptStoreSnapshot, ct.Name, base.Rows(), ct.Rows)
		}
		if err := t.SetColumnBase(base); err != nil {
			return nil, fmt.Errorf("legodb: snapshot table %q: %w", ct.Name, err)
		}
		t.SetNextID(ct.NextID)
	}
	return store, nil
}

// takeSegment splits one u32-length-prefixed segment off the payload.
func takeSegment(payload []byte, what string) (seg, rest []byte, err error) {
	if len(payload) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated before %s segment", ErrCorruptStoreSnapshot, what)
	}
	n := binary.LittleEndian.Uint32(payload)
	if uint64(n) > uint64(len(payload)-4) {
		return nil, nil, fmt.Errorf("%w: %s segment of %d bytes overruns payload", ErrCorruptStoreSnapshot, what, n)
	}
	return payload[4 : 4+n], payload[4+n:], nil
}

// matchColumns checks a snapshot table's column list against the
// re-derived catalog definition.
func matchColumns(name string, cols []string, t *engine.Table) error {
	if len(cols) != len(t.Def.Columns) {
		return fmt.Errorf("legodb: snapshot table %q has %d columns, catalog has %d",
			name, len(cols), len(t.Def.Columns))
	}
	for i, c := range t.Def.Columns {
		if cols[i] != c.Name {
			return fmt.Errorf("legodb: snapshot table %q column %d is %q, catalog has %q",
				name, i, cols[i], c.Name)
		}
	}
	return nil
}

// OpenStoreFile reads a snapshot file. A corrupt file is quarantined
// by fsio.Quarantine to path+".corrupt", or the first free
// path+".corrupt.N" (the returned error still reports the corruption,
// and mentions the quarantine path when the rename succeeded), so the
// next SaveFile starts clean and the evidence survives for inspection.
func OpenStoreFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	store, err := OpenStore(f)
	f.Close()
	if err != nil && errors.Is(err, ErrCorruptStoreSnapshot) {
		if quarantine, renameErr := fsio.Quarantine(path); renameErr == nil {
			return nil, fmt.Errorf("%w (quarantined to %s)", err, quarantine)
		}
	}
	return store, err
}
