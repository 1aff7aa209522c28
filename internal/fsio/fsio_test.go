package fsio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"legodb/internal/faults"
)

func writeBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// listDir returns the directory's entry names, to prove temp files never
// outlive a WriteFileAtomic call.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	if err := WriteFileAtomic(path, writeBytes([]byte("first"))); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); string(got) != "first" {
		t.Fatalf("content = %q", got)
	}
	if err := WriteFileAtomic(path, writeBytes([]byte("second"))); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); string(got) != "second" {
		t.Fatalf("content after replace = %q", got)
	}
	if names := listDir(t, dir); len(names) != 1 {
		t.Errorf("directory holds leftovers: %v", names)
	}
}

// TestWriteFileAtomicWriterError proves a failing writer leaves the
// previous file untouched and no temp file behind — the torn-temp-file
// scenario: the write aborted partway, so nothing may reach the
// canonical path.
func TestWriteFileAtomicWriterError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	if err := WriteFileAtomic(path, writeBytes([]byte("durable"))); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		// A truncated temp: some bytes land, then the writer dies.
		if _, werr := w.Write([]byte("par")); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want the writer's error, got %v", err)
	}
	if got := readFile(t, path); string(got) != "durable" {
		t.Fatalf("previous content lost: %q", got)
	}
	if names := listDir(t, dir); len(names) != 1 || names[0] != "data.bin" {
		t.Errorf("temp file leaked: %v", names)
	}
}

// TestWriteFileAtomicCrashBeforeRename arms the snapshot failpoint —
// the instant between the temp fsync and the rename — and proves the
// canonical path still holds the previous complete file, with the temp
// cleaned up.
func TestWriteFileAtomicCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	if err := WriteFileAtomic(path, writeBytes([]byte("v1"))); err != nil {
		t.Fatal(err)
	}
	defer faults.Enable(faults.SiteSnapshot, 1, false)()
	err := WriteFileAtomic(path, writeBytes([]byte("v2")))
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if got := readFile(t, path); string(got) != "v1" {
		t.Fatalf("canonical path changed across an aborted save: %q", got)
	}
	if names := listDir(t, dir); len(names) != 1 || names[0] != "data.bin" {
		t.Errorf("temp file leaked: %v", names)
	}
	// The failpoint budget is spent; the retry lands.
	if err := WriteFileAtomic(path, writeBytes([]byte("v2"))); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); string(got) != "v2" {
		t.Fatalf("retry content = %q", got)
	}
}

func TestWriteFileAtomicFirstWriteAborted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	defer faults.Enable(faults.SiteSnapshot, 1, false)()
	if err := WriteFileAtomic(path, writeBytes([]byte("never"))); err == nil {
		t.Fatal("aborted first write reported success")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("aborted first write left a file at the canonical path")
	}
	if names := listDir(t, dir); len(names) != 0 {
		t.Errorf("temp file leaked: %v", names)
	}
}

func TestChecksum(t *testing.T) {
	b := []byte("the quick brown fox")
	full := Checksum(b)
	if full == 0 {
		t.Error("checksum of non-empty input is zero")
	}
	split := Update(Update(0, b[:7]), b[7:])
	if split != full {
		t.Errorf("incremental checksum %08x != one-shot %08x", split, full)
	}
	if Checksum([]byte("the quick brown fix")) == full {
		t.Error("single-bit-different input collides")
	}
}

func TestWriteFileAtomicConcurrentDistinctPaths(t *testing.T) {
	dir := t.TempDir()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		i := i
		go func() {
			path := filepath.Join(dir, fmt.Sprintf("f%d.bin", i))
			done <- WriteFileAtomic(path, writeBytes([]byte(strings.Repeat("x", i+1))))
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if names := listDir(t, dir); len(names) != 8 {
		t.Errorf("want 8 files, got %v", names)
	}
}

// TestQuarantineKeepsEarlierEvidence corrupts the same path twice: the
// second quarantine must pick a fresh name instead of overwriting the
// first, and both files must keep their bytes.
func TestQuarantineKeepsEarlierEvidence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	var got []string
	for _, content := range []string{"first corruption", "second corruption"} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		dst, err := Quarantine(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("quarantined file still occupies %s", path)
		}
		got = append(got, dst)
	}
	if want := []string{path + ".corrupt", path + ".corrupt.1"}; got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("quarantine names = %v, want %v", got, want)
	}
	if b := readFile(t, got[0]); string(b) != "first corruption" {
		t.Errorf("first evidence = %q", b)
	}
	if b := readFile(t, got[1]); string(b) != "second corruption" {
		t.Errorf("second evidence = %q", b)
	}
}
