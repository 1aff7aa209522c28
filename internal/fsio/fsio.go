// Package fsio centralizes the disciplines every on-disk artifact in this
// repo shares: Castagnoli checksums (one package-level table instead of a
// crc32.MakeTable per call), crash-consistent file replacement, and the
// quarantine of files found corrupt.
//
// The durability contract WriteFileAtomic enforces is the classic
// fsync-before-rename protocol: the bytes are written to a sibling temp
// file, fsynced to media, renamed over the canonical path, and the parent
// directory is fsynced so the rename itself survives a crash. A reader
// that finds a file at the canonical path may therefore assume it is a
// complete image some writer finished — torn or empty files can only ever
// exist under the .tmp name, which the next save overwrites.
package fsio

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"

	"legodb/internal/faults"
)

// castagnoli is the CRC32C table shared by every checksum in the repo
// (store snapshots, cost-cache snapshots, colfile chunks). MakeTable is
// cheap but not free; building it once here keeps checksumming off the
// allocator entirely.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of b.
func Checksum(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

// Update continues a running CRC32C over b.
func Update(crc uint32, b []byte) uint32 {
	return crc32.Update(crc, castagnoli, b)
}

// WriteFileAtomic replaces path with the bytes produced by write,
// crash-consistently: temp file, fsync, rename, parent-directory fsync.
// On any error the canonical path is untouched and the temp file is
// removed. The faults.SiteSnapshot failpoint fires between the temp-file
// fsync and the rename, so tests can simulate a crash at the most
// dangerous instant and prove the canonical path never holds a torn
// image.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := faults.Inject(faults.SiteSnapshot); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fsio: snapshot write aborted: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-completed rename inside it is
// durable. Filesystems that cannot fsync a directory (EINVAL/ENOTSUP on
// some platforms) are forgiven: the rename itself is still atomic, only
// its durability ordering is weaker.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("fsio: fsync %s: %w", dir, err)
	}
	return nil
}

// Quarantine renames a file found corrupt aside, so its bytes survive
// for inspection and path is free for the next save. The new name is
// path+".corrupt", or the first of path+".corrupt.1", path+".corrupt.2",
// … that does not exist yet: a later corruption of the same path never
// overwrites an earlier one's evidence. It returns the new name.
func Quarantine(path string) (string, error) {
	dst := path + ".corrupt"
	for i := 1; ; i++ {
		_, err := os.Lstat(dst)
		if errors.Is(err, fs.ErrNotExist) {
			break
		}
		if err != nil {
			return "", err
		}
		dst = fmt.Sprintf("%s.corrupt.%d", path, i)
	}
	if err := os.Rename(path, dst); err != nil {
		return "", err
	}
	return dst, nil
}
