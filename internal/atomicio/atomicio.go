// Package atomicio writes files durably and atomically: payload to a
// sibling temp file, fsync, rename over the destination, fsync of the
// directory so the rename itself survives a crash. A crash at any point
// leaves either the old file or the complete new one — never a truncated
// or empty artifact. query.SaveFile and the shard builder both publish
// their index files through it.
package atomicio

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile writes the output of write to path atomically. write receives
// the temp file; any error it returns aborts the publish and removes the
// temp file.
func WriteFile(path string, write func(io.Writer) error) error {
	return WriteFileAt(path, func(f *os.File) error { return write(f) })
}

// WriteFileAt is WriteFile for producers that need random access while
// emitting the payload — the walk-index file writer writes its header and
// directory at offset 0 after the payload, via WriteAt. write receives the
// temp *os.File; the same abort/fsync/rename discipline applies.
func WriteFileAt(path string, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	// The data must be on stable storage before the rename publishes the
	// name, or a crash could expose an empty/partial file at path.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs directory dir, making the creations, renames and removals
// of names in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
