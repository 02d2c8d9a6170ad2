// Package atomicio writes files durably and atomically: payload to a
// sibling temp file, fsync, rename over the destination, fsync of the
// directory so the rename itself survives a crash. A crash at any point
// leaves either the old file or the complete new one — never a truncated
// or empty artifact. query.SaveFile, the streamed build and the
// write-back's checkpoint publish their index files through it.
package atomicio

import (
	"os"
	"path/filepath"
)

// WriteFileAt writes the output of write to path atomically. write
// receives the temp *os.File, with random access for producers that need
// it — the walk-index file writer writes its header and directory at
// offset 0 after the payload, via WriteAt; any error it returns aborts the
// publish and removes the temp file.
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
