package atomicio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// dirNames lists dir's entries, so a test can assert that a publish left
// exactly the files it should — in particular no ".name-*" temp file.
func dirNames(t *testing.T, dir string) []string {
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

func wantOnly(t *testing.T, dir string, want ...string) {
	t.Helper()
	got := dirNames(t, dir)
	if len(got) != len(want) {
		t.Fatalf("directory holds %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("directory holds %q, want %q", got, want)
		}
	}
}

func wantContent(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s holds %q, want %q", filepath.Base(path), got, want)
	}
}

// TestWriteFilePublishes: success creates the file, then replaces it whole
// — a shorter payload leaves no tail of the longer one — and the directory
// entry exists, alone, when WriteFileAt returns.
func TestWriteFilePublishes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.srwk")
	for _, payload := range []string{"the first, longer payload", "second"} {
		err := WriteFileAt(path, func(f *os.File) error {
			_, err := io.WriteString(f, payload)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		wantContent(t, path, []byte(payload))
		wantOnly(t, dir, "index.srwk")
	}
}

// TestWriteFileAtRandomAccess: a producer that patches bytes behind its
// write frontier (the streaming builder's directory) publishes the patched
// file.
func TestWriteFileAtRandomAccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.srwk")
	err := WriteFileAt(path, func(f *os.File) error {
		if _, err := f.WriteAt([]byte("payload"), 4); err != nil {
			return err
		}
		_, err := f.WriteAt([]byte("dir:"), 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	wantContent(t, path, []byte("dir:payload"))
	wantOnly(t, dir, "stream.srwk")
}

// TestWriteFileAllOrNothing: whatever goes wrong before the rename — the
// callback fails before or after writing, the data cannot be synced, the
// rename itself is refused — the previous file stays byte-identical, no
// temp file is left behind, and the error reaches the caller.
func TestWriteFileAllOrNothing(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		write func(f *os.File) error
		want  error // nil: any error
	}{
		{"callback error before writing", func(*os.File) error { return boom }, boom},
		{"callback error after a partial write", func(f *os.File) error {
			if _, err := f.WriteString("half a new fi"); err != nil {
				return err
			}
			return boom
		}, boom},
		{"failed write", func(f *os.File) error {
			f.Close() // every later write on the temp file fails
			_, err := f.WriteString("never lands")
			return err
		}, os.ErrClosed},
		{"failed sync", func(f *os.File) error {
			if _, err := f.WriteString("written but never durable"); err != nil {
				return err
			}
			return f.Close() // the callback succeeds; Sync then fails
		}, os.ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "index.srwk")
			previous := []byte("the previous, complete file")
			if err := os.WriteFile(path, previous, 0o644); err != nil {
				t.Fatal(err)
			}
			err := WriteFileAt(path, tc.write)
			if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			wantContent(t, path, previous)
			wantOnly(t, dir, "index.srwk")
		})
	}

	t.Run("refused rename", func(t *testing.T) {
		// The destination is a non-empty directory, which rename(2) will
		// not replace with a file.
		dir := t.TempDir()
		path := filepath.Join(dir, "index.srwk")
		if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
			t.Fatal(err)
		}
		err := WriteFileAt(path, func(f *os.File) error {
			_, err := io.WriteString(f, "complete payload")
			return err
		})
		if err == nil {
			t.Fatal("rename over a non-empty directory succeeded")
		}
		wantOnly(t, dir, "index.srwk")
		wantOnly(t, path, "occupied")
	})

	t.Run("missing directory", func(t *testing.T) {
		dir := t.TempDir()
		called := false
		err := WriteFileAt(filepath.Join(dir, "absent", "index.srwk"), func(*os.File) error {
			called = true
			return nil
		})
		if !errors.Is(err, os.ErrNotExist) || called {
			t.Fatalf("err = %v, callback ran = %v; want ErrNotExist before the callback runs", err, called)
		}
		wantOnly(t, dir)
	})
}
