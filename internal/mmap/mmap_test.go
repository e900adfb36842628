//go:build unix

package mmap

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// tempFile writes data to a new file and returns it open for reading.
func tempFile(t *testing.T, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestMapEmpty: a zero-size mapping is an empty non-nil slice, and
// unmapping it is a no-op.
func TestMapEmpty(t *testing.T) {
	f := tempFile(t, nil)
	b, err := Map(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b == nil || len(b) != 0 {
		t.Fatalf("Map(0) = %#v, want an empty non-nil slice", b)
	}
	if err := Unmap(b); err != nil {
		t.Fatalf("Unmap of the empty mapping: %v", err)
	}
}

// TestMapNegativeSize: a negative size is an error, not a mapping.
func TestMapNegativeSize(t *testing.T) {
	f := tempFile(t, []byte("x"))
	if b, err := Map(f, -1); err == nil {
		t.Fatalf("Map(-1) = %d bytes, want an error", len(b))
	}
}

// TestMapOutlivesFile: the mapping still reads the file's bytes after
// its *os.File is closed.
func TestMapOutlivesFile(t *testing.T) {
	want := bytes.Repeat([]byte("ripple-mmap\n"), 1000)
	f := tempFile(t, want)
	b, err := Map(f, int64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, want) {
		t.Fatal("mapping differs from the file after Close")
	}
	if err := Unmap(b); err != nil {
		t.Fatal(err)
	}
}
