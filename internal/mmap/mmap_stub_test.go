//go:build !unix

package mmap

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestStubUnsupported: without mmap, Map reports ErrUnsupported so
// callers take their ReadAt path, and Unmap is a no-op.
func TestStubUnsupported(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if b, err := Map(f, 1); !errors.Is(err, ErrUnsupported) || b != nil {
		t.Fatalf("Map = %v, %v; want nil, ErrUnsupported", b, err)
	}
	if err := Unmap(nil); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
}
