// Package atomicio provides crash-safe file writing for the model
// checker's sweep checkpoints (internal/ooc): write the whole payload to a
// temporary file in the target's directory, sync it, then rename it over
// the destination. An interrupted or crashed writer leaves either the old
// complete file or the new complete file — never a truncated one.
package atomicio

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces the file at path with data. The temporary
// file is created in path's directory (renames across filesystems are not
// atomic), fsynced before the rename, and removed on any failure. perm
// applies to newly created files; an existing destination keeps its mode
// on platforms where rename preserves it.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure path removes the temp file; the destination is only
	// touched by the final rename.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail(err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicio: %w", err)
	}
	return nil
}
