// Package atomicfile writes a document to disk so that a crash at any
// point leaves either the previous file or the complete new one, never
// a truncated mix: the document is encoded into a temporary file in the
// destination directory, fsynced, and renamed over the destination.
//
// Concurrency: Write holds no shared state; concurrent calls for
// different paths are independent.
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Write encodes a document into path atomically. Unless force is set it
// refuses to replace an existing file, so a committed artifact is never
// clobbered by accident. On any error the temporary file is removed and
// path is left as it was.
func Write(path string, force bool, encode func(io.Writer) error) error {
	if !force {
		if _, err := os.Stat(path); err == nil {
			return fmt.Errorf("%s exists; pass force to overwrite", path)
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err := encode(tmp); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("syncing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("renaming into %s: %w", path, err)
	}
	tmpName = "" // success: nothing to clean up
	return nil
}
