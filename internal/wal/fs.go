package wal

import (
	"io"
	"os"
)

// FS is the seam for every call by which a Log changes disk state: it
// opens files for writing, renames and removes them and fsyncs the
// directory. Reads (Recover, a snapshot's read of the durable prefix) go
// to the os package directly. Options.FS nil means the operating system;
// the recovery harness substitutes a crash model, under which a simulated
// crash is just a call that fails.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	SyncDir(dir string) error
}

// File is what a Log calls on a file opened through FS.
type File interface {
	io.WriteCloser
	io.ReaderAt
	io.Seeker
	Sync() error
	Truncate(size int64) error
}

// osFS is the FS of the operating system.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File inside a non-nil File
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

// SyncDir makes the directory's entries — the names renames installed —
// durable.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // opened for reading: only the Sync can lose data
	return d.Sync()
}
