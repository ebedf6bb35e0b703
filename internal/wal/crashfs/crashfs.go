// Package crashfs is the crash model the recovery harness and the wal
// tests run a Log under: a wal.FS over the real directory that fails one
// call on a seeded schedule and, from then on, every write, fsync, open,
// rename and remove, as if the process had died there. The Log meets the
// crash the way it meets a dying disk: its error latches and no Sync
// acknowledges again. Materialize then cuts queue.wal inside the part no
// successful fsync covered. The model is an appended log and no
// directory reordering: a rename is durable once it returns. A snapshot
// temp file may also be rewritten in place before its fsync — a base's
// key count is written last, over its placeholder, and a base is emptied
// and started again when its format was guessed wrong — and every such
// write and truncate is a SnapWrite call like an append.
package crashfs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/wal"
	"repro/internal/xrand"
)

// ErrCrashed is the error of the failing call and of every call after it.
var ErrCrashed = errors.New("crashfs: simulated crash")

// Call is a kind of call a plan fails.
type Call int

const (
	LogWrite  Call = iota // a write to queue.wal; the failing one lands a seeded strict prefix
	LogSync               // an fsync of queue.wal
	SnapWrite             // a write or truncate of a snapshot temp; a failing write lands a seeded strict prefix, a failing truncate nothing
	DirSync               // a directory fsync
	Remove                // a file removal: a crash left the file in place
)

// FS is a wal.FS that crashes at one call. Every call does its file
// operation under one lock, so nothing lands after the crash.
type FS struct {
	call    Call
	crashed chan struct{}

	mu     sync.Mutex
	pct    int // of the calls of kind call, the percentage that fail
	rng    xrand.Rand
	dead   bool
	last   *file // the file opened last: the one wal renames next
	log    *file // the file named queue.wal
	synced int64 // the log's length at its last successful fsync
	short  int64 // the bytes the failing log write did not land
}

// New returns an FS that fails each call of kind c with probability pct
// percent, drawing from seed. With pct 0 nothing fails until Arm.
func New(seed uint64, c Call, pct int) *FS {
	fs := &FS{call: c, pct: pct, crashed: make(chan struct{})}
	fs.rng.Seed(seed)
	return fs
}

// Arm makes the next call of the plan's kind fail.
func (fs *FS) Arm() {
	fs.mu.Lock()
	fs.pct = 100
	fs.mu.Unlock()
}

// Crashed returns a channel closed at the crash.
func (fs *FS) Crashed() <-chan struct{} { return fs.crashed }

// fails reports whether a call of kind c fails: every call does after the
// crash, and the scheduled one causes it. fs.mu must be held.
func (fs *FS) fails(c Call) bool {
	if !fs.dead && c == fs.call && fs.pct > 0 && (fs.pct >= 100 || fs.rng.Uint64n(100) < uint64(fs.pct)) {
		fs.kill()
	}
	return fs.dead
}

func (fs *FS) kill() {
	if !fs.dead {
		fs.dead = true
		close(fs.crashed)
	}
}

// adopt makes f the log. All it holds counts as synced: an earlier
// session wrote it, or the Log fsynced it before renaming it into place.
func (fs *FS) adopt(f *file) error {
	fi, err := f.Stat()
	if err == nil {
		fs.log, fs.synced = f, fi.Size()
	}
	return err
}

func (fs *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dead {
		return nil, ErrCrashed
	}
	osf, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(name)
	fs.last = &file{File: osf, fs: fs, snap: strings.HasPrefix(base, "queue.snap") && strings.HasSuffix(base, "tmp")}
	if base == "queue.wal" {
		if err := fs.adopt(fs.last); err != nil {
			osf.Close()
			return nil, err
		}
	}
	return fs.last, nil
}

func (fs *FS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dead {
		return ErrCrashed
	}
	if err := os.Rename(oldpath, newpath); err != nil || filepath.Base(newpath) != "queue.wal" {
		return err
	}
	return fs.adopt(fs.last)
}

func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.fails(Remove) {
		return ErrCrashed
	}
	return os.Remove(name)
}

func (fs *FS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.fails(DirSync) {
		return ErrCrashed
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Info reports what a materialized crash destroyed.
type Info struct {
	// Cut is the length queue.wal was truncated to. WrittenBytes is what
	// the Log had handed it; LostBytes is WrittenBytes - Cut.
	Cut, WrittenBytes, LostBytes int64
}

// Materialize crashes fs if the plan has not yet, then truncates
// queue.wal to a seeded cut between its last successful fsync and the
// bytes that reached it: the directory a kill at the crash could have
// left. Close the Log afterwards, to release its file and goroutine.
func (fs *FS) Materialize() (Info, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.kill()
	if fs.log == nil {
		return Info{}, errors.New("crashfs: no log file was opened")
	}
	fi, err := fs.log.Stat()
	if err != nil {
		return Info{}, err
	}
	cut := fs.synced + int64(fs.rng.Uint64n(uint64(fi.Size()-fs.synced)+1))
	written := fi.Size() + fs.short
	return Info{Cut: cut, WrittenBytes: written, LostBytes: written - cut}, fs.log.File.Truncate(cut)
}

// file is a wal.File of an FS. Reads, seeks and Close pass through, so a
// crashed Log still releases its descriptors.
type file struct {
	*os.File
	fs   *FS
	snap bool // a snapshot temp
}

// Truncate is Open cutting the log's torn tail, after which nothing past
// size is synced any more, or a snapshot temp emptied to be written
// again, a SnapWrite.
func (f *file) Truncate(size int64) error {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	c := Call(-1)
	if f.snap {
		c = SnapWrite
	}
	if fs.fails(c) {
		return ErrCrashed
	}
	if f == fs.log {
		fs.synced = min(fs.synced, size)
	}
	return f.File.Truncate(size)
}

func (f *file) Write(b []byte) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dead {
		return 0, ErrCrashed
	}
	c := Call(-1)
	if f == fs.log {
		c = LogWrite
	} else if f.snap {
		c = SnapWrite
	}
	if !fs.fails(c) {
		return f.File.Write(b)
	}
	n, _ := f.File.Write(b[:fs.rng.Uint64n(uint64(max(len(b), 1)))])
	if c == LogWrite {
		fs.short = int64(len(b) - n)
	}
	return n, ErrCrashed
}

func (f *file) Sync() error {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	c := Call(-1)
	if f == fs.log {
		c = LogSync
	}
	if fs.fails(c) {
		return ErrCrashed
	}
	if err := f.File.Sync(); err != nil || c != LogSync {
		return err
	}
	return fs.adopt(f)
}
