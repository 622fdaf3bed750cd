package chaos

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// File is the handle surface the WAL and checkpoint writer need from
// an open file.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync flushes the file to stable storage.
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface under the durability layer. OS is the
// real implementation; NewFaultFS wraps any FS with injected write,
// sync, and rename failures. Read-side operations are never faulted:
// the chaos model is a disk that misbehaves on the write path, not one
// that lies about committed data (mid-file corruption has its own
// loud-failure tests).
type FS interface {
	MkdirAll(dir string, perm os.FileMode) error
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	ReadDir(dir string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making renames and creates durable.
	SyncDir(dir string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// FSFaults sets the per-operation probability of each filesystem
// fault.
type FSFaults struct {
	// ShortWrite persists only a prefix of one Write's bytes, then
	// errors — the classic torn write. The WAL's append poisoning and
	// reopen-time tail truncation are what make this survivable.
	ShortWrite float64
	// SyncFail makes an fsync (file or directory) report failure.
	SyncFail float64
	// RenameFail fails a rename, leaving the temp file behind — a torn
	// atomic checkpoint publish.
	RenameFail float64
}

// NewFaultFS wraps base (nil = OS) with faults drawn from inj under
// the given site prefix (sites prefix+"/fs.short-write", "/fs.sync",
// "/fs.rename"). Two FaultFS built on one injector and prefix share
// those sites, so a writer rebuilt after a crash continues the same
// fault streams.
func NewFaultFS(inj *Injector, prefix string, faults FSFaults, base FS) *FaultFS {
	if base == nil {
		base = OS
	}
	return &FaultFS{
		base:       base,
		prefix:     prefix,
		shortWrite: inj.Site(prefix + "/fs.short-write"),
		syncFail:   inj.Site(prefix + "/fs.sync"),
		renameFail: inj.Site(prefix + "/fs.rename"),
		faults:     faults,
	}
}

// FaultFS is an FS with seeded write-path faults, which Cut can sever
// from the disk for good.
type FaultFS struct {
	base                             FS
	prefix                           string
	shortWrite, syncFail, renameFail *Site
	faults                           FSFaults
	cut                              atomic.Bool
}

// Cut severs the FS from the disk, the way kill -9 severs a process
// from its files: from now on every write, sync, rename, remove,
// truncate, directory create and open for writing fails with
// ErrInjected, through the FS and through every file it opened, while
// reads still work. Cut draws from no site, ignores Heal, and cannot
// be undone; a writer that restarts builds a fresh FaultFS.
func (f *FaultFS) Cut() { f.cut.Store(true) }

// severed returns the error a cut FS answers op with, or nil.
func (f *FaultFS) severed(op, name string) error {
	if !f.cut.Load() {
		return nil
	}
	return fmt.Errorf("%w: %s: %s %s after cut", ErrInjected, f.prefix, op, name)
}

func (f *FaultFS) MkdirAll(dir string, perm os.FileMode) error {
	if err := f.severed("mkdir", dir); err != nil {
		return err
	}
	return f.base.MkdirAll(dir, perm)
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND) != 0 {
		if err := f.severed("open", name); err != nil {
			return nil, err
		}
	}
	h, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: h, fs: f}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err := f.severed("create", dir); err != nil {
		return nil, err
	}
	h, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: h, fs: f}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.base.ReadFile(name) }

func (f *FaultFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if err := f.severed("write", name); err != nil {
		return err
	}
	// WriteFile only rewrites a torn segment header on reopen — part of
	// recovery, which stays unfaulted like the other read-side repairs.
	return f.base.WriteFile(name, data, perm)
}

func (f *FaultFS) ReadDir(dir string) ([]os.DirEntry, error) { return f.base.ReadDir(dir) }

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.severed("rename", oldpath); err != nil {
		return err
	}
	if f.renameFail.Hit(f.faults.RenameFail) {
		return fmt.Errorf("%w: %s: rename %s torn", ErrInjected, f.renameFail.Name(), oldpath)
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.severed("remove", name); err != nil {
		return err
	}
	return f.base.Remove(name)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.severed("truncate", name); err != nil {
		return err
	}
	return f.base.Truncate(name, size)
}

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.severed("fsync", dir); err != nil {
		return err
	}
	if f.syncFail.Hit(f.faults.SyncFail) {
		return fmt.Errorf("%w: %s: fsync %s failed", ErrInjected, f.syncFail.Name(), dir)
	}
	return f.base.SyncDir(dir)
}

// faultFile injects write and sync faults on one open handle.
type faultFile struct {
	File
	fs *FaultFS
}

func (h *faultFile) Write(p []byte) (int, error) {
	if err := h.fs.severed("write", h.Name()); err != nil {
		return 0, err
	}
	if len(p) > 1 && h.fs.shortWrite.Hit(h.fs.faults.ShortWrite) {
		// Persist a stream-chosen strict prefix, then fail: the bytes
		// that made it are on disk, exactly like a torn write.
		n := h.fs.shortWrite.Intn(len(p)-1) + 1
		wrote, err := h.File.Write(p[:n])
		if err != nil {
			return wrote, err
		}
		return wrote, fmt.Errorf("%w: %s: short write (%d of %d bytes)", ErrInjected, h.fs.shortWrite.Name(), wrote, len(p))
	}
	return h.File.Write(p)
}

func (h *faultFile) Sync() error {
	if err := h.fs.severed("fsync", h.Name()); err != nil {
		return err
	}
	if h.fs.syncFail.Hit(h.fs.faults.SyncFail) {
		return fmt.Errorf("%w: %s: fsync %s failed", ErrInjected, h.fs.syncFail.Name(), h.Name())
	}
	return h.File.Sync()
}
