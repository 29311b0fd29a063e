package iomodel

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// This file implements CrashStore: deterministic, seedable fault
// injection for the durability subsystem. A Crasher interposes on every
// file underlying a durable table — the block file, the write-ahead log
// and the checkpoint temp file — and simulates a process death at a
// chosen write syscall: the fatal write may be torn (only a prefix of
// its bytes reaches the file), and after the crash point every
// subsequent write and sync fails with ErrInjectedCrash, so nothing
// more can reach "disk", exactly as if the process had died. Recovery
// is then exercised by reopening the same path without a Crasher — no
// process actually has to be killed.

// ErrInjectedCrash is the sticky error every write and sync returns
// once a Crasher's crash point has been reached.
var ErrInjectedCrash = errors.New("iomodel: injected crash")

// ErrInjectedSyncFailure is returned by Sync when a CrashPlan demands
// failing fsyncs (without killing the process).
var ErrInjectedSyncFailure = errors.New("iomodel: injected sync failure")

// CrashPlan describes the fault to inject. The zero plan injects
// nothing.
type CrashPlan struct {
	// FailAfterWrites crashes on the Nth write syscall (1-based)
	// counted across every wrapped file. Zero never crashes.
	FailAfterWrites int64
	// TornWrite makes the fatal write partial: a seed-determined
	// prefix of its bytes is persisted before the crash.
	TornWrite bool
	// FailSync makes every Sync return ErrInjectedSyncFailure without
	// crashing, modeling an fsync error the caller must surface.
	FailSync bool
	// Seed drives the torn-write prefix length.
	Seed uint64
}

// Crasher executes a CrashPlan across the set of files it wraps. It is
// safe for concurrent use (durable shards may share one plan).
type Crasher struct {
	plan    CrashPlan
	writes  atomic.Int64
	crashed atomic.Bool
}

// NewCrasher returns a Crasher executing plan.
func NewCrasher(plan CrashPlan) *Crasher { return &Crasher{plan: plan} }

// Crashed reports whether the crash point has been reached.
func (c *Crasher) Crashed() bool { return c.crashed.Load() }

// Writes returns the number of write syscalls observed so far.
func (c *Crasher) Writes() int64 { return c.writes.Load() }

// BlockFile is the file-handle surface the storage layer consumes:
// what FileStore, the WAL and the checkpoint writer need from an
// *os.File, and the seam a Crasher interposes on.
type BlockFile interface {
	io.ReaderAt
	io.WriterAt
	io.Writer
	Sync() error
	Close() error
	Truncate(size int64) error
	Name() string
}

var _ BlockFile = (*crashFile)(nil)

// WrapFile interposes the crasher on f. All wrapped files share the
// crasher's write counter and crash state.
func (c *Crasher) WrapFile(f BlockFile) BlockFile { return &crashFile{c: c, f: f} }

type crashFile struct {
	c *Crasher
	f BlockFile
}

// admitWrite charges one write syscall against the plan. It returns the
// number of bytes of p that may be persisted and the error to report;
// on the fatal write a torn plan persists a prefix, otherwise nothing
// of the failing write lands.
func (c *Crasher) admitWrite(p []byte) (int, error) {
	if c.crashed.Load() {
		return 0, ErrInjectedCrash
	}
	n := c.writes.Add(1)
	if c.plan.FailAfterWrites > 0 && n >= c.plan.FailAfterWrites {
		c.crashed.Store(true)
		if c.plan.TornWrite && len(p) > 0 {
			// Deterministic prefix in [0, len(p)): at least one byte is
			// always lost, so the write is genuinely partial.
			x := c.plan.Seed ^ uint64(n)*0x9e3779b97f4a7c15
			x ^= x >> 33
			x *= 0xff51afd7ed558ccd
			x ^= x >> 33
			return int(x % uint64(len(p))), ErrInjectedCrash
		}
		return 0, ErrInjectedCrash
	}
	return len(p), nil
}

func (w *crashFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := w.c.admitWrite(p)
	if n > 0 {
		if wn, werr := w.f.WriteAt(p[:n], off); werr != nil {
			return wn, werr
		}
	}
	if err != nil {
		return n, err
	}
	return len(p), nil
}

func (w *crashFile) Write(p []byte) (int, error) {
	n, err := w.c.admitWrite(p)
	if n > 0 {
		if wn, werr := w.f.Write(p[:n]); werr != nil {
			return wn, werr
		}
	}
	if err != nil {
		return n, err
	}
	return len(p), nil
}

func (w *crashFile) ReadAt(p []byte, off int64) (int, error) { return w.f.ReadAt(p, off) }

func (w *crashFile) Sync() error {
	if w.c.crashed.Load() {
		return ErrInjectedCrash
	}
	if w.c.plan.FailSync {
		return ErrInjectedSyncFailure
	}
	return w.f.Sync()
}

func (w *crashFile) Truncate(size int64) error {
	if w.c.crashed.Load() {
		return ErrInjectedCrash
	}
	return w.f.Truncate(size)
}

func (w *crashFile) Close() error { return w.f.Close() }

func (w *crashFile) Name() string { return w.f.Name() }

// CrashStore is a durable FileStore under a Crasher: the fault-testing
// backend of the crash matrix. Construction opens (or reopens) the
// block file at path in durable mode with every write routed through
// the crasher.
type CrashStore struct {
	*FileStore
	Crasher *Crasher
}

// NewCrashStore opens a durable FileStore at path with faults injected
// by crasher.
func NewCrashStore(path string, b, cacheBlocks int, crasher *Crasher) (*CrashStore, error) {
	fs, err := OpenFileStore(path, b, cacheBlocks, crasher, 0)
	if err != nil {
		return nil, err
	}
	return &CrashStore{FileStore: fs, Crasher: crasher}, nil
}

// Failed returns the store's sticky write failure, if any — the signal
// a driving harness uses to learn the simulated process has died.
func (s *CrashStore) Failed() error { return s.FileStore.Failed() }

// String identifies the store in test failure messages.
func (s *CrashStore) String() string {
	return fmt.Sprintf("CrashStore(%s, writes=%d, crashed=%v)",
		s.Path(), s.Crasher.Writes(), s.Crasher.Crashed())
}
