package wal

import (
	"path/filepath"
	"testing"
	"time"

	"extbuf/internal/iomodel"
)

// stallFile announces every Sync of the wrapped file on entered and
// holds it until the test sends on gate.
type stallFile struct {
	iomodel.BlockFile
	entered chan struct{}
	gate    chan struct{}
}

func (f *stallFile) Sync() error {
	f.entered <- struct{}{}
	<-f.gate
	return f.BlockFile.Sync()
}

// TestDetachedFsync drives the owner/detached split: while a detached
// fsync is in flight the owner keeps appending and spilling; a second
// barrier waits for the first and elides only if nothing was written
// since; Close waits for one in flight as well.
func TestDetachedFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := Open(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	stall := &stallFile{entered: make(chan struct{}), gate: make(chan struct{})}
	l.Interpose(func(f iomodel.BlockFile) iomodel.BlockFile { stall.BlockFile = f; return stall })
	appendSpill := func(key uint64) {
		t.Helper()
		if _, err := l.Append(OpInsert, key, key*10); err != nil {
			t.Fatal(err)
		}
		if err := l.Spill(); err != nil {
			t.Fatal(err)
		}
	}
	detach := func() chan error {
		ch := make(chan error, 1)
		go func() { ch <- l.FsyncDetached() }()
		return ch
	}
	stillBlocked := func(what string, ch chan error) {
		t.Helper()
		select {
		case err := <-ch:
			t.Fatalf("%s returned (%v) while an fsync was in flight", what, err)
		case <-time.After(30 * time.Millisecond):
		}
	}

	appendSpill(1)
	first := detach()
	<-stall.entered
	// The owner is not blocked: append and spill behind the held fsync.
	appendSpill(2)
	// A second barrier queues behind the first, then — the log being
	// dirty again — issues its own fsync instead of eliding.
	second := detach()
	stillBlocked("second barrier", second)
	stall.gate <- struct{}{}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	<-stall.entered
	stall.gate <- struct{}{}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if got := l.Fsyncs(); got != 2 {
		t.Fatalf("Fsyncs = %d, want 2 (the spill behind the first fsync needs its own)", got)
	}
	// Nothing written since: this one elides, against completed fsyncs.
	if err := l.Fsync(); err != nil {
		t.Fatal(err)
	}
	if f, e := l.Fsyncs(), l.FsyncsElided(); f != 2 || e != 1 {
		t.Fatalf("after idle barrier: Fsyncs = %d, FsyncsElided = %d; want 2, 1", f, e)
	}

	// Close must not pull the fd from under an fsync in flight.
	appendSpill(3)
	third := detach()
	<-stall.entered
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	stillBlocked("Close", closed)
	stall.gate <- struct{}{}
	if err := <-third; err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	re, recs, err := Open(path, nil, 1)
	if err != nil || len(recs) != 3 {
		t.Fatalf("reopen: %d records, %v; want 3", len(recs), err)
	}
	re.Close()
}
