package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// TestSpillChunksAndPrealloc drives enough appends to cross the 64 KiB
// spill threshold several times and checks (a) spills happen in few,
// large writes, (b) the file is preallocated ahead in reserve chunks
// rather than extended per spill, (c) Close trims the preallocated
// tail, and (d) a reopen recovers every record.
func TestSpillChunksAndPrealloc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	l, recs, err := Open(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recs))
	}
	const n = 10000 // 210 KB of records: > 3 spill chunks
	for i := uint64(0); i < n; i++ {
		if _, err := l.Append(OpUpsert, i, i*2); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// 210 KB through 64 KiB chunks plus the Sync spill: a handful of
	// writes, not the ~52 the old 4 KiB threshold would issue.
	if got := l.Spills(); got < 2 || got > 8 {
		t.Fatalf("Spills = %d, want a handful (2..8) for %d records", got, n)
	}
	if l.Fsyncs() != 1 {
		t.Fatalf("Fsyncs = %d, want 1", l.Fsyncs())
	}
	// Preallocation extends ahead of the data in whole reserve chunks.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < l.size {
		t.Fatalf("file %d bytes < data %d", info.Size(), l.size)
	}
	if info.Size() != l.prealloc || l.prealloc != reserveChunk {
		t.Fatalf("file %d bytes, prealloc %d, want one %d-byte chunk", info.Size(), l.prealloc, reserveChunk)
	}
	dataSize := l.size
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Close trims the zero tail: the file ends at its last record.
	info, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != dataSize {
		t.Fatalf("file %d bytes after Close, want trimmed to %d", info.Size(), dataSize)
	}

	l2, recs, err := Open(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Key != uint64(i) || r.Val != uint64(i)*2 {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

// TestRecoverIgnoresPreallocatedTail: a crash leaves the preallocated
// zero tail in place; recovery must stop at the last valid record, not
// interpret zeros.
func TestRecoverIgnoresPreallocatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tail.wal")
	l, _, err := Open(path, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ { // crosses the spill threshold
		if _, err := l.Append(OpInsert, i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: close the descriptor without the trimming Close.
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() <= l.size {
		t.Skip("no preallocated tail to exercise") // defensive; should not happen
	}
	_, recs, err := Open(path, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5000 {
		t.Fatalf("recovered %d records, want 5000", len(recs))
	}
}

// TestCommitterJoinsErrors: SyncAll runs every sync and joins errors in
// argument order, deterministically.
func TestCommitterJoinsErrors(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	var ran atomic.Int32
	err := SyncAll(
		func() error { ran.Add(1); return errA },
		func() error { ran.Add(1); return nil },
		func() error { ran.Add(1); return errB },
	)
	if ran.Load() != 3 {
		t.Fatalf("ran %d fns, want 3", ran.Load())
	}
	if err == nil || err.Error() != "a\nb" {
		t.Fatalf("err = %v, want a then b", err)
	}
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("err = %v, want both a and b", err)
	}
	if err := SyncAll(func() error { return nil }); err != nil {
		t.Fatalf("all-nil sync err = %v", err)
	}
	if err := SyncAll(); err != nil {
		t.Fatalf("empty sync err = %v", err)
	}
}
