package wal

import (
	"os"
	"path/filepath"
	"testing"

	"extbuf/internal/iomodel"
)

func openFresh(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, recs, err := Open(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recs))
	}
	return l, path
}

func TestAppendSyncRecover(t *testing.T) {
	l, path := openFresh(t)
	for i := uint64(0); i < 300; i++ {
		op := OpUpsert
		if i%3 == 0 {
			op = OpDelete
		}
		lsn, err := l.Append(op, i, i*2)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != i+1 {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs, err := Open(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 300 {
		t.Fatalf("recovered %d records, want 300", len(recs))
	}
	for i, r := range recs {
		wantOp := OpUpsert
		if i%3 == 0 {
			wantOp = OpDelete
		}
		if r.LSN != uint64(i+1) || r.Op != wantOp || r.Key != uint64(i) || r.Val != uint64(i)*2 {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if l2.NextLSN() != 301 {
		t.Fatalf("NextLSN = %d, want 301", l2.NextLSN())
	}
}

func TestTornTailDropped(t *testing.T) {
	l, path := openFresh(t)
	for i := uint64(0); i < 10; i++ {
		if _, err := l.Append(OpInsert, i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record mid-way.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := Open(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 9 {
		t.Fatalf("recovered %d records after torn tail, want 9", len(recs))
	}
	// New appends continue where the valid prefix ended.
	if l2.NextLSN() != 10 {
		t.Fatalf("NextLSN = %d, want 10", l2.NextLSN())
	}
}

func TestCorruptHeaderHeals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	if err := os.WriteFile(path, []byte{0x13, 0x37}, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(path, nil, 42)
	if err != nil {
		t.Fatalf("torn header should heal, got %v", err)
	}
	defer l.Close()
	if len(recs) != 0 {
		t.Fatalf("healed log returned %d records", len(recs))
	}
	if l.NextLSN() != 42 {
		t.Fatalf("healed log NextLSN = %d, want the caller's 42", l.NextLSN())
	}
}

func TestResetDiscardsAndRenumbers(t *testing.T) {
	l, path := openFresh(t)
	for i := uint64(0); i < 5; i++ {
		if _, err := l.Append(OpUpsert, i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(6); err != nil {
		t.Fatal(err)
	}
	if lsn, err := l.Append(OpUpsert, 100, 200); err != nil || lsn != 6 {
		t.Fatalf("post-reset append lsn = %d err = %v, want 6", lsn, err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := Open(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 1 || recs[0].LSN != 6 || recs[0].Key != 100 {
		t.Fatalf("post-reset recovery = %+v, want one record at LSN 6", recs)
	}
}

func TestCrasherStopsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.wal")
	cr := iomodel.NewCrasher(iomodel.CrashPlan{FailAfterWrites: 2, TornWrite: true, Seed: 5})
	l, _, err := Open(path, cr, 1) // write 1: the header
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Buffered appends succeed until a spill hits the crash point.
	sawError := false
	for i := uint64(0); i < 1000; i++ {
		if _, err := l.Append(OpUpsert, i, i); err != nil {
			sawError = true
			break
		}
	}
	if !sawError {
		if err := l.Sync(); err == nil {
			t.Fatal("crashed log acknowledged a sync")
		}
	}
	if !cr.Crashed() {
		t.Fatal("crash point never reached")
	}
	// Recovery sees only a CRC-valid prefix.
	l2, recs, err := Open(path, nil, 1)
	if err != nil {
		t.Fatalf("recovery after torn append: %v", err)
	}
	defer l2.Close()
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Key != uint64(i) {
			t.Fatalf("replay record %d inconsistent: %+v", i, r)
		}
	}
}

// TestPreallocBlockAligned: a log reopened from a trimmed file starts
// with a mid-block extent; the next reservation must end on a reserve
// chunk — and so, a power of two far above any block size, on a
// filesystem block — boundary, so the extent never ends mid-block.
func TestPreallocBlockAligned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prealloc.wal")
	l, _, err := Open(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if _, err := l.Append(OpInsert, i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // trims to header + 100 records: mid-block
		t.Fatal(err)
	}

	l2, recs, err := Open(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 100 {
		t.Fatalf("recovered %d records, want 100", len(recs))
	}
	// Drive past the recovered extent so reserve takes a chunk.
	for i := uint64(100); i < 10000; i++ {
		if _, err := l2.Append(OpInsert, i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Spill(); err != nil {
		t.Fatal(err)
	}
	if l2.prealloc <= l2.size {
		t.Skip("no preallocated extent to check") // defensive; should not happen
	}
	if l2.prealloc%reserveChunk != 0 {
		t.Fatalf("prealloc %d not a multiple of the %d-byte reserve chunk", l2.prealloc, reserveChunk)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != l2.prealloc {
		t.Fatalf("file %d bytes, prealloc %d", info.Size(), l2.prealloc)
	}
}
