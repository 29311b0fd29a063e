package wal

import (
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"extbuf/internal/iomodel"
)

// openDirectLog opens an O_DIRECT log at path, skipping the test where
// the filesystem refuses the flag.
func openDirectLog(t *testing.T, path string, firstLSN uint64) (*Log, []Record) {
	t.Helper()
	l, recs, err := OpenIO(path, nil, firstLSN, iomodel.IOOptions{Mode: iomodel.IOModeODirect})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Direct() {
		l.Close()
		t.Skip("filesystem refuses O_DIRECT; direct WAL path not exercisable here")
	}
	return l, recs
}

// alignCheckFile interposes on the log's direct fd and fails the test
// on any write that violates O_DIRECT's contract: offset, length and
// buffer base address must all be sector-aligned.
type alignCheckFile struct {
	iomodel.BlockFile
	t      *testing.T
	sector int64
	writes int
}

func (a *alignCheckFile) WriteAt(p []byte, off int64) (int, error) {
	a.writes++
	if off%a.sector != 0 || int64(len(p))%a.sector != 0 {
		a.t.Errorf("unaligned direct WAL write: off=%d len=%d sector=%d", off, len(p), a.sector)
	}
	if addr := addrOf(p); addr%uintptr(a.sector) != 0 {
		a.t.Errorf("unaligned direct WAL buffer: %#x (sector %d)", addr, a.sector)
	}
	return a.BlockFile.WriteAt(p, off)
}

func addrOf(p []byte) uintptr {
	if len(p) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&p[0]))
}

// TestDirectAppendRecoverRoundTrip drives the tail-sector rewrite hard:
// many small append+Sync cycles, each spilling a partial sector, with
// every write's alignment checked; then a direct reopen and a buffered
// reopen must both recover every record (the format is mode-agnostic).
func TestDirectAppendRecoverRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "direct.wal")
	l, _ := openDirectLog(t, path, 1)
	chk := &alignCheckFile{BlockFile: l.f, t: t, sector: l.sector}
	l.f = chk

	const rounds, perRound = 100, 3
	lsn := uint64(1)
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			got, err := l.Append(OpUpsert, lsn*10, lsn*10+1)
			if err != nil {
				t.Fatal(err)
			}
			if got != lsn {
				t.Fatalf("append LSN = %d, want %d", got, lsn)
			}
			lsn++
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if chk.writes == 0 {
		t.Fatal("no writes reached the direct fd")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	const total = rounds * perRound
	verify := func(recs []Record) {
		t.Helper()
		if len(recs) != total {
			t.Fatalf("recovered %d records, want %d", len(recs), total)
		}
		for i, r := range recs {
			want := uint64(i + 1)
			if r.LSN != want || r.Key != want*10 || r.Val != want*10+1 {
				t.Fatalf("record %d = %+v", i, r)
			}
		}
	}
	l2, recs := openDirectLog(t, path, 1)
	verify(recs)
	// Resume appending through the reloaded tail, then check a buffered
	// reopen reads the same file.
	if _, err := l2.Append(OpDelete, 7, 0); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, recs, err := Open(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(recs) != total+1 || recs[total].Op != OpDelete || recs[total].Key != 7 {
		t.Fatalf("buffered reopen: %d records, tail %+v", len(recs), recs[len(recs)-1])
	}
}

// TestDirectReset checks the sector-padded header rewrite: a reset log
// renumbers from the new LSN and survives a direct reopen.
func TestDirectReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reset.wal")
	l, _ := openDirectLog(t, path, 1)
	for i := uint64(0); i < 50; i++ {
		if _, err := l.Append(OpInsert, i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(900); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(OpUpsert, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openDirectLog(t, path, 900)
	if len(recs) != 1 || recs[0].LSN != 900 || recs[0].Key != 1 || recs[0].Val != 2 {
		t.Fatalf("post-reset recovery: %+v", recs)
	}
}

// TestDirectCrasherStaysBuffered: fault injection counts write
// syscalls, so a crash-injected log must refuse the direct path even
// when asked for it.
func TestDirectCrasherStaysBuffered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.wal")
	c := iomodel.NewCrasher(iomodel.CrashPlan{FailAfterWrites: 1 << 30})
	l, _, err := OpenIO(path, c, 1, iomodel.IOOptions{Mode: iomodel.IOModeODirect})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Direct() || l.SectorSize() != 0 {
		t.Fatalf("crash-injected log took the direct path (sector=%d)", l.SectorSize())
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
