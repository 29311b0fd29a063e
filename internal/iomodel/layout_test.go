package iomodel

import (
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// The slot layouts a block file can have: packed (every table this code
// creates), and padded to a 512- or 4096-byte sector (a table created
// under the O_DIRECT tier deleted in PR 25, which keeps its stride for
// life).
var sectors = []int64{0, 512, 4096}

// newScratchStore is NewFileStore with a slot alignment: a scratch
// store, whose block IDs are its slots, in a legacy table's layout.
func newScratchStore(t testing.TB, path string, b, cacheBlocks int, sector int64) *FileStore {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return newFileStoreOn(f, b, cacheBlocks, false, sector)
}

// recordingFile wraps a BlockFile and records the offset and length of
// every read and write, for layout assertions.
type recordingFile struct {
	inner BlockFile
	ops   []recordedOp
}

type recordedOp struct {
	write bool
	off   int64
	n     int
}

func (r *recordingFile) ReadAt(p []byte, off int64) (int, error) {
	r.ops = append(r.ops, recordedOp{off: off, n: len(p)})
	return r.inner.ReadAt(p, off)
}

func (r *recordingFile) WriteAt(p []byte, off int64) (int, error) {
	r.ops = append(r.ops, recordedOp{write: true, off: off, n: len(p)})
	return r.inner.WriteAt(p, off)
}

func (r *recordingFile) Write(p []byte) (int, error) { return r.inner.Write(p) }
func (r *recordingFile) Sync() error                 { return r.inner.Sync() }
func (r *recordingFile) Close() error                { return r.inner.Close() }
func (r *recordingFile) Truncate(n int64) error      { return r.inner.Truncate(n) }
func (r *recordingFile) Name() string                { return r.inner.Name() }

// TestDirectLayoutAlignment drives flush-barrier runs, eviction
// clustering, faulting reads and a header-preserving overwrite through
// a durable store in the sector-padded layout the deleted O_DIRECT
// tier wrote, and asserts the layout holds on every transfer: each I/O
// offset is a multiple of the padded stride and each write covers
// whole slots, so a legacy table keeps its stride through buffered I/O.
func TestDirectLayoutAlignment(t *testing.T) {
	const b, cacheBlocks, blocks = 7, 16, 64 // odd b: frameBytes far from any sector multiple
	for _, sector := range sectors[1:] {
		s, err := OpenFileStore(filepath.Join(t.TempDir(), "blocks"), b, cacheBlocks, nil, int(sector))
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingFile{inner: s.f}
		s.f = rec
		if s.slotBytes%sector != 0 || s.slotBytes < s.frameBytes {
			t.Fatalf("slotBytes %d not sector-padded (frame %d, sector %d)", s.slotBytes, s.frameBytes, sector)
		}
		ids := make([]BlockID, blocks)
		for i := range ids {
			ids[i] = s.Alloc()
			s.WriteBlock(ids[i], []Entry{{Key: uint64(i), Val: uint64(i) * 3}})
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		// Evictions + faulting reads: touch everything again (the pool only
		// holds cacheBlocks frames).
		for i, id := range ids {
			got := s.ReadBlock(id, nil)
			if len(got) != 1 || got[0].Key != uint64(i) {
				t.Fatalf("sector %d: block %d: got %v", sector, i, got)
			}
		}
		// Chain-pointer preservation path (loadHeader) on an uncached block.
		s.WriteBlock(ids[0], []Entry{{Key: 99}})
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if len(rec.ops) == 0 {
			t.Fatal("recording file saw no I/O")
		}
		for i, op := range rec.ops {
			if op.off%s.slotBytes != 0 {
				t.Errorf("sector %d, op %d: offset %d not slot-aligned (slot %d)", sector, i, op.off, s.slotBytes)
			}
			if op.write && int64(op.n)%s.slotBytes != 0 {
				t.Errorf("sector %d, op %d: write length %d not a slot multiple", sector, i, op.n)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestODirectDurableRoundTrip runs the full durable cycle — write,
// checkpoint-style sync, close, reopen with the recorded mapping and
// slot alignment, verify — on a store laid out as the deleted O_DIRECT
// tier laid out its tables, and requires the file to end on a slot.
func TestODirectDurableRoundTrip(t *testing.T) {
	const sector = 4096
	path := filepath.Join(t.TempDir(), "blocks")
	s, err := OpenFileStore(path, 4, 8, nil, sector)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 40
	for i := 0; i < blocks; i++ {
		id := s.Alloc()
		s.WriteBlock(id, []Entry{{Key: uint64(i), Val: ^uint64(i)}})
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	nslots, free, mapping := s.AllocState()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size()%sector != 0 {
		t.Fatalf("file is %d bytes, not a whole number of %d-byte slots", info.Size(), sector)
	}

	// Reopen with the recorded alignment, as the superblock would.
	s2, err := OpenFileStore(path, 4, 8, nil, sector)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.RestoreAllocState(nslots, free, mapping); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks; i++ {
		got := s2.ReadBlock(BlockID(i), nil)
		if len(got) != 1 || got[0].Key != uint64(i) || got[0].Val != ^uint64(i) {
			t.Fatalf("block %d after reopen: got %v", i, got)
		}
	}
}

// TestAlignmentHelpers pins the layout arithmetic: alignUp, the stride
// each alignment gives, every frame's entry view sitting right past its
// image's header, and OpenFileStore refusing an alignment that is not a
// power of two.
func TestAlignmentHelpers(t *testing.T) {
	if got := alignUp(1, 512); got != 512 {
		t.Fatalf("alignUp(1, 512) = %d", got)
	}
	if got := alignUp(512, 512); got != 512 {
		t.Fatalf("alignUp(512, 512) = %d", got)
	}
	for _, sector := range []int64{0, 512, 8192} {
		s := newScratchStore(t, filepath.Join(t.TempDir(), "blocks"), 5, 3, sector)
		want := int64(blockHeaderBytes + 5*entryBytes)
		if sector > 0 {
			want = sector
		}
		if s.slotBytes != want {
			t.Fatalf("sector %d: stride %d, want %d", sector, s.slotBytes, want)
		}
		for i := range s.frames {
			fr := &s.frames[i]
			base := uintptr(unsafe.Pointer(&fr.img[0]))
			if len(fr.img) != int(s.slotBytes) || cap(fr.entries) != 5 ||
				uintptr(unsafe.Pointer(unsafe.SliceData(fr.entries))) != base+blockHeaderBytes {
				t.Fatalf("sector %d: frame %d view is not its image's entry area", sector, i)
			}
		}
		s.Close()
	}
	for _, bad := range []int{-512, 3, 1000} {
		if _, err := OpenFileStore(filepath.Join(t.TempDir(), "bad.blocks"), 5, 3, nil, bad); err == nil {
			t.Fatalf("OpenFileStore accepted slot alignment %d", bad)
		}
	}
}
