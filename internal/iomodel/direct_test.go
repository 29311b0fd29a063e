package iomodel

import (
	"testing"
	"unsafe"
)

// recordingFile wraps a BlockFile and records the offset, length and
// buffer address of every read and write, for alignment assertions.
type recordingFile struct {
	inner BlockFile
	ops   []recordedOp
}

type recordedOp struct {
	write bool
	off   int64
	n     int
	addr  uintptr
}

func (r *recordingFile) record(write bool, p []byte, off int64) {
	var addr uintptr
	if len(p) > 0 {
		addr = uintptr(unsafe.Pointer(&p[0]))
	}
	r.ops = append(r.ops, recordedOp{write: write, off: off, n: len(p), addr: addr})
}

func (r *recordingFile) ReadAt(p []byte, off int64) (int, error) {
	r.record(false, p, off)
	return r.inner.ReadAt(p, off)
}

func (r *recordingFile) WriteAt(p []byte, off int64) (int, error) {
	r.record(true, p, off)
	return r.inner.WriteAt(p, off)
}

func (r *recordingFile) Write(p []byte) (int, error) { return r.inner.Write(p) }
func (r *recordingFile) Sync() error                 { return r.inner.Sync() }
func (r *recordingFile) Close() error                { return r.inner.Close() }
func (r *recordingFile) Truncate(n int64) error      { return r.inner.Truncate(n) }
func (r *recordingFile) Name() string                { return r.inner.Name() }

// TestDirectLayoutAlignment drives flush-barrier runs, eviction
// clustering and faulting reads through an odirect-layout store and
// asserts the alignment invariants the kernel-bypass tier promises:
// every I/O offset and write length is a multiple of the slot stride
// (itself sector-padded), and — when the fd really is O_DIRECT — every
// I/O buffer is sector-aligned.
func TestDirectLayoutAlignment(t *testing.T) {
	const b, cacheBlocks, blocks = 7, 16, 64 // odd b: frameBytes far from any sector multiple
	s, err := NewFileStoreIO(t.TempDir()+"/blocks", b, cacheBlocks, IOOptions{Mode: IOModeODirect})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := &recordingFile{inner: s.f}
	s.f = rec

	sector := int64(s.SectorSize())
	if sector < 512 {
		t.Fatalf("direct layout sector = %d, want >= 512", sector)
	}
	if s.slotBytes%sector != 0 || s.slotBytes < s.frameBytes {
		t.Fatalf("slotBytes %d not sector-padded (frame %d, sector %d)", s.slotBytes, s.frameBytes, sector)
	}

	for i := 0; i < blocks; i++ {
		id := s.Alloc()
		s.WriteBlock(id, []Entry{{Key: uint64(i), Val: uint64(i) * 3}})
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Evictions + faulting reads: touch everything again (the pool only
	// holds cacheBlocks frames).
	for i := 0; i < blocks; i++ {
		got := s.ReadBlock(BlockID(i), nil)
		if len(got) != 1 || got[0].Key != uint64(i) {
			t.Fatalf("block %d: got %v", i, got)
		}
	}
	// Chain-pointer preservation path (loadHeader) on an uncached block.
	s.WriteBlock(BlockID(0), []Entry{{Key: 99}})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	if len(rec.ops) == 0 {
		t.Fatal("recording file saw no I/O")
	}
	for i, op := range rec.ops {
		if op.off%s.slotBytes != 0 {
			t.Errorf("op %d: offset %d not slot-aligned (slot %d)", i, op.off, s.slotBytes)
		}
		if op.write && int64(op.n)%s.slotBytes != 0 {
			t.Errorf("op %d: write length %d not a slot multiple", i, op.n)
		}
		if s.direct {
			if int64(op.n)%sector != 0 {
				t.Errorf("op %d: length %d not sector-aligned", i, op.n)
			}
			if op.addr%uintptr(sector) != 0 {
				t.Errorf("op %d: buffer address %#x not sector-aligned", i, op.addr)
			}
		}
	}
}

// TestDirectLayoutAlignmentAsync repeats the alignment drive with the
// writeback pool engaged, so pooled submission buffers are checked
// too.
func TestDirectLayoutAlignmentAsync(t *testing.T) {
	const b, cacheBlocks, blocks = 5, 8, 48
	s, err := NewFileStoreIO(t.TempDir()+"/blocks", b, cacheBlocks, IOOptions{Mode: IOModeODirect})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := &recordingFile{inner: s.f}
	s.f = rec
	s.SetWritebackWorkers(3)

	for i := 0; i < blocks; i++ {
		id := s.Alloc()
		s.WriteBlock(id, []Entry{{Key: uint64(i)}})
		if i%7 == 0 {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks; i++ {
		if got := s.ReadBlock(BlockID(i), nil); len(got) != 1 || got[0].Key != uint64(i) {
			t.Fatalf("block %d: got %v", i, got)
		}
	}
	sector := int64(s.SectorSize())
	for i, op := range rec.ops {
		if op.off%s.slotBytes != 0 {
			t.Errorf("op %d: offset %d not slot-aligned", i, op.off)
		}
		if s.direct && op.addr%uintptr(sector) != 0 {
			t.Errorf("op %d: buffer address %#x not sector-aligned", i, op.addr)
		}
	}
}

// TestODirectDurableRoundTrip exercises the full durable cycle —
// write, checkpoint-style sync, close, reopen with the recorded
// mapping, verify — on a real O_DIRECT fd. Skips cleanly where the
// filesystem refused the flag.
func TestODirectDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/blocks"
	io := IOOptions{Mode: IOModeODirect}
	s, err := OpenFileStoreIO(path, 4, 8, nil, io)
	if err != nil {
		t.Fatal(err)
	}
	if s.EffectiveIOMode() != IOModeODirect {
		s.Close()
		t.Skipf("O_DIRECT unsupported here (effective mode %s)", s.EffectiveIOMode())
	}
	if st := s.Stats(); st.DirectIO != 1 || st.ODirectFallbacks != 0 {
		t.Fatalf("stats: DirectIO=%d ODirectFallbacks=%d, want 1, 0", st.DirectIO, st.ODirectFallbacks)
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
	sector := s.SectorSize()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the recorded sector, as the superblock would.
	s2, err := OpenFileStoreIO(path, 4, 8, nil, IOOptions{Mode: IOModeODirect, Sector: sector})
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

// TestODirectFallbackRecorded forces the O_DIRECT open to fail and
// verifies the fallback ladder: buffered syscalls, the sector-padded
// layout kept, and the fallback recorded in FileStats.
func TestODirectFallbackRecorded(t *testing.T) {
	forceNoDirect = true
	defer func() { forceNoDirect = false }()
	s, err := NewFileStoreIO(t.TempDir()+"/blocks", 4, 8, IOOptions{Mode: IOModeODirect})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.EffectiveIOMode(); got != IOModeBuffered {
		t.Fatalf("effective mode = %s, want buffered", got)
	}
	if st := s.Stats(); st.ODirectFallbacks != 1 || st.DirectIO != 0 {
		t.Fatalf("stats: ODirectFallbacks=%d DirectIO=%d, want 1, 0", st.ODirectFallbacks, st.DirectIO)
	}
	if s.SectorSize() == 0 {
		t.Fatal("fallback dropped the sector-padded layout")
	}
	for i := 0; i < 20; i++ {
		id := s.Alloc()
		s.WriteBlock(id, []Entry{{Key: uint64(i)}})
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got := s.ReadBlock(BlockID(i), nil); len(got) != 1 || got[0].Key != uint64(i) {
			t.Fatalf("block %d: got %v", i, got)
		}
	}
}

// TestConfigureSubmissionUring exercises ConfigureSubmission under
// IOModeUring in whichever build variant is running: with the iouring
// tag and a supporting kernel the ring engages; otherwise the store
// records the fallback and lands on the pwrite pool. Data round-trips
// either way.
func TestConfigureSubmissionUring(t *testing.T) {
	s, err := NewTempFileStoreIO(4, 8, IOOptions{Mode: IOModeUring})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.ConfigureSubmission(IOModeUring, 2)
	st := s.Stats()
	switch {
	case s.uringOn:
		if !uringBuilt {
			t.Fatal("ring engaged without the iouring tag")
		}
		if s.EffectiveIOMode() != IOModeUring {
			t.Fatalf("effective mode = %s, want uring", s.EffectiveIOMode())
		}
	default:
		if st.UringFallbacks != 1 {
			t.Fatalf("UringFallbacks = %d, want 1", st.UringFallbacks)
		}
		if s.wb == nil {
			t.Fatal("fallback did not engage the pwrite pool")
		}
	}
	const blocks = 200
	for i := 0; i < blocks; i++ {
		id := s.Alloc()
		s.WriteBlock(id, []Entry{{Key: uint64(i), Val: uint64(i) << 8}})
		if i%33 == 0 {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks; i++ {
		got := s.ReadBlock(BlockID(i), nil)
		if len(got) != 1 || got[0].Key != uint64(i) || got[0].Val != uint64(i)<<8 {
			t.Fatalf("block %d: got %v", i, got)
		}
	}
	if s.uringOn {
		st = s.Stats()
		if st.UringSQEs == 0 || st.UringEnters == 0 {
			t.Fatalf("ring counters unmetered: SQEs=%d enters=%d", st.UringSQEs, st.UringEnters)
		}
		if st.UringSQEs < st.UringEnters {
			t.Fatalf("SQEs (%d) < enters (%d): batching accounting broken", st.UringSQEs, st.UringEnters)
		}
	}
}

// TestCrasherRefusesKernelBypass: a crash-injected store must stay on
// the synchronous buffered syscall path whatever mode asks for — the
// crash matrix counts write syscalls — while keeping the direct slot
// layout so the same files replay.
func TestCrasherRefusesKernelBypass(t *testing.T) {
	crasher := NewCrasher(CrashPlan{FailAfterWrites: 1 << 30})
	s, err := OpenFileStoreIO(t.TempDir()+"/blocks", 4, 8, crasher, IOOptions{Mode: IOModeUring})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.EffectiveIOMode(); got != IOModeBuffered {
		t.Fatalf("effective mode = %s, want buffered under crash injection", got)
	}
	s.ConfigureSubmission(IOModeUring, 4)
	if s.wb != nil {
		t.Fatal("crash-injected store accepted an async submission backend")
	}
	if st := s.Stats(); st.DirectIO != 0 || st.ODirectFallbacks != 0 {
		t.Fatalf("refusal should not count as a fallback: %+v", st)
	}
	if s.SectorSize() == 0 {
		t.Fatal("crash-injected store lost the direct slot layout")
	}
}

// TestAlignmentHelpers pins the allocator invariants the direct tier
// is built on.
func TestAlignmentHelpers(t *testing.T) {
	for _, align := range []int{512, 4096} {
		for _, n := range []int{1, 511, 512, 4097} {
			buf := alignedBytes(n, n, align)
			if len(buf) != n {
				t.Fatalf("alignedBytes(%d, %d): len %d", n, align, len(buf))
			}
			if uintptr(unsafe.Pointer(&buf[0]))%uintptr(align) != 0 {
				t.Fatalf("alignedBytes(%d, %d): base not aligned", n, align)
			}
		}
	}
	if got := alignUp(1, 512); got != 512 {
		t.Fatalf("alignUp(1, 512) = %d", got)
	}
	if got := alignUp(512, 512); got != 512 {
		t.Fatalf("alignUp(512, 512) = %d", got)
	}
	// Slot images: page-aligned at least, sector-aligned under a direct
	// layout, and each entry view starts right past its image's header.
	for _, sector := range []int{0, 512, 8192} {
		mode := IOModeBuffered
		if sector > 0 {
			mode = IOModeODirect
		}
		s, err := NewTempFileStoreIO(5, 3, IOOptions{Mode: mode, Sector: sector})
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.frames {
			fr := &s.frames[i]
			base := uintptr(unsafe.Pointer(&fr.img[0]))
			if i == 0 && base%uintptr(max(sector, 4096)) != 0 {
				t.Fatalf("sector %d: arena base %#x misaligned", sector, base)
			}
			if sector > 0 && base%uintptr(sector) != 0 {
				t.Fatalf("sector %d: frame %d image %#x not sector-aligned", sector, i, base)
			}
			if len(fr.img) != int(s.slotBytes) || cap(fr.entries) != 5 ||
				uintptr(unsafe.Pointer(unsafe.SliceData(fr.entries))) != base+blockHeaderBytes {
				t.Fatalf("sector %d: frame %d view is not its image's entry area", sector, i)
			}
		}
		s.Close()
	}
	if !ValidIOMode("") || !ValidIOMode(IOModeUring) || ValidIOMode("mmap") {
		t.Fatal("ValidIOMode misclassifies")
	}
}

// TestDirectStoreSoleCache verifies the kernel-bypass premise end to
// end on a supporting filesystem: with O_DIRECT active, re-reading an
// evicted block is a real device read, not a page-cache copy — the
// counters must show the pread, and the data must still be right.
func TestDirectStoreSoleCache(t *testing.T) {
	s, err := NewFileStoreIO(t.TempDir()+"/blocks", 4, 4, IOOptions{Mode: IOModeODirect})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.EffectiveIOMode() != IOModeODirect {
		t.Skipf("O_DIRECT unsupported here")
	}
	const blocks = 32 // 8x the pool: every revisit faults
	for i := 0; i < blocks; i++ {
		id := s.Alloc()
		s.WriteBlock(id, []Entry{{Key: uint64(i)}})
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	pre := s.Stats()
	for i := 0; i < blocks; i++ {
		if got := s.ReadBlock(BlockID(i), nil); len(got) != 1 || got[0].Key != uint64(i) {
			t.Fatalf("block %d: got %v", i, got)
		}
	}
	post := s.Stats()
	if post.ReadSyscalls == pre.ReadSyscalls {
		t.Fatal("expected real preads when sweeping past the pool capacity")
	}
}
