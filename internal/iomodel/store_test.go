package iomodel

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// lcg is a tiny deterministic generator so backend runs see identical
// operation streams without importing the workload packages.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

// driveOps runs a deterministic mixed stream of disk operations and
// returns the final contents of every live block plus the counters.
func driveOps(t *testing.T, d *Disk, ops int) (map[BlockID][]Entry, map[BlockID]BlockID, Counters) {
	t.Helper()
	rng := lcg(12345)
	var live []BlockID
	for i := 0; i < ops; i++ {
		if len(live) == 0 {
			live = append(live, d.Alloc())
			continue
		}
		id := live[int(rng.next()%uint64(len(live)))]
		switch rng.next() % 8 {
		case 0:
			live = append(live, d.Alloc())
		case 1:
			// Free the picked block, unlinking any header that names it.
			for _, o := range live {
				if o != id && d.Next(o) == id {
					d.SetNext(o, NilBlock)
				}
			}
			for j, o := range live {
				if o == id {
					live = append(live[:j], live[j+1:]...)
					break
				}
			}
			d.Free(id)
		case 2:
			n := int(rng.next() % uint64(d.B()+1))
			ents := make([]Entry, n)
			for j := range ents {
				ents[j] = Entry{Key: rng.next(), Val: rng.next()}
			}
			d.Write(id, ents)
		case 3:
			buf := d.Read(id, nil)
			if len(buf) < d.B() {
				buf = append(buf, Entry{Key: rng.next(), Val: rng.next()})
			}
			d.WriteBack(id, buf)
		case 4:
			d.Read(id, nil)
		case 5:
			d.Clear(id)
		case 6:
			other := live[int(rng.next()%uint64(len(live)))]
			if other != id {
				d.SetNext(id, other)
			}
		case 7:
			d.Peek(id)
		}
	}
	contents := make(map[BlockID][]Entry, len(live))
	nexts := make(map[BlockID]BlockID, len(live))
	for _, id := range live {
		contents[id] = append([]Entry(nil), d.Peek(id)...)
		nexts[id] = d.Next(id)
	}
	return contents, nexts, d.Counters()
}

// TestBackendConformance drives an identical operation stream against
// every backend and requires bit-for-bit identical visible state and —
// critically for the paper experiments — identical I/O counters.
func TestBackendConformance(t *testing.T) {
	const b, ops = 4, 4000
	refContents, refNexts, refCtr := driveOps(t, NewDisk(b), ops)

	backends := map[string]func(t *testing.T) BlockStore{
		"file-small-cache": func(t *testing.T) BlockStore {
			fs, err := NewFileStore(filepath.Join(t.TempDir(), "store.blocks"), b, 3)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
		"file-large-cache": func(t *testing.T) BlockStore {
			fs, err := NewFileStore(filepath.Join(t.TempDir(), "store.blocks"), b, 1024)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			store := mk(t)
			d := NewDiskOn(store)
			contents, nexts, ctr := driveOps(t, d, ops)
			if ctr != refCtr {
				t.Fatalf("counters diverge from mem backend: %v vs %v", ctr, refCtr)
			}
			if len(contents) != len(refContents) {
				t.Fatalf("live block count %d, want %d", len(contents), len(refContents))
			}
			for id, want := range refContents {
				got, ok := contents[id]
				if !ok {
					t.Fatalf("block %d missing", id)
				}
				if len(got) != len(want) {
					t.Fatalf("block %d length %d, want %d", id, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("block %d entry %d = %v, want %v", id, i, got[i], want[i])
					}
				}
				if nexts[id] != refNexts[id] {
					t.Fatalf("block %d next = %d, want %d", id, nexts[id], refNexts[id])
				}
			}
			if err := d.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		})
	}
}

func TestFileStoreEvictionRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "evict.blocks")
	fs, err := NewFileStore(path, 4, 2) // 2 frames: heavy eviction
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const n = 64
	ids := make([]BlockID, n)
	for i := range ids {
		ids[i] = fs.Alloc()
		fs.WriteBlock(ids[i], []Entry{{Key: uint64(i), Val: uint64(i) * 3}})
		fs.SetNext(ids[i], BlockID(i%7)-1)
	}
	for i, id := range ids {
		got := fs.ReadBlock(id, nil)
		if len(got) != 1 || got[0].Key != uint64(i) || got[0].Val != uint64(i)*3 {
			t.Fatalf("block %d round trip: %v", id, got)
		}
		if fs.Next(id) != BlockID(i%7)-1 {
			t.Fatalf("block %d next = %d", id, fs.Next(id))
		}
	}
	st := fs.Stats()
	if st.WriteSyscalls == 0 || st.ReadSyscalls == 0 {
		t.Fatalf("expected real syscalls with a 2-frame cache, got %+v", st)
	}
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", st)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * int64(blockHeaderBytes+4*entryBytes); info.Size() != want {
		t.Fatalf("file size %d, want %d", info.Size(), want)
	}
}

func TestFileStoreFreeReuse(t *testing.T) {
	fs, err := NewTempFileStore(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	a := fs.Alloc()
	fs.WriteBlock(a, []Entry{{1, 1}, {2, 2}})
	fs.SetNext(a, 99)
	// Force the dirty frame to the file, then free and reallocate: the
	// stale on-disk bytes must not resurface.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Free(a)
	b := fs.Alloc()
	if b != a {
		t.Fatalf("allocator did not reuse freed block: got %d want %d", b, a)
	}
	if got := fs.ReadBlock(b, nil); len(got) != 0 {
		t.Fatalf("reused block kept stale contents: %v", got)
	}
	if fs.Next(b) != NilBlock {
		t.Fatal("reused block kept stale next pointer")
	}
	if fs.NumBlocks() != 1 {
		t.Fatalf("NumBlocks = %d", fs.NumBlocks())
	}
}

// TestFileStoreWriteMissPreservesNext is the regression test for the
// chain-corruption bug: a whole-block write to a block whose frame has
// been evicted must not clobber the on-disk overflow-chain pointer.
// MemStore keeps next across WriteBlock; FileStore must too.
func TestFileStoreWriteMissPreservesNext(t *testing.T) {
	fs, err := NewTempFileStore(4, 1) // single frame: every second access misses
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	a, b := fs.Alloc(), fs.Alloc()
	fs.WriteBlock(a, []Entry{{1, 1}})
	fs.SetNext(a, b)
	// Evict a by touching b, then overwrite a's contents on a cold frame.
	fs.WriteBlock(b, []Entry{{2, 2}})
	fs.WriteBlock(a, []Entry{{3, 3}})
	if got := fs.Next(a); got != b {
		t.Fatalf("write miss lost chain pointer: Next(a) = %d, want %d", got, b)
	}
	if got := fs.ReadBlock(a, nil); len(got) != 1 || got[0] != (Entry{3, 3}) {
		t.Fatalf("contents after overwrite: %v", got)
	}
}

// TestFileStoreHoleDecodesAsEmpty is the regression test for the
// sparse-hole bug: a block allocated but never flushed occupies a
// zero-filled file region once later blocks are written past it. Those
// zeros must decode as an empty block with a NIL chain pointer — with a
// naive encoding they decode as next=0, grafting phantom edges to block
// 0 into every chain and sending chain walks into cycles.
func TestFileStoreHoleDecodesAsEmpty(t *testing.T) {
	fs, err := NewTempFileStore(4, 1) // single frame: nothing lingers cached
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	hole := fs.Alloc()
	later := fs.Alloc()
	// Flush 'later' past the hole, leaving 'hole' as zero bytes on disk.
	fs.WriteBlock(later, []Entry{{9, 9}})
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Next(hole); got != NilBlock {
		t.Fatalf("hole decoded with chain pointer %d, want NilBlock", got)
	}
	if got := fs.ReadBlock(hole, nil); len(got) != 0 {
		t.Fatalf("hole decoded with entries: %v", got)
	}
	// A cold whole-block write to the hole must also see a nil header.
	fs.WriteBlock(later, []Entry{{9, 9}}) // evict hole's frame again
	fs.WriteBlock(hole, []Entry{{1, 1}})
	if got := fs.Next(hole); got != NilBlock {
		t.Fatalf("cold write to hole picked up chain pointer %d", got)
	}
}

func TestTempFileStoreRemovedOnClose(t *testing.T) {
	fs, err := NewTempFileStore(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := fs.Path()
	id := fs.Alloc()
	fs.WriteBlock(id, []Entry{{7, 7}})
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("temp file %s survived Close (err=%v)", path, err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestModelOnFileBackend runs the Disk invariants that the simulated
// backend's tests cover — write-back legality, capacity, counter math —
// over the file backend, confirming Disk semantics are backend-independent.
func TestModelOnFileBackend(t *testing.T) {
	fs, err := NewTempFileStore(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	mo := NewModelOn(fs, 1024)
	defer mo.Close()
	d := mo.Disk
	id := d.Alloc()
	d.Write(id, []Entry{{1, 10}})
	buf := d.Read(id, nil)
	buf = append(buf, Entry{2, 20})
	d.WriteBack(id, buf)
	if c := d.Counters(); c.Reads != 1 || c.Writes != 1 || c.WriteBacks != 1 {
		t.Fatalf("counters %+v", c)
	}
	other := d.Alloc()
	d.Write(other, nil)
	d.Read(id, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-order WriteBack did not panic on file backend")
			}
		}()
		d.WriteBack(other, nil)
	}()
}

// TestCopyOnWriteEpochStamps pins the placement rule the epoch stamps
// carry: every flush moves a block to a fresh slot; the slot it leaves
// is free at once if this epoch stamped it, while one a checkpoint may
// reference waits for EndEpoch — and all of it survives the epoch
// counter wrapping and a RestoreAllocState.
func TestCopyOnWriteEpochStamps(t *testing.T) {
	s, err := OpenFileStore(filepath.Join(t.TempDir(), "cow.blocks"), 4, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := s.Alloc()
	flush := func(v uint64) int64 {
		t.Helper()
		s.WriteBlock(id, []Entry{{Key: 1, Val: v}})
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		return s.mapping[id]
	}
	epochs := func(label string) {
		t.Helper()
		before := s.mapping[id]
		first := flush(1)
		if first == before {
			t.Fatalf("%s: first flush of the epoch overwrote slot %d a checkpoint references", label, before)
		}
		if before >= 0 && (!slotUsed(s, before) || !slices.Contains(s.pendingFree, before)) {
			t.Fatalf("%s: superseded slot %d not pending (pendingFree %v)", label, before, s.pendingFree)
		}
		again := flush(2)
		if again == first {
			t.Fatalf("%s: second flush overwrote slot %d in place, want a fresh slot", label, first)
		}
		if slotUsed(s, first) || slices.Contains(s.pendingFree, first) {
			t.Fatalf("%s: slot %d written and left this epoch is not free", label, first)
		}
		// A block born and freed inside the epoch gives its slot straight back.
		tmp := s.Alloc()
		s.WriteBlock(tmp, []Entry{{Key: 9}})
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		slot := s.mapping[tmp]
		s.Free(tmp)
		if slotUsed(s, slot) {
			t.Fatalf("%s: slot %d written and retired this epoch is not free", label, slot)
		}
		checkAllocator(t, s, label)
		s.EndEpoch()
		if len(s.pendingFree) != 0 {
			t.Fatalf("%s: EndEpoch left pending slots %v", label, s.pendingFree)
		}
		if before >= 0 && slotUsed(s, before) {
			t.Fatalf("%s: EndEpoch did not free superseded slot %d", label, before)
		}
		checkAllocator(t, s, label+", after EndEpoch")
	}
	epochs("first epoch")
	epochs("second epoch")
	s.epoch = ^uint32(0)
	epochs("last epoch before the counter wraps")
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	epochs("first epoch after the wrap")
	nslots, free, mapping := s.AllocState()
	if err := s.RestoreAllocState(nslots, free, mapping); err != nil {
		t.Fatal(err)
	}
	checkAllocator(t, s, "after restore")
	epochs("first epoch after a restore")
}

// TestHotRunReuse pins the allocator's first choice: slots this epoch
// wrote and emptied again are reused before any cold free group or new
// tail, since their pages are dirty already. An epoch that rewrites the
// same eight blocks over and over cycles through the runs it has
// written: once the carve region is used up, each flush lands on the
// run the flush before last left, and the extent stops growing. After
// EndEpoch, whose fsync cleaned those pages, nothing is hot.
func TestHotRunReuse(t *testing.T) {
	s, err := OpenFileStore(filepath.Join(t.TempDir(), "hot.blocks"), 4, 64, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := make([]BlockID, hotSlots)
	for i := range ids {
		ids[i] = s.Alloc()
	}
	flush := func(v uint64) int64 {
		t.Helper()
		for i, id := range ids {
			s.WriteBlock(id, []Entry{{Key: uint64(i), Val: v}})
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if s.mapping[id] != s.mapping[ids[0]]+int64(i) {
				t.Fatalf("flush %d: blocks not in one run: %v", v, s.mapping)
			}
		}
		return s.mapping[ids[0]]
	}
	flush(0)
	s.EndEpoch()
	at := []int64{flush(1), flush(2), flush(3)}
	extent := s.physHigh
	for v := uint64(4); v < 12; v++ {
		at = append(at, flush(v))
		if want := at[len(at)-3]; at[len(at)-1] != want {
			t.Fatalf("flush %d went to slot %d, want the hot run at slot %d (runs so far %v)", v, at[len(at)-1], want, at)
		}
	}
	if s.physHigh != extent {
		t.Fatalf("extent grew from %d to %d slots while the epoch had hot runs", extent, s.physHigh)
	}
	checkAllocator(t, s, "after the rewrites")
	s.EndEpoch()
	if len(s.hotRuns) != 0 {
		t.Fatalf("hot runs %v survive EndEpoch", s.hotRuns)
	}
}

// TestHotRunsBoundedInLongEpoch runs one long epoch of random
// single-block rewrites, flushed every 5,000 — a durable store between
// checkpoints, and a scratch store, whose epoch never ends. The hot-run
// list must never hold more entries than the allocator has runs, a
// scratch store must free every slot it supersedes at once, the extent
// must stay within 4x the live blocks, and every block must read back
// its last write.
func TestHotRunsBoundedInLongEpoch(t *testing.T) {
	const b, cacheBlocks, blocks, rewrites, flushEvery = 4, 64, 1000, 400_000, 5000
	for _, tc := range []struct {
		name    string
		open    func(path string) (*FileStore, error)
		scratch bool
	}{
		{"OpenFileStore", func(path string) (*FileStore, error) { return OpenFileStore(path, b, cacheBlocks, nil, 0) }, false},
		{"NewFileStore", func(path string) (*FileStore, error) { return NewFileStore(path, b, cacheBlocks) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.open(filepath.Join(t.TempDir(), "epoch.blocks"))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ids := make([]BlockID, blocks)
			want := make([]uint64, blocks)
			for i := range ids {
				ids[i] = s.Alloc()
			}
			x := uint64(0x9e3779b97f4a7c15)
			for r := 1; r <= rewrites; r++ {
				x = xorshift(x)
				i := x % blocks
				s.WriteBlock(ids[i], []Entry{{Key: i, Val: uint64(r)}})
				want[i] = uint64(r)
				if r%flushEvery == 0 {
					if err := s.FlushDirty(); err != nil {
						t.Fatal(err)
					}
				}
				if int64(len(s.hotRuns)) > s.physHigh/hotSlots {
					t.Fatalf("rewrite %d: %d hot-run entries for %d runs", r, len(s.hotRuns), s.physHigh/hotSlots)
				}
				if tc.scratch && len(s.pendingFree) != 0 {
					t.Fatalf("rewrite %d: scratch store holds %d pending slots", r, len(s.pendingFree))
				}
			}
			if st := s.Stats(); st.FileSlots > 4*blocks {
				t.Fatalf("extent %d slots for %d live blocks", st.FileSlots, blocks)
			}
			checkAllocator(t, s, "after the epoch")
			for i, id := range ids {
				if got := s.ReadBlock(id, nil); len(got) != 1 || got[0] != (Entry{Key: uint64(i), Val: want[i]}) {
					t.Fatalf("block %d = %v, want value %d", i, got, want[i])
				}
			}
		})
	}
}

// slotUsed reports whether the allocator holds physical slot p.
func slotUsed(s *FileStore, p int64) bool { return s.used[p/64]&(1<<(p%64)) != 0 }

// checkAllocator asserts the extent allocator's invariants: a slot is
// held exactly while a block maps to it or it is pending, the free
// counts match the bitmap, and the carve region is free.
func checkAllocator(t *testing.T, s *FileStore, label string) {
	t.Helper()
	held := make(map[int64]bool)
	for _, p := range s.mapping {
		if p >= 0 {
			held[p] = true
		}
	}
	for _, p := range s.pendingFree {
		held[p] = true
	}
	if s.physHigh%groupSlots != 0 || int64(len(s.slotEpoch)) != s.physHigh {
		t.Fatalf("%s: extent %d slots, %d stamps: not whole groups", label, s.physHigh, len(s.slotEpoch))
	}
	var freeSlots, freeGroups int64
	for p := int64(0); p < s.physHigh; p++ {
		if slotUsed(s, p) != held[p] {
			t.Fatalf("%s: slot %d used=%v, mapped or pending=%v", label, p, slotUsed(s, p), held[p])
		}
		if !held[p] {
			freeSlots++
		}
		if p%groupSlots == 0 && s.runFree(p, groupSlots) {
			freeGroups++
		}
	}
	if freeSlots != s.freeSlots || freeGroups != s.freeGroups {
		t.Fatalf("%s: counted %d free slots in %d free groups, allocator says %d in %d",
			label, freeSlots, freeGroups, s.freeSlots, s.freeGroups)
	}
	for p := s.carve; p < s.carveEnd; p++ {
		if slotUsed(s, p) {
			t.Fatalf("%s: carve region [%d, %d) holds used slot %d", label, s.carve, s.carveEnd, p)
		}
	}
}

// slotWatch is a block file that reports the slots every write covers.
type slotWatch struct {
	BlockFile
	slotBytes int64
	onWrite   func(first, last int64)
}

func (w *slotWatch) WriteAt(p []byte, off int64) (int, error) {
	w.onWrite(off/w.slotBytes, (off+int64(len(p))-1)/w.slotBytes)
	return w.BlockFile.WriteAt(p, off)
}

// TestExtentAllocatorSteadyState runs 60 checkpoint epochs of random
// read-modify-writes over a durable store 32 times its pool, so nearly
// every write leaves in an eviction batch, with a checkpoint (Sync,
// AllocState, EndEpoch) closing each epoch. No write may touch a slot
// the last checkpoint's mapping references; the batches must average at
// least 8 frames per pwrite; the file extent must have stopped growing
// (epoch 50 within 10% of epoch 25); and a reopen restored from the
// last checkpoint must read every block's last value.
func TestExtentAllocatorSteadyState(t *testing.T) {
	const (
		b, cacheBlocks, blocks = 4, 64, 2048
		epochs, writesPerEpoch = 60, 2048
	)
	path := filepath.Join(t.TempDir(), "extent.blocks")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var referenced []bool // by physical slot: in the last checkpoint's mapping
	watch := &slotWatch{BlockFile: f, slotBytes: blockHeaderBytes + b*entryBytes}
	watch.onWrite = func(first, last int64) {
		for p := first; p <= last && p < int64(len(referenced)); p++ {
			if referenced[p] {
				t.Fatalf("a write covering slots %d..%d overwrites slot %d of the last checkpoint", first, last, p)
			}
		}
	}
	s := newFileStoreOn(watch, b, cacheBlocks, 0)
	ids := make([]BlockID, blocks)
	want := make([]uint64, blocks)
	for i := range ids {
		ids[i] = s.Alloc()
		s.WriteBlock(ids[i], []Entry{{Key: uint64(i)}})
	}
	var nslots int
	var free []BlockID
	var mapping []int64
	checkpoint := func() {
		t.Helper()
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		nslots, free, mapping = s.AllocState()
		referenced = make([]bool, s.physHigh)
		for _, p := range mapping {
			if p >= 0 {
				referenced[p] = true
			}
		}
		s.EndEpoch()
	}
	checkpoint()
	base := s.Stats()
	var extent [epochs + 1]int64
	x := uint64(0x9e3779b97f4a7c15)
	var buf []Entry
	for e := 1; e <= epochs; e++ {
		for range writesPerEpoch {
			x = xorshift(x)
			i := x % blocks
			buf = s.ReadBlock(ids[i], buf[:0])
			want[i]++
			buf[0].Val = want[i]
			s.WriteBlock(ids[i], buf)
		}
		checkpoint()
		extent[e] = s.Stats().FileSlots
	}
	checkAllocator(t, s, "after the last epoch")
	st := s.Stats()
	frames, runs := st.FlushedFrames-base.FlushedFrames, st.FlushRuns-base.FlushRuns
	t.Logf("%d frames in %d runs (%.1f per run); extent %d slots at epoch 25, %d at epoch 50, %d blocks live",
		frames, runs, float64(frames)/float64(runs), extent[25], extent[50], blocks)
	if frames < 8*runs {
		t.Fatalf("%d frames in %d runs: fewer than 8 frames per pwrite", frames, runs)
	}
	if d := extent[50] - extent[25]; d*10 > extent[25] || -d*10 > extent[25] {
		t.Fatalf("file extent %d slots at epoch 25, %d at epoch 50: not steady", extent[25], extent[50])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFileStore(path, b, cacheBlocks, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.RestoreAllocState(nslots, free, mapping); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if got := r.ReadBlock(id, nil); len(got) != 1 || got[0] != (Entry{Key: uint64(i), Val: want[i]}) {
			t.Fatalf("block %d after reopen = %+v, want key %d val %d", id, got, i, want[i])
		}
	}
}

// fillStore writes n fresh blocks of distinct content through st.
func fillStore(t *testing.T, st *FileStore, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := st.Alloc()
		st.WriteBlock(id, []Entry{{Key: uint64(i), Val: uint64(i) * 3}})
	}
}

// TestFsyncElided asserts the one-fsync-per-fd-per-barrier dedupe: a
// barrier with nothing written since the last fsync skips the syscall
// and counts the elision.
func TestFsyncElided(t *testing.T) {
	st, err := NewTempFileStore(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fillStore(t, st, 4)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	base := st.Stats()
	if base.Fsyncs != 1 || base.FsyncsElided != 0 {
		t.Fatalf("first barrier: Fsyncs=%d FsyncsElided=%d, want 1/0", base.Fsyncs, base.FsyncsElided)
	}
	// Nothing written since: the second and third barrier fsyncs are
	// deduped away.
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Fsync(); err != nil {
		t.Fatal(err)
	}
	got := st.Stats()
	if got.Fsyncs != 1 || got.FsyncsElided != 2 {
		t.Fatalf("idle barriers: Fsyncs=%d FsyncsElided=%d, want 1/2", got.Fsyncs, got.FsyncsElided)
	}
	// New bytes re-arm the fsync.
	st.WriteBlock(0, []Entry{{Key: 9, Val: 9}})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	got = st.Stats()
	if got.Fsyncs != 2 {
		t.Fatalf("dirty barrier: Fsyncs=%d, want 2", got.Fsyncs)
	}
}
