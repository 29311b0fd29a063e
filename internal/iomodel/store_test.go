package iomodel

import (
	"cmp"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
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
		"latency-over-mem": func(t *testing.T) BlockStore {
			return NewLatencyStore(NewMemStore(b), LatencyConfig{})
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

func TestLatencyStoreWaits(t *testing.T) {
	ls := NewLatencyStore(NewMemStore(4), LatencyConfig{Seek: time.Millisecond})
	d := NewDiskOn(ls)
	id := d.Alloc()
	start := time.Now()
	d.Write(id, []Entry{{1, 1}})
	d.Read(id, nil)
	d.Read(id, nil)
	elapsed := time.Since(start)
	if ls.DelayedOps() != 3 {
		t.Fatalf("DelayedOps = %d, want 3", ls.DelayedOps())
	}
	if ls.Waited() != 3*time.Millisecond {
		t.Fatalf("Waited = %v, want 3ms", ls.Waited())
	}
	if elapsed < 3*time.Millisecond {
		t.Fatalf("elapsed %v < injected 3ms", elapsed)
	}
	// Header and allocator operations stay free.
	d.Next(id)
	d.Free(id)
	if ls.DelayedOps() != 3 {
		t.Fatalf("free operations were delayed: %d", ls.DelayedOps())
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
// carry: the first flush of a block in an epoch moves it to a fresh
// slot, later flushes in that epoch overwrite in place, a slot retired
// in the epoch that assigned it is reusable at once while one a
// checkpoint may reference waits for EndEpoch — and all of it survives
// the epoch counter wrapping and a RestoreAllocState.
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
		if again := flush(2); again != first {
			t.Fatalf("%s: second flush moved %d -> %d, want in place", label, first, again)
		}
		if n := len(s.pendingFree); before >= 0 && (n == 0 || s.pendingFree[n-1] != before) {
			t.Fatalf("%s: superseded slot %d not pending (pendingFree %v)", label, before, s.pendingFree)
		}
		// A block born and freed inside the epoch gives its slot straight back.
		tmp := s.Alloc()
		s.WriteBlock(tmp, []Entry{{Key: 9}})
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		slot := s.mapping[tmp]
		s.Free(tmp)
		if n := len(s.physFree); n == 0 || s.physFree[n-1] != slot {
			t.Fatalf("%s: slot %d written and retired this epoch is not free (physFree %v)", label, slot, s.physFree)
		}
		s.EndEpoch()
		if len(s.pendingFree) != 0 {
			t.Fatalf("%s: EndEpoch left pending slots %v", label, s.pendingFree)
		}
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
	for p := int64(0); p < s.physHigh; p++ {
		inUse, isFree := slices.Contains(s.mapping, p), slices.Contains(s.physFree, p)
		if inUse == isFree {
			t.Fatalf("after restore: slot %d mapped=%v free=%v", p, inUse, isFree)
		}
	}
	if !slices.IsSortedFunc(s.physFree, func(a, b int64) int { return cmp.Compare(b, a) }) {
		t.Fatalf("after restore: physFree %v not highest-first", s.physFree)
	}
	epochs("first epoch after a restore")
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

// TestDeviceProfiles checks the fio-style presets: lookup, unknown
// names, and that sequential access is priced below seek-heavy access.
func TestDeviceProfiles(t *testing.T) {
	for _, name := range DeviceProfileNames() {
		cfg, err := DeviceProfile(name)
		if err != nil {
			t.Fatalf("profile %s: %v", name, err)
		}
		if cfg.Seek <= 0 || cfg.Transfer <= 0 || cfg.SeqTransfer <= 0 || cfg.QueueDepth <= 0 {
			t.Fatalf("profile %s is not fully specified: %+v", name, cfg)
		}
		if cfg.SeqTransfer > cfg.Seek+cfg.Transfer {
			t.Fatalf("profile %s prices sequential above random: %+v", name, cfg)
		}
	}
	if _, err := DeviceProfile("floppy"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestLatencyStoreSequentialPricing checks that adjacent-block access
// hits the sequential rate and is counted.
func TestLatencyStoreSequentialPricing(t *testing.T) {
	ls := NewLatencyStore(NewMemStore(4), LatencyConfig{
		Seek: 2 * time.Millisecond, Transfer: time.Millisecond,
		SeqTransfer: 10 * time.Microsecond, QueueDepth: 2,
	})
	d := NewDiskOn(ls)
	ids := make([]BlockID, 8)
	for i := range ids {
		ids[i] = d.Alloc()
	}
	for _, id := range ids {
		d.Write(id, []Entry{{Key: uint64(id)}})
	}
	seq := ls.SeqOps()
	if seq < int64(len(ids)-1) {
		t.Fatalf("sequential writes priced sequentially: SeqOps=%d, want >= %d", seq, len(ids)-1)
	}
	// A strided pass breaks adjacency: no new sequential ops.
	for i := len(ids) - 1; i >= 0; i -= 2 {
		d.Read(ids[i], nil)
	}
	if got := ls.SeqOps(); got != seq {
		t.Fatalf("strided reads counted as sequential: SeqOps=%d, want %d", got, seq)
	}
	if ls.Waited() == 0 || ls.DelayedOps() == 0 {
		t.Fatal("latency store injected no delay")
	}
}
