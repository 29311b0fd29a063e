package iomodel

import (
	"path/filepath"
	"strings"
	"testing"
)

// The buffer-pool invariant suite: pinned frames survive any cache
// pressure, pins balance, eviction is counted, and flush barriers
// coalesce adjacent slots into single writes without changing what is
// on disk.

func tempStore(t *testing.T, b, cacheBlocks int) *FileStore {
	t.Helper()
	s, err := NewTempFileStore(b, cacheBlocks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestPoolPinnedNeverEvicted pins one block, thrashes the pool far past
// capacity, and requires the pinned frame to stay resident — same
// backing memory, same contents — the whole time.
func TestPoolPinnedNeverEvicted(t *testing.T) {
	s := tempStore(t, 8, 4)
	ids := make([]BlockID, 64)
	for i := range ids {
		ids[i] = s.Alloc()
		s.WriteBlock(ids[i], []Entry{{Key: uint64(i), Val: uint64(i) * 10}})
	}
	target := ids[3]
	pinnedView := s.PinBlock(target)
	if len(pinnedView) != 1 || pinnedView[0].Key != 3 {
		t.Fatalf("pinned view = %+v", pinnedView)
	}
	if got := s.PinnedFrames(); got != 1 {
		t.Fatalf("PinnedFrames = %d, want 1", got)
	}
	// Thrash: every other block cycles through the 4-frame pool many
	// times over.
	for round := 0; round < 8; round++ {
		for _, id := range ids {
			if id == target {
				continue
			}
			s.ReadBlock(id, nil)
		}
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("thrash produced no evictions; test is vacuous")
	}
	// The pinned slice must still read the same frame memory.
	after := s.PinBlock(target)
	if &after[0] != &pinnedView[0] {
		t.Fatal("pinned frame was relocated under cache pressure")
	}
	if after[0].Key != 3 || after[0].Val != 30 {
		t.Fatalf("pinned contents corrupted: %+v", after[0])
	}
	s.UnpinBlock(target)
	s.UnpinBlock(target)
	if got := s.PinnedFrames(); got != 0 {
		t.Fatalf("PinnedFrames after unpin = %d, want 0", got)
	}
	// Unpinned, the frame is evictable again: thrash and verify the
	// pool survives (no panic) and contents still read back correctly.
	for _, id := range ids {
		buf := s.ReadBlock(id, nil)
		if len(buf) != 1 || buf[0].Key != uint64(id) {
			t.Fatalf("block %d = %+v", id, buf)
		}
	}
}

// TestPoolAllPinnedPanics: a fault with every frame pinned has no legal
// victim and must panic rather than evict a pinned frame.
func TestPoolAllPinnedPanics(t *testing.T) {
	s := tempStore(t, 8, 2)
	a, b, c := s.Alloc(), s.Alloc(), s.Alloc()
	s.WriteBlock(a, []Entry{{Key: 1}})
	s.WriteBlock(b, []Entry{{Key: 2}})
	s.PinBlock(a)
	s.PinBlock(b)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("fault with all frames pinned did not panic")
		}
		if !strings.Contains(r.(string), "pinned") {
			t.Fatalf("panic = %v", r)
		}
		s.UnpinBlock(a)
		s.UnpinBlock(b)
	}()
	s.ReadBlock(c, nil)
}

// TestPoolUnpinUnderflowPanics on both pool-backed and in-memory
// stores: pins must balance everywhere.
func TestPoolUnpinUnderflowPanics(t *testing.T) {
	check := func(name string, s BlockStore) {
		t.Run(name, func(t *testing.T) {
			id := s.Alloc()
			s.PinBlock(id)
			s.UnpinBlock(id)
			defer func() {
				if recover() == nil {
					t.Fatal("unbalanced unpin did not panic")
				}
			}()
			s.UnpinBlock(id)
		})
	}
	check("file", tempStore(t, 8, 4))
	check("mem", NewMemStore(8))
}

// TestMemStorePinBalance: the mem backend tracks the same balance
// gauge, so pin bugs surface on the cheap backend too.
func TestMemStorePinBalance(t *testing.T) {
	s := NewMemStore(8)
	a, b := s.Alloc(), s.Alloc()
	s.WriteBlock(a, []Entry{{Key: 9, Val: 90}})
	va := s.PinBlock(a)
	s.PinBlock(b)
	s.PinBlock(a) // nested
	if got := s.PinnedBlocks(); got != 3 {
		t.Fatalf("PinnedBlocks = %d, want 3", got)
	}
	if va[0].Val != 90 {
		t.Fatalf("pinned view = %+v", va)
	}
	s.UnpinBlock(a)
	s.UnpinBlock(a)
	s.UnpinBlock(b)
	if got := s.PinnedBlocks(); got != 0 {
		t.Fatalf("PinnedBlocks = %d, want 0", got)
	}
}

// TestCoalescedFlush writes a batch of blocks and checks a Sync barrier
// issues one large pwrite per run of adjacent slots — not one syscall
// per block — and that a reopened durable store reads every block back.
func TestCoalescedFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coalesce.blocks")
	s, err := OpenFileStore(path, 8, 64, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	const nBlocks = 32
	ids := make([]BlockID, nBlocks)
	for i := range ids {
		ids[i] = s.Alloc()
		s.WriteBlock(ids[i], []Entry{{Key: uint64(i), Val: uint64(i) ^ 0xabc}})
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FlushedFrames != nBlocks {
		t.Fatalf("FlushedFrames = %d, want %d", st.FlushedFrames, nBlocks)
	}
	// Fresh durable slots are allocated sequentially, so all 32 dirty
	// frames land in one adjacent run → one pwrite.
	if st.FlushRuns != 1 {
		t.Fatalf("FlushRuns = %d, want 1 (adjacent slots must coalesce)", st.FlushRuns)
	}
	if st.WriteSyscalls != 1 {
		t.Fatalf("WriteSyscalls = %d, want 1", st.WriteSyscalls)
	}
	if st.Fsyncs != 1 {
		t.Fatalf("Fsyncs = %d, want 1", st.Fsyncs)
	}

	// Rewrite a sparse subset: non-adjacent slots may not be merged
	// into one run, adjacent ones must be.
	for _, i := range []int{4, 5, 6, 20, 21, 30} {
		s.WriteBlock(ids[i], []Entry{{Key: uint64(i), Val: 7}})
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st2 := s.Stats()
	if got := st2.FlushedFrames - st.FlushedFrames; got != 6 {
		t.Fatalf("second flush frames = %d, want 6", got)
	}
	runs := st2.FlushRuns - st.FlushRuns
	if runs < 2 || runs > 3 {
		// COW reassigns slots, so exact adjacency depends on the free
		// list; 6 frames must still need far fewer writes than 6.
		t.Fatalf("second flush runs = %d, want 2..3", runs)
	}

	// Durability check across reopen: state restore + every block read.
	nslots, free, mapping := s.AllocState()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(path, 8, 4, nil, 0) // tiny pool: force faults
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.RestoreAllocState(nslots, free, mapping); err != nil {
		t.Fatal(err)
	}
	rewritten := map[int]bool{4: true, 5: true, 6: true, 20: true, 21: true, 30: true}
	for i, id := range ids {
		buf := s2.ReadBlock(id, nil)
		want := uint64(i) ^ 0xabc
		if rewritten[i] {
			want = 7
		}
		if len(buf) != 1 || buf[0].Key != uint64(i) || buf[0].Val != want {
			t.Fatalf("block %d after reopen = %+v, want key %d val %d", i, buf, i, want)
		}
	}
}

// TestPoolEvictionWritebackStats: dirty evictions are counted and write
// their frame back, so nothing is lost under pressure.
func TestPoolEvictionWritebackStats(t *testing.T) {
	s := tempStore(t, 8, 4)
	const n = 40
	ids := make([]BlockID, n)
	for i := range ids {
		ids[i] = s.Alloc()
		s.WriteBlock(ids[i], []Entry{{Key: uint64(i), Val: uint64(i)}})
	}
	st := s.Stats()
	if st.Evictions == 0 || st.DirtyWritebacks == 0 {
		t.Fatalf("stats = %+v: writing %d blocks through a 4-frame pool must evict dirty frames", st, n)
	}
	if st.DirtyWritebacks > st.Evictions {
		t.Fatalf("DirtyWritebacks %d > Evictions %d", st.DirtyWritebacks, st.Evictions)
	}
	for i, id := range ids {
		buf := s.ReadBlock(id, nil)
		if len(buf) != 1 || buf[0].Val != uint64(i) {
			t.Fatalf("block %d lost under eviction: %+v", id, buf)
		}
	}
}
