package iomodel

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// The slot arena's own suite: block IDs across chunks, allocator reuse,
// the packed header, pinned slices across chunk growth, aliasing writes,
// the page-exact footprint and the double-free guard.

// entryFor is the deterministic j-th entry of block i.
func entryFor(i, j int) Entry { return Entry{Key: uint64(i)<<20 | uint64(j), Val: uint64(i*j + 1)} }

// TestMemStoreChunks fills more than three chunks and reads every block
// back: contents, count and chain pointer.
func TestMemStoreChunks(t *testing.T) {
	const b = 5
	s := NewMemStore(b)
	n := chunkSlots*3 + 77
	ids := make([]BlockID, n)
	for i := range ids {
		ids[i] = s.Alloc()
		if ids[i] != BlockID(i) {
			t.Fatalf("fresh id %d, want %d", ids[i], i)
		}
		ents := make([]Entry, i%(b+1))
		for j := range ents {
			ents[j] = entryFor(i, j)
		}
		s.WriteBlock(ids[i], ents)
		s.SetNext(ids[i], BlockID(n-1-i))
	}
	if len(s.chunks) < 3 {
		t.Fatalf("%d blocks took %d chunks: the test does not cross chunks", n, len(s.chunks))
	}
	for i, id := range ids {
		got := s.ReadBlock(id, nil)
		if len(got) != i%(b+1) {
			t.Fatalf("block %d holds %d entries, want %d", id, len(got), i%(b+1))
		}
		for j, e := range got {
			if e != entryFor(i, j) {
				t.Fatalf("block %d entry %d = %v, want %v", id, j, e, entryFor(i, j))
			}
		}
		if next := s.Next(id); next != BlockID(n-1-i) {
			t.Fatalf("block %d next = %d, want %d", id, next, n-1-i)
		}
	}
	if s.NumBlocks() != n {
		t.Fatalf("NumBlocks = %d, want %d", s.NumBlocks(), n)
	}
}

// TestMemStoreLIFOReuse: freed blocks come back most recently freed
// first, empty, with a nil chain pointer, and count as live again.
func TestMemStoreLIFOReuse(t *testing.T) {
	s := NewMemStore(4)
	a, b, c := s.Alloc(), s.Alloc(), s.Alloc()
	for _, id := range []BlockID{a, b} {
		s.WriteBlock(id, []Entry{{1, 1}, {2, 2}, {3, 3}})
		s.SetNext(id, c)
	}
	s.Free(a)
	s.Free(b)
	if s.NumBlocks() != 1 {
		t.Fatalf("NumBlocks = %d after two frees, want 1", s.NumBlocks())
	}
	for _, want := range []BlockID{b, a} {
		id := s.Alloc()
		if id != want {
			t.Fatalf("Alloc = %d, want %d (LIFO)", id, want)
		}
		if got := s.PeekBlock(id); len(got) != 0 {
			t.Fatalf("reused block %d holds %v", id, got)
		}
		if next := s.Next(id); next != NilBlock {
			t.Fatalf("reused block %d next = %d, want NilBlock", id, next)
		}
	}
	if id := s.Alloc(); id != c+1 {
		t.Fatalf("Alloc past the free list = %d, want %d", id, c+1)
	}
}

// TestMemStoreHeaderRoundTrip: count and next share the header word, and
// neither disturbs the other, the pin count or the entries, for every
// count 0..b and next at both ends of its range.
func TestMemStoreHeaderRoundTrip(t *testing.T) {
	const b = 7
	s := NewMemStore(b)
	var largest BlockID
	for range chunkSlots + 1 {
		largest = s.Alloc()
	}
	ents := make([]Entry, b)
	for j := range ents {
		ents[j] = entryFor(9, j)
	}
	for _, id := range []BlockID{0, chunkSlots - 1, largest} {
		for count := 0; count <= b; count++ {
			for _, next := range []BlockID{NilBlock, 0, largest} {
				s.SetNext(id, next)
				s.WriteBlock(id, ents[:count])
				pinned := s.PinBlock(id)
				if s.Next(id) != next || len(pinned) != count {
					t.Fatalf("block %d: (count %d, next %d) read back as (%d, %d)",
						id, count, next, len(pinned), s.Next(id))
				}
				s.SetNext(id, next) // header writes under a pin keep the pin
				s.UnpinBlock(id)
				if got := s.PeekBlock(id); len(got) != count || (count > 0 && got[count-1] != ents[count-1]) {
					t.Fatalf("block %d after SetNext(%d): %v", id, next, got)
				}
				if s.PinnedBlocks() != 0 {
					t.Fatalf("PinnedBlocks = %d", s.PinnedBlocks())
				}
			}
		}
		s.ClearBlock(id)
		if len(s.PeekBlock(id)) != 0 || s.Next(id) != NilBlock {
			t.Fatalf("ClearBlock(%d) left %v, next %d", id, s.PeekBlock(id), s.Next(id))
		}
	}
}

// TestMemStorePinAcrossChunkGrowth: a slice from PinBlock stays the
// store's own memory, with the same entries, after Allocs that add
// chunks — the contract that keeps chunks from ever moving.
func TestMemStorePinAcrossChunkGrowth(t *testing.T) {
	s := NewMemStore(3)
	id := s.Alloc()
	s.WriteBlock(id, []Entry{{1, 10}, {2, 20}})
	pinned := s.PinBlock(id)
	chunks := len(s.chunks)
	for len(s.chunks) < chunks+2 {
		s.Alloc()
	}
	if pinned[0] != (Entry{1, 10}) || pinned[1] != (Entry{2, 20}) {
		t.Fatalf("pinned view after growth = %v", pinned)
	}
	if again := s.PeekBlock(id); &again[0] != &pinned[0] {
		t.Fatal("block moved while the store grew")
	}
	s.UnpinBlock(id)
}

// TestMemStoreWriteAliasesPeek: WriteBlock of a slice of the block's
// own slot — the prefix Delete-style callers truncate to, and an
// overlapping shift — stores exactly that slice.
func TestMemStoreWriteAliasesPeek(t *testing.T) {
	s := NewMemStore(6)
	id := s.Alloc()
	s.Alloc() // a neighbour slot the write must not touch
	s.WriteBlock(id+1, []Entry{{99, 99}})
	full := []Entry{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}}
	s.WriteBlock(id, full)
	s.WriteBlock(id, s.PeekBlock(id)[:4])
	if got := s.PeekBlock(id); len(got) != 4 || got[3] != full[3] {
		t.Fatalf("prefix rewrite = %v", got)
	}
	s.WriteBlock(id, s.PeekBlock(id)[1:])
	if got := s.PeekBlock(id); len(got) != 3 || got[0] != full[1] || got[2] != full[3] {
		t.Fatalf("shifted rewrite = %v", got)
	}
	if got := s.PeekBlock(id + 1); len(got) != 1 || got[0] != (Entry{99, 99}) {
		t.Fatalf("neighbour = %v", got)
	}
}

// TestMemStoreFootprint pins the page rounding: once the blocks fill
// whole chunks and every slot is written, the slots cost (b+1)·16 bytes
// per block and at most 1 % more. A chunk whose size is not a whole
// number of pages would round up by most of a page each (the 64-slot
// chunks of an earlier design cost 9 pages for 8.1). Where the slots
// live in mappings (Linux), residentSlots measures their resident bytes
// instead of the heap, allows each advised region its last, part-filled
// huge page, and checks that the Go heap grew by the chunk table only.
func TestMemStoreFootprint(t *testing.T) {
	for _, b := range []int{8, 64, 100} {
		t.Run(fmt.Sprint("b=", b), func(t *testing.T) {
			const n = 16 * chunkSlots // 16 whole chunks
			full := make([]Entry, b)
			before := heapAlloc()
			s := NewMemStore(b)
			defer s.Close()
			for range n {
				s.WriteBlock(s.Alloc(), full)
			}
			grown := heapAlloc() - before
			slots, slack := residentSlots(t, s, grown)
			want := float64(n * (b + 1) * entryBytes)
			if float64(slots) > 1.01*want+float64(slack) {
				t.Fatalf("%d blocks of b=%d cost %d bytes, want <= 1.01 × %.0f + %d (%.2f×)",
					n, b, slots, want, slack, float64(slots)/want)
			}
			if float64(slots) < 0.95*want {
				t.Fatalf("%d blocks cost %d bytes, well below their slots (%.0f): the measurement is off", n, slots, want)
			}
		})
	}
}

// TestMemStoreAccessAfterClose: Close empties the store, so an access
// through a stale id panics on the id instead of reaching returned
// memory.
func TestMemStoreAccessAfterClose(t *testing.T) {
	s := NewMemStore(4)
	var id BlockID
	for range chunkSlots + 1 { // a chunk past the first
		id = s.Alloc()
	}
	s.WriteBlock(id, []Entry{{1, 1}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, access := range map[string]func(){
		"PeekBlock":  func() { s.PeekBlock(id) },
		"PinBlock":   func() { s.PinBlock(id) },
		"WriteBlock": func() { s.WriteBlock(0, nil) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "invalid block id") {
					t.Fatalf("%s after Close: panic %v, want the invalid block id", name, r)
				}
			}()
			access()
		}()
	}
	if s.NumBlocks() != 0 {
		t.Fatalf("NumBlocks after Close = %d", s.NumBlocks())
	}
}

// heapAlloc returns the live heap. The second GC collects what the
// first only finalized (an earlier test's closed files), so that it is
// not counted against the store.
func heapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestDoubleFreePanics: a second Free of a free block panics on both
// stores instead of listing the block twice — including a free list a
// durable store restored from a checkpoint.
func TestDoubleFreePanics(t *testing.T) {
	mustPanic := func(t *testing.T, s BlockStore, id BlockID) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("double free did not panic")
			}
			if !strings.Contains(fmt.Sprint(r), "double free") {
				t.Fatalf("panic = %v", r)
			}
		}()
		s.Free(id)
	}
	stores := map[string]BlockStore{"mem": NewMemStore(4), "file": tempStore(t, 4, 2)}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			a, b, c := s.Alloc(), s.Alloc(), s.Alloc()
			s.WriteBlock(a, []Entry{{1, 1}})
			s.Free(a)
			mustPanic(t, s, a)
			// Reads of the freed block fault it into the 2-frame pool and
			// out again; the free state must survive both.
			s.PeekBlock(a)
			s.PeekBlock(b)
			s.PeekBlock(c)
			mustPanic(t, s, a)
			if got := s.Alloc(); got != a {
				t.Fatalf("Alloc after the refused free = %d, want %d", got, a)
			}
			if got := s.Alloc(); got == a || got == b || got == c {
				t.Fatalf("block %d handed out twice", got)
			}
			s.Free(a) // reallocated, so free again
			mustPanic(t, s, a)
		})
	}
	t.Run("file-restored", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "free.blocks")
		s, err := OpenFileStore(path, 4, 4, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, b := s.Alloc(), s.Alloc()
		s.WriteBlock(b, []Entry{{2, 2}})
		s.Free(a)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		nslots, free, mapping := s.AllocState()
		s.Close()
		r, err := OpenFileStore(path, 4, 4, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.RestoreAllocState(nslots, free, mapping); err != nil {
			t.Fatal(err)
		}
		mustPanic(t, r, a)
		r.PeekBlock(a)
		mustPanic(t, r, a)
		r.Free(b)
		mustPanic(t, r, b)
	})
}

// memBenchDisk builds the store both mem benchmarks run on: 64 K blocks
// of b = 64 holding 48 entries each (a served table's fill), 68 MB of
// slots, so a random block is a cache miss as it is in a large table.
func memBenchDisk(b *testing.B) (*Disk, []BlockID) {
	const blocks = 64 << 10
	d := NewDisk(64)
	ids := make([]BlockID, blocks)
	entries := make([]Entry, 48)
	for i := range ids {
		ids[i] = d.Alloc()
		for j := range entries {
			entries[j] = Entry{Key: uint64(i*64 + j), Val: uint64(j)}
		}
		d.Write(ids[i], entries)
	}
	return d, ids
}

// BenchmarkMemStoreFind is a chain walk's step on the mem backend: a
// random block read pinned and scanned for one of its keys.
func BenchmarkMemStoreFind(b *testing.B) {
	d, ids := memBenchDisk(b)
	x := uint64(0x9e3779b97f4a7c15)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		x = xorshift(x)
		id := ids[x%uint64(len(ids))]
		key := uint64(int(id)*64) + x>>58%48
		for _, e := range d.ReadPinned(id) {
			if e.Key == key {
				memSink += e.Val
				break
			}
		}
		d.Unpin(id)
	}
}

// memSink keeps BenchmarkMemStoreFind's scan from being optimised away.
var memSink uint64

// BenchmarkMemStoreRMW is block.Update's step on the mem backend: a
// random block read pinned, scanned for one of its keys, and that one
// entry written back in place.
func BenchmarkMemStoreRMW(b *testing.B) {
	d, ids := memBenchDisk(b)
	x := uint64(0x9e3779b97f4a7c15)
	b.ReportAllocs()
	b.ResetTimer()
	for n := range b.N {
		x = xorshift(x)
		id := ids[x%uint64(len(ids))]
		key := uint64(int(id)*64) + x>>58%48
		for i, e := range d.ReadPinned(id) {
			if e.Key == key {
				d.WriteBackEntry(id, i, Entry{Key: key, Val: uint64(n)})
				break
			}
		}
		d.Unpin(id)
	}
}
