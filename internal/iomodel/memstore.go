package iomodel

import "fmt"

// MemStore is the default BlockStore: blocks held in main memory of the
// simulating process. It is the backend of the paper experiments — all
// storage is free and instantaneous, so the only costs are the I/O
// counters Disk accounts on top.
//
// A block is one slot of B()+1 entries, header beside the entries, so
// reaching a block touches one cache line before its first key compare:
//
//	slot[0].Key  entry count (low 32 bits) | next+1 (high 32 bits)
//	slot[0].Val  pin count (low 32 bits) | slotFree (bit 63)
//	slot[1:1+count]  the entries
//
// The +1 bias on next is FileStore's: an all-zero header is an empty
// block with a nil chain pointer, which is what a fresh slot already
// holds. Slots live in chunks that are never reallocated, because
// PinBlock promises that a pinned slice stays valid across later store
// operations, Alloc included; an arena grown by append would move it. A
// chunk holds chunkSlots slots, B()+1 whole 8 KiB pages whatever B() is,
// so the store holds (B()+1)·16 bytes per block plus its chunk table.
//
// On Linux the chunks live outside the Go heap, in anonymous mappings
// (memstore_linux.go): the first chunk in a small mapping of its own,
// every later one carved from 2 MiB-aligned regions advised for
// transparent huge pages. A large store's random block read then lands
// on a 2 MiB page rather than a 4 KiB one, and the arena does not count
// toward the GC's heap goal. Other platforms allocate chunks with make
// (memstore_other.go). Either way, a slice from PeekBlock or PinBlock is
// valid until Close: Close returns the chunks, and so does a store
// dropped without Close once it is collected, so a caller keeps the
// store reachable while it uses one.
type MemStore struct {
	b      int
	stride int // entries per slot: b+1
	n      int // slots handed out, including freed ones
	chunks [][]Entry
	free   []BlockID
	pinned int64 // outstanding pins; nothing is ever evicted, so pinning
	// only tracks balance (the same contract FileStore enforces for real,
	// kept here so bugs surface on the cheap backend too)
	arena arena // where chunks come from (per platform)
}

var _ BlockStore = (*MemStore)(nil)

// Slot geometry: chunk c holds the ids [c·chunkSlots, (c+1)·chunkSlots).
// chunkSlots·16 bytes is one 8 KiB page (two OS pages, one runtime page)
// per entry of the stride.
const (
	chunkSlots = 512
	chunkShift = 9
)

// Header bit layout (see MemStore).
const (
	countMask = 1<<32 - 1
	pinMask   = 1<<32 - 1
	slotFree  = 1 << 63
)

// NewMemStore returns an empty in-memory store with blocks of capacity b
// entries.
func NewMemStore(b int) *MemStore {
	if b < 1 {
		panic("iomodel: block size must be >= 1")
	}
	return &MemStore{b: b, stride: b + 1}
}

// B returns the block capacity in entries.
func (s *MemStore) B() int { return s.b }

// Alloc reserves a fresh empty block and returns its ID.
func (s *MemStore) Alloc() BlockID {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		s.slot(id)[0] = Entry{} // count 0, next nil, unpinned, live
		return id
	}
	if s.n&(chunkSlots-1) == 0 { // the first slot of a new chunk
		s.chunks = append(s.chunks, s.newChunk(chunkSlots*s.stride))
	}
	id := BlockID(s.n)
	s.n++
	return id
}

// Free releases a block back to the allocator. Freeing a pinned block
// is a caller bug (the pinned slice would alias recycled storage), and
// so is freeing a free one (two later Allocs would hand it out twice).
func (s *MemStore) Free(id BlockID) {
	h := &s.slot(id)[0]
	if h.Val&slotFree != 0 {
		panic(fmt.Sprintf("iomodel: double free of block %d", id))
	}
	if h.Val&pinMask > 0 {
		panic(fmt.Sprintf("iomodel: freeing pinned block %d", id))
	}
	*h = Entry{Val: slotFree}
	s.free = append(s.free, id)
}

// slot returns block id's slot: the header then B() entry places.
func (s *MemStore) slot(id BlockID) []Entry {
	if id < 0 || int(id) >= s.n {
		badID(id)
	}
	off := int(id&(chunkSlots-1)) * s.stride
	return s.chunks[id>>chunkShift][off : off+s.stride : off+s.stride]
}

func badID(id BlockID) { panic(fmt.Sprintf("iomodel: invalid block id %d", id)) }

// live returns the entries of a slot.
func live(slot []Entry) []Entry {
	return slot[1 : 1+slot[0].Key&countMask]
}

// ReadBlock appends the entries of block id to buf and returns it.
func (s *MemStore) ReadBlock(id BlockID, buf []Entry) []Entry {
	return append(buf, live(s.slot(id))...)
}

// WriteBlock replaces the contents of block id. entries may alias the
// block's own slot (a prefix of PeekBlock): copy moves overlapping
// ranges correctly.
func (s *MemStore) WriteBlock(id BlockID, entries []Entry) {
	sl := s.slot(id)
	n := copy(sl[1:], entries)
	sl[0].Key = sl[0].Key&^countMask | uint64(n)
}

// SetEntry overwrites entry i of block id in its slot.
func (s *MemStore) SetEntry(id BlockID, i int, e Entry) {
	live(s.slot(id))[i] = e
}

// ClearBlock empties block id and resets its next pointer.
func (s *MemStore) ClearBlock(id BlockID) {
	s.slot(id)[0].Key = 0
}

// PeekBlock returns the live contents of block id without copying.
func (s *MemStore) PeekBlock(id BlockID) []Entry {
	return live(s.slot(id))
}

// PinBlock returns the live contents of block id without copying. The
// in-memory store never evicts, so the pin only records balance.
func (s *MemStore) PinBlock(id BlockID) []Entry {
	sl := s.slot(id)
	sl[0].Val++
	s.pinned++
	return live(sl)
}

// UnpinBlock releases one pin of block id, panicking on underflow.
func (s *MemStore) UnpinBlock(id BlockID) {
	h := &s.slot(id)[0]
	if h.Val&pinMask == 0 {
		panic(fmt.Sprintf("iomodel: unpin of unpinned block %d", id))
	}
	h.Val--
	s.pinned--
}

// PinnedBlocks returns the number of outstanding pins, for balance
// assertions in tests.
func (s *MemStore) PinnedBlocks() int { return int(s.pinned) }

// Next returns the overflow-chain pointer of block id.
func (s *MemStore) Next(id BlockID) BlockID {
	return BlockID(int32(s.slot(id)[0].Key>>32)) - 1
}

// SetNext updates the overflow-chain pointer of block id.
func (s *MemStore) SetNext(id, next BlockID) {
	h := &s.slot(id)[0]
	h.Key = h.Key&countMask | uint64(uint32(next+1))<<32
}

// NumBlocks returns the number of allocated (live) blocks.
func (s *MemStore) NumBlocks() int { return s.n - len(s.free) }

// Sync is a no-op for the in-memory store.
func (s *MemStore) Sync() error { return nil }

// Close returns the store's chunks and empties it, so a later access
// panics on an invalid block id instead of reaching returned memory.
func (s *MemStore) Close() error {
	s.releaseChunks()
	s.chunks, s.free, s.n = nil, nil, 0
	return nil
}
