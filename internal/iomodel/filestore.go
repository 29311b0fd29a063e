package iomodel

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"unsafe"
)

// FileStore is a BlockStore persisting fixed-size blocks to a real file,
// fronted by a write-back buffer pool of configurable capacity. It is
// the backend that turns the simulation into a storage engine: the same
// table code that produces the paper's I/O counts runs unchanged against
// it, and wall-clock and syscall costs become measurable.
//
// On-disk frame layout: a frame is an 8-byte header (entry count uint32,
// next pointer stored as next+1 uint32, both little-endian) followed by
// B() entries of 16 bytes each (key, val). The +1 bias makes all-zero
// bytes — EOF short reads and sparse holes left by out-of-order first
// writes — decode as an empty block with a nil chain pointer, which is
// exactly the state of an allocated-but-never-written block.
//
// # Placement: copy-on-write
//
// A logical→physical indirection table decouples the block IDs tables
// chain through from file placement, and every flush is copy-on-write:
// it moves a block to a fresh physical slot, so every slot referenced by
// the last completed checkpoint stays byte-identical on disk until the
// next checkpoint commits. A crash at any write — torn or not, one frame
// or a run — therefore leaves the previous checkpoint fully intact: the
// property the recovery protocol in package extbuf is built on. The slot
// a block leaves is free at once if this epoch wrote it (no checkpoint
// references it) and pending until the next checkpoint commits
// otherwise. OpenFileStore keeps the file it opens for that recovery;
// NewFileStore truncates it and never ends its epoch, so every slot a
// scratch store supersedes is free at once.
//
// Because placement is chosen at every flush, the frames of one flush
// take adjacent slots whatever their block IDs and leave in one pwrite.
// The extent allocator behind it keeps a free-slot bitmap and cuts runs
// from three places, in order: an aligned run of hotSlots slots that
// this epoch wrote and emptied again (its pages are dirty already, so
// the next checkpoint's fsync writes back nothing more for it); a wholly
// free aligned group of groupSlots slots; new groups at the file tail,
// only when no group anywhere is wholly free. A slot freed inside a
// partly used group waits for the rest of it, so runs stay long and the
// file reaches a steady extent: a few times the live blocks under random
// rewrites, the space this trade buys speed with (Stats: FileSlots,
// FreeSlots). The indirection table and the bitmap are volatile:
// AllocState and RestoreAllocState move the table in and out of
// checkpoints (the bitmap is re-derived from it), and EndEpoch frees the
// pending slots once a checkpoint commits.
//
// # Buffer pool
//
// The pool is a preallocated arena of cacheCap frames, and a frame is
// its slot image: slotBytes of the arena laid out exactly as the slot is
// on disk, with the frame's entries a typed view over the bytes past
// the header. Faulting a block in recycles a frame from the free list
// and preads the slot straight into it; writing a frame back seals the
// image (stamps the header, zeroes everything past the live entries)
// and pwrites those same bytes. Nothing is decoded or encoded and
// nothing is allocated: a miss is one transfer into the frame, a dirty
// eviction one transfer out of it. A cache hit costs no syscall. Eviction
// is CLOCK (second chance): each access sets the frame's reference bit,
// and the sweep hand clears bits until it finds a cold frame, writing it
// back first if dirty — no per-access list maintenance, unlike an LRU.
// A dirty victim leaves in an eviction batch: with it go the unpinned
// dirty frames among the batchWindow the hand reaches next (at most
// maxBatchFrames), the frames the following evictions would write back
// one at a time. The batch takes adjacent fresh slots and one pwrite;
// only the victim is recycled, and the others stay resident and clean,
// so the hit rate and the model's counters do not move.
// Frames can be pinned (PinBlock/UnpinBlock, reference counted): a
// pinned frame is never evicted, so callers may hold its entries across
// further store operations without a copy. Whole-block writes populate
// a frame without reading the old contents.
//
// Dirty frames flushed at a Sync barrier are written the same way —
// runs of adjacent fresh slots in single large pwrites bounded by
// maxRunBytes — so a checkpoint costs a handful of syscalls instead of
// one per block. Stats exposes the syscall, pool and coalescing counters
// so experiments can report real costs next to the model's counters.
//
// Write errors are sticky: the first failed pwrite (real, or injected
// by a Crasher) marks the store failed, further evictions quietly drop
// their frames — the bytes are lost exactly as in a crash — and Sync
// and Close report the failure instead of panicking, so a durable
// table's Flush barrier surfaces it to the caller as an un-acknowledged
// write.
//
// Every transfer is one synchronous pread or pwrite through the kernel
// page cache, issued on the caller's goroutine: there a pwrite is a
// memcpy of one slot, and the page cache is already the write-behind
// buffer (DESIGN.md §1d).
//
// # Slot stride
//
// Slots are packed: slotBytes is frameBytes. The one exception is a
// table created under the O_DIRECT tier that PR 25 deleted, whose
// superblock recorded its filesystem's sector size: OpenFileStore takes
// that value and pads every slot to a multiple of it for the table's
// life. The padding is written as zeros and never read as entries.
type FileStore struct {
	f          BlockFile
	b          int
	frameBytes int64 // header + B() entries
	slotBytes  int64 // on-disk stride: frameBytes, or sector-padded for a legacy table
	nslots     int   // allocated slots, including freed ones
	free       []BlockID
	cacheCap   int

	// Buffer pool: frames is the pool, arena the slot images behind it
	// (cacheCap × slotBytes), resident the index from block ID to frame
	// (block IDs are dense, so it is a slice grown with the allocator:
	// the frame index, or -1 for a block not in the pool), freeFrames the
	// recycle list, hand the CLOCK sweep position.
	frames     []frame
	arena      []byte
	resident   []int32
	freeFrames []int32
	hand       int
	pinned     int // frames with pins > 0 (gauge)

	// Most-recently-used memo: block accesses cluster heavily on the
	// block just touched (read → write-back → header), so remembering
	// one (id, frame) pair skips the resident index on the dominant path.
	// Self-invalidating: recycling sets the frame's id to NilBlock, so
	// a stale memo simply misses into the index.
	lastID  BlockID
	lastIdx int32

	runBuf     []byte   // coalesced flush buffer, grown on demand
	dirtyList  []*frame // scratch list reused by FlushDirty
	batchList  []*frame // scratch list reused by the eviction batch
	stats      FileStats
	removeName string // non-empty: unlink this path on Close (temp stores)
	closed     bool
	failed     error // sticky first write failure
	swab       bool  // big-endian host: entry words are byte-swapped around every transfer
	// wrote tracks whether any bytes reached the file since the last
	// fsync, so a barrier with nothing new to harden elides its fsync
	// instead of queueing a no-op behind the device.
	wrote bool

	// Scan-resistant eviction (2Q/CLOCK-Pro-lite): a bounded ghost list
	// remembers recently evicted block IDs; a block faulting back in
	// from the ghost list enters the pool "hot" and survives one extra
	// CLOCK lap (demotion before eviction). First-touch blocks — a
	// sequential scan's entire footprint — enter cold and are evicted
	// after a single lap, so a scan cannot displace the re-referenced
	// hot set. The list is a generation stamp per block ID, grown with
	// the allocator like resident: ghostAt[id] is the value ghostSeq had
	// when id was last recorded (0: not on the list), and a block stays
	// on the list while fewer than cacheCap others have been recorded
	// since — one cache-capacity's worth of eviction history.
	ghostAt  []uint64
	ghostSeq uint64

	// Placement state. A slot whose slotEpoch is the current epoch was
	// first written in it: no checkpoint references it, so it is free
	// again as soon as its block moves on.
	mapping     []int64  // logical id -> physical slot; -1 = never written
	pendingFree []int64  // slots superseded this epoch; free after checkpoint
	slotEpoch   []uint32 // per physical slot: the epoch that last assigned it (0: none)
	epoch       uint32   // current epoch, never 0

	// freeBits has one bit per block ID, set while the ID is on free, so
	// a second Free panics whatever reads of the freed ID did meanwhile.
	// It sits last so the pool's hot fields keep their offsets.
	freeBits []uint64

	// The extent allocator. used has one bit per physical slot, set
	// while a block maps to it or it is pending. Runs are cut from the
	// carve region [carve, carveEnd): a hot run the epoch has emptied,
	// else wholly free aligned groups of groupSlots slots, else new
	// groups at the file tail when no group anywhere is wholly free. A
	// slot freed inside a partly used unit waits for the rest of it,
	// which keeps every run long and the extent steady.
	used            []uint64
	physHigh        int64   // slots the allocator spans (a whole number of groups)
	freeSlots       int64   // clear bits below physHigh
	freeGroups      int64   // groups below physHigh with every bit clear
	groupScan       int64   // the group the search for a free one starts at
	hotRuns         []int64 // first slots of hot runs freed this epoch, latest last; some may be taken since; at most physHigh/hotSlots
	carve, carveEnd int64
}

var _ BlockStore = (*FileStore)(nil)

// frame is one pool slot. img is the block's slot image — header, B()
// entries, a legacy table's padding — and entries the live prefix of
// its entry area viewed in place. img's header bytes are only
// meaningful on the way in (load) and out (seal); in between,
// len(entries) and next are the truth.
type frame struct {
	id      BlockID
	img     []byte  // arena-backed, slotBytes long
	entries []Entry // view over img past the header; capacity is exactly B()
	next    BlockID
	dirty   bool
	ref     bool  // CLOCK reference bit
	hot     bool  // survives one extra CLOCK lap (demotion before eviction)
	wasHot  bool  // ghost-promoted this residency: re-references restore hot
	pins    int32 // > 0: never evict
}

// FileStats counts the real storage costs incurred by a FileStore.
type FileStats struct {
	ReadSyscalls  int64 // preads issued (cache misses that touched the file)
	WriteSyscalls int64 // pwrites issued (evictions and coalesced flush runs)
	CacheHits     int64 // block accesses served from the buffer pool
	CacheMisses   int64 // block accesses that had to fault a frame in
	BytesRead     int64
	BytesWritten  int64

	// Buffer-pool and coalescing counters.
	Evictions       int64 // frames recycled to make room for a faulting block
	DirtyWritebacks int64 // evicted frames that had to be written back first
	// FlushedFrames counts every dirty frame written back — at flush
	// barriers and in eviction batches alike — and FlushRuns the pwrites
	// they were batched into, so FlushedFrames/FlushRuns is the realized
	// coalescing factor.
	FlushedFrames int64
	FlushRuns     int64
	Fsyncs        int64 // fsyncs of the block file
	// FsyncsElided counts barrier fsyncs skipped because nothing had
	// been written since the previous fsync — the one-fsync-per-fd-per-
	// barrier dedupe.
	FsyncsElided int64
	// GhostHits counts faults of blocks found on the eviction ghost
	// list: re-references the scan-resistant policy promoted to hot.
	GhostHits int64

	// Gauges of the block file's space. FileSlots is the extent the
	// allocator spans, in slots, and FreeSlots how many of them hold no
	// block and wait for none: the room copy-on-write placement keeps so
	// that every write-back finds adjacent slots.
	FileSlots int64
	FreeSlots int64
}

// DefaultCacheBlocks is the page-cache capacity used when none is
// given. At the default 64-item block size a frame is about 1 KiB, so
// the default cache is about half a MiB per store — small enough that
// every shard of a sharded engine affords its own, large enough that
// a shard-sized working set at default parameters stays resident and
// the syscall rate reflects the workload rather than cache thrash.
const DefaultCacheBlocks = 512

const blockHeaderBytes = 8
const entryBytes = 16

// The entry view over a slot image relies on Entry being the on-disk
// entry: two 8-byte words, key then value, no padding.
var _ [entryBytes]byte = [unsafe.Sizeof(Entry{})]byte{}

// hostBigEndian: the file format is little-endian, so only there do an
// image's entry words differ from the Entry values viewed over them.
var hostBigEndian = binary.NativeEndian.Uint16([]byte{1, 0}) != 1

// maxRunBytes bounds one coalesced flush pwrite (and therefore the
// reusable run buffer): runs of adjacent dirty slots longer than this
// split into multiple syscalls.
const maxRunBytes = 1 << 20

// alignUp rounds n up to the next multiple of align (a power of two).
func alignUp(n, align int64) int64 {
	return (n + align - 1) &^ (align - 1)
}

// NewFileStore creates (or truncates) the file at path and returns a
// scratch store with blocks of capacity b entries and a page cache of
// cacheBlocks frames (DefaultCacheBlocks if cacheBlocks <= 0). It is the
// store OpenFileStore opens, on an empty file and with an epoch that
// never ends, so every slot it supersedes is free at once.
func NewFileStore(path string, b, cacheBlocks int) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("iomodel: open block store: %w", err)
	}
	return newFileStoreOn(f, b, cacheBlocks, 0), nil
}

// OpenFileStore opens (creating if absent, never truncating) the file
// at path as a durable store, ready for checkpoint/recovery
// (RestoreAllocState, EndEpoch).
// A non-nil crasher interposes fault injection on every file write.
// sector is the slot alignment the table's superblock records: 0 packs
// the slots, anything else (a power of two) pads them to a multiple of
// it, as a table written under the deleted O_DIRECT tier is laid out.
func OpenFileStore(path string, b, cacheBlocks int, crasher *Crasher, sector int) (*FileStore, error) {
	if sector < 0 || sector&(sector-1) != 0 {
		return nil, fmt.Errorf("iomodel: slot alignment %d is not a power of two", sector)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("iomodel: open block store: %w", err)
	}
	var bf BlockFile = f
	if crasher != nil {
		bf = crasher.WrapFile(bf)
	}
	return newFileStoreOn(bf, b, cacheBlocks, int64(sector)), nil
}

func newFileStoreOn(f BlockFile, b, cacheBlocks int, sector int64) *FileStore {
	if b < 1 {
		panic("iomodel: block size must be >= 1")
	}
	if cacheBlocks <= 0 {
		cacheBlocks = DefaultCacheBlocks
	}
	fb := int64(blockHeaderBytes + b*entryBytes)
	slot := fb
	if sector > 0 {
		slot = alignUp(fb, sector)
	}
	s := &FileStore{
		f:          f,
		b:          b,
		frameBytes: fb,
		slotBytes:  slot,
		cacheCap:   cacheBlocks,
		frames:     make([]frame, cacheBlocks),
		arena:      make([]byte, cacheBlocks*int(slot)),
		freeFrames: make([]int32, cacheBlocks),
		swab:       hostBigEndian,
		epoch:      1,
	}
	s.lastID = NilBlock
	for i := range s.frames {
		fr := &s.frames[i]
		fr.id = NilBlock
		fr.img = s.arena[i*int(slot) : (i+1)*int(slot) : (i+1)*int(slot)]
		fr.entries = unsafe.Slice((*Entry)(unsafe.Pointer(&fr.img[blockHeaderBytes])), b)[:0]
		// Hand frames out low-index-first: the free list is popped from
		// the back.
		s.freeFrames[cacheBlocks-1-i] = int32(i)
	}
	return s
}

// NewTempFileStore is NewFileStore on a fresh temporary file that is
// removed when the store is closed.
func NewTempFileStore(b, cacheBlocks int) (*FileStore, error) {
	f, err := os.CreateTemp("", "extbuf-*.blocks")
	if err != nil {
		return nil, fmt.Errorf("iomodel: temp block store: %w", err)
	}
	name := f.Name()
	f.Close()
	s, err := NewFileStore(name, b, cacheBlocks)
	if err != nil {
		os.Remove(name)
		return nil, err
	}
	s.removeName = name
	return s, nil
}

// Path returns the backing file's name.
func (s *FileStore) Path() string { return s.f.Name() }

// Stats returns a snapshot of the real-cost counters and space gauges.
func (s *FileStore) Stats() FileStats {
	st := s.stats
	st.FileSlots, st.FreeSlots = s.physHigh, s.freeSlots
	return st
}

// B returns the block capacity in entries.
func (s *FileStore) B() int { return s.b }

// Failed returns the sticky first write failure, or nil. A failed store
// has lost writes; its in-memory cache no longer reflects the file.
func (s *FileStore) Failed() error { return s.failed }

// PinnedFrames returns the number of frames currently pinned — zero
// whenever every PinBlock has been balanced by its UnpinBlock.
func (s *FileStore) PinnedFrames() int { return s.pinned }

// Alloc reserves a fresh empty block and returns its ID.
func (s *FileStore) Alloc() BlockID {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		s.freeBits[id/64] &^= 1 << (id % 64)
		// The file may still hold the freed block's stale bytes; install
		// an empty dirty frame so readers see a fresh block.
		fr := s.frameForWrite(id, false)
		fr.entries = fr.entries[:0]
		fr.next = NilBlock
		return id
	}
	id := BlockID(s.nslots)
	s.nslots++
	if id%64 == 0 {
		s.freeBits = append(s.freeBits, 0)
	}
	s.resident = append(s.resident, -1)
	s.ghostAt = append(s.ghostAt, 0)
	s.mapping = append(s.mapping, -1)
	// Nothing is written yet: a read of an unmapped block decodes as an
	// empty block, so allocation alone costs no syscall.
	return id
}

// Free releases a block back to the allocator, discarding any cached
// (even dirty) frame: freed contents need never reach the file. The
// block's physical slot is retired — after the next checkpoint if the
// last checkpoint references it, immediately otherwise. Freeing a
// pinned block panics (the pinned slice would alias a recycled frame),
// and so does freeing a free one (two later Allocs would hand it out
// twice).
func (s *FileStore) Free(id BlockID) {
	s.checkID(id)
	if s.freeBits[id/64]&(1<<(id%64)) != 0 {
		panic(fmt.Sprintf("iomodel: double free of block %d", id))
	}
	if idx := s.resident[id]; idx >= 0 {
		fr := &s.frames[idx]
		if fr.pins > 0 {
			panic(fmt.Sprintf("iomodel: freeing pinned block %d", id))
		}
		s.recycle(idx)
	}
	s.retirePhys(s.mapping[id])
	s.mapping[id] = -1
	// Forget eviction history: the ID's next use is a fresh block, not
	// a re-reference.
	s.ghostAt[id] = 0
	s.freeBits[id/64] |= 1 << (id % 64)
	s.free = append(s.free, id)
}

// recycle detaches frame idx from the pool and returns it to the free
// list.
func (s *FileStore) recycle(idx int32) {
	fr := &s.frames[idx]
	s.resident[fr.id] = -1
	fr.id = NilBlock
	fr.dirty = false
	fr.ref = false
	fr.hot = false
	fr.wasHot = false
	s.freeFrames = append(s.freeFrames, idx)
}

// retirePhys returns physical slot phys to the allocator: free at once
// if it was first written this epoch (no checkpoint references it),
// pending until the next checkpoint commits otherwise.
func (s *FileStore) retirePhys(phys int64) {
	if phys < 0 {
		return
	}
	if s.slotEpoch[phys] == s.epoch {
		s.freeSlot(phys)
	} else {
		s.pendingFree = append(s.pendingFree, phys)
	}
}

// The allocator's two aligned units; both divide 64, the bits of one
// bitmap word. A group is the unit it reuses only when wholly free, and
// so the shortest run a reused group yields. A hot run is the smaller
// unit it reuses first: one that a slot written this epoch has just left
// wholly free. Its pages are dirty already, so a run written there adds
// nothing to the writeback the next checkpoint's fsync waits for.
const (
	groupSlots = 16
	hotSlots   = 8
)

// runFree reports whether the n aligned slots from p are all free.
func (s *FileStore) runFree(p, n int64) bool {
	return s.used[p/64]>>(p%64)&(1<<n-1) == 0
}

// markUsed claims the free slots [p, p+n).
func (s *FileStore) markUsed(p, n int64) {
	for q := p; q < p+n; q++ {
		if (q == p || q%groupSlots == 0) && s.runFree(q&^(groupSlots-1), groupSlots) {
			s.freeGroups--
		}
		s.used[q/64] |= 1 << (q % 64)
	}
	s.freeSlots -= n
}

// freeSlot releases slot p.
func (s *FileStore) freeSlot(p int64) {
	s.used[p/64] &^= 1 << (p % 64)
	s.freeSlots++
	if s.runFree(p&^(groupSlots-1), groupSlots) {
		s.freeGroups++
	}
	if h := p &^ (hotSlots - 1); s.slotEpoch[p] == s.epoch && s.runFree(h, hotSlots) {
		s.hotRuns = append(s.hotRuns, h)
		if int64(len(s.hotRuns)) > s.physHigh/hotSlots {
			s.compactHotRuns()
		}
	}
}

// compactHotRuns drops the entries refill would skip, so placement does
// not move and the list keeps at most one entry per run however long an
// epoch lasts. Within an epoch a run is listed each time it becomes
// wholly free, and refill pops the latest entry first and uses its run
// up before it pops again. So an entry whose run is taken now is skipped
// unless the run is listed again, which makes it an older entry; and an
// older entry is skipped, because the run has been taken since its
// latest listing (by that entry's pop if by nothing else) and would have
// been listed again had it come free. The walk from the latest entry
// keeps the first entry of each free run and marks the run's first slot
// used while it runs, so that run's older entries fail runFree.
func (s *FileStore) compactHotRuns() {
	kept := len(s.hotRuns)
	for i := kept - 1; i >= 0; i-- {
		if h := s.hotRuns[i]; s.runFree(h, hotSlots) {
			s.used[h/64] |= 1 << (h % 64)
			kept--
			s.hotRuns[kept] = h
		}
	}
	s.hotRuns = append(s.hotRuns[:0], s.hotRuns[kept:]...)
	for _, h := range s.hotRuns {
		s.used[h/64] &^= 1 << (h % 64)
	}
}

// grow extends the allocator's span by n free slots (whole groups).
func (s *FileStore) grow(n int64) {
	s.physHigh += n
	for int64(len(s.used))*64 < s.physHigh {
		s.used = append(s.used, 0)
	}
	s.slotEpoch = append(s.slotEpoch, make([]uint32, n)...)
	s.freeSlots += n
	s.freeGroups += n / groupSlots
}

// allocRun claims a run of between 1 and want adjacent free slots and
// returns its first slot and length.
func (s *FileStore) allocRun(want int) (int64, int) {
	if s.carve == s.carveEnd {
		s.refill(int64(want))
	}
	p, n := s.carve, min(int64(want), s.carveEnd-s.carve)
	s.carve += n
	s.markUsed(p, n)
	return p, int(n)
}

// refill points the carve region at free slots for a run of want: the
// last hot run freed that is still free; else the next wholly free
// group, searching round the file from where the last search stopped;
// else enough new groups at the tail. A hot run or group is extended
// over the free units after it while the region is shorter than want.
func (s *FileStore) refill(want int64) {
	for n := len(s.hotRuns); n > 0; n = len(s.hotRuns) {
		h := s.hotRuns[n-1]
		s.hotRuns = s.hotRuns[:n-1]
		if s.runFree(h, hotSlots) {
			s.carve, s.carveEnd = h, s.extend(h+hotSlots, hotSlots, want-hotSlots)
			return
		}
	}
	if s.freeGroups == 0 {
		n := alignUp(want, groupSlots)
		s.carve, s.carveEnd = s.physHigh, s.physHigh+n
		s.grow(n)
		return
	}
	groups := s.physHigh / groupSlots
	for !s.runFree(s.groupScan*groupSlots, groupSlots) {
		if s.groupScan++; s.groupScan == groups {
			s.groupScan = 0
		}
	}
	s.carve = s.groupScan * groupSlots
	s.carveEnd = s.extend(s.carve+groupSlots, groupSlots, want-groupSlots)
	s.groupScan = s.carveEnd / groupSlots % groups
}

// extend returns the end of the free aligned units of size unit that
// follow end, taken while fewer than more slots have been added.
func (s *FileStore) extend(end, unit, more int64) int64 {
	for stop := end + more; end < stop && end < s.physHigh && s.runFree(end, unit); {
		end += unit
	}
	return end
}

// ReadBlock appends the entries of block id to buf and returns it.
func (s *FileStore) ReadBlock(id BlockID, buf []Entry) []Entry {
	return append(buf, s.frameFor(id).entries...)
}

// WriteBlock replaces the contents of block id. The header's next
// pointer survives the overwrite, matching MemStore: only SetNext,
// ClearBlock and allocator reuse may change it.
func (s *FileStore) WriteBlock(id BlockID, entries []Entry) {
	fr := s.frameForWrite(id, true)
	fr.entries = fr.entries[:len(entries)] // within the image: at most B()
	copy(fr.entries, entries)
}

// SetEntry overwrites entry i of block id in its frame and marks the
// frame dirty: the pool access WriteBlock makes, without the copy.
func (s *FileStore) SetEntry(id BlockID, i int, e Entry) {
	fr := s.frameFor(id)
	fr.entries[i] = e
	fr.dirty = true
}

// ClearBlock empties block id and resets its next pointer.
func (s *FileStore) ClearBlock(id BlockID) {
	fr := s.frameForWrite(id, false)
	fr.entries = fr.entries[:0]
	fr.next = NilBlock
}

// PeekBlock returns the cached contents of block id without copying. The
// slice is only valid until the next store operation.
func (s *FileStore) PeekBlock(id BlockID) []Entry { return s.frameFor(id).entries }

// PinBlock faults block id in (a read: hit/miss and pread accounting
// apply) and returns its entries without copying, pinning the frame
// against eviction until the matching UnpinBlock.
func (s *FileStore) PinBlock(id BlockID) []Entry {
	fr := s.frameFor(id)
	if fr.pins == 0 {
		s.pinned++
	}
	fr.pins++
	return fr.entries
}

// UnpinBlock releases one pin of block id, panicking on underflow. The
// frame is necessarily still resident — that is what the pin
// guaranteed.
func (s *FileStore) UnpinBlock(id BlockID) {
	s.checkID(id)
	idx := s.resident[id]
	if idx < 0 || s.frames[idx].pins == 0 {
		panic(fmt.Sprintf("iomodel: unpin of unpinned block %d", id))
	}
	fr := &s.frames[idx]
	fr.pins--
	if fr.pins == 0 {
		s.pinned--
	}
}

// Next returns the overflow-chain pointer of block id. Headers live with
// their block, so an uncached header walk faults the block in — a real
// read the simulated store performs for free.
func (s *FileStore) Next(id BlockID) BlockID { return s.frameFor(id).next }

// SetNext updates the overflow-chain pointer of block id.
func (s *FileStore) SetNext(id, next BlockID) {
	fr := s.frameFor(id)
	fr.next = next
	fr.dirty = true
}

// NumBlocks returns the number of allocated (live) blocks.
func (s *FileStore) NumBlocks() int { return s.nslots - len(s.free) }

// FlushDirty writes every dirty frame to the file without fsyncing, in
// runs of adjacent slots of one pwrite each (writeRuns). A failed store
// reports its sticky failure without issuing further writes.
func (s *FileStore) FlushDirty() error {
	if s.failed != nil {
		return s.failed
	}
	dirty := s.dirtyList[:0]
	for i := range s.frames {
		fr := &s.frames[i]
		if fr.id != NilBlock && fr.dirty {
			dirty = append(dirty, fr)
		}
	}
	err := s.writeRuns(dirty)
	s.dirtyList = dirty[:0] // retain backing array for reuse
	return err
}

// writeRuns flushes the given dirty frames in block-ID order, which is
// deterministic, so the crash-injection harness can replay a failure.
// Every frame moves to a fresh slot: the frames take runs of adjacent
// slots from the allocator, one pwrite per run.
func (s *FileStore) writeRuns(dirty []*frame) error {
	slices.SortFunc(dirty, func(a, b *frame) int { return cmp.Compare(a.id, b.id) })
	maxRun := max(1, int(maxRunBytes/s.slotBytes))
	for start := 0; start < len(dirty); {
		n := s.place(dirty[start:min(len(dirty), start+maxRun)])
		if err := s.flushRun(dirty[start : start+n]); err != nil {
			return err
		}
		start += n
	}
	return nil
}

// place moves a prefix of frames to a run of adjacent fresh slots and
// returns its length. Each block's old slot is retired (retirePhys), so
// the slots the last checkpoint references are never written before
// the next one commits.
func (s *FileStore) place(frames []*frame) int {
	p, n := s.allocRun(len(frames))
	for i, fr := range frames[:n] {
		s.retirePhys(s.mapping[fr.id])
		s.mapping[fr.id] = p + int64(i)
		s.slotEpoch[p+int64(i)] = s.epoch
	}
	return n
}

// flushRun writes a run of frames occupying adjacent physical slots
// with one pwrite and clears their dirty bits. A run of one — an
// eviction batch that found no other dirty frame — is written from the
// frame's own image; longer runs are gathered into runBuf first.
func (s *FileStore) flushRun(run []*frame) error {
	buf := run[0].img
	if len(run) == 1 && !s.swab {
		s.seal(run[0])
	} else {
		n := len(run) * int(s.slotBytes)
		if cap(s.runBuf) < n {
			s.runBuf = make([]byte, n)
		}
		buf = s.runBuf[:n]
		s.sealInto(buf, run)
	}
	wn, err := s.f.WriteAt(buf, s.mapping[run[0].id]*s.slotBytes)
	s.stats.WriteSyscalls++
	s.stats.FlushRuns++
	s.stats.FlushedFrames += int64(len(run))
	s.stats.BytesWritten += int64(wn)
	s.wrote = true
	if err != nil {
		err = fmt.Errorf("iomodel: write blocks %d..%d: %w", run[0].id, run[len(run)-1].id, err)
		if s.failed == nil {
			s.failed = err
		}
		return err
	}
	for _, fr := range run {
		fr.dirty = false
	}
	return nil
}

// seal makes fr's image the block's on-disk bytes: the header is
// stamped from the frame and everything past the live entries — deleted
// entries, what an earlier occupant of the frame left, a legacy
// table's sector padding — is zeroed, so stale bytes never reach the
// file. The live entries are already in place.
func (s *FileStore) seal(fr *frame) {
	binary.LittleEndian.PutUint32(fr.img[0:4], uint32(len(fr.entries)))
	binary.LittleEndian.PutUint32(fr.img[4:8], uint32(int32(fr.next+1)))
	clear(fr.img[blockHeaderBytes+len(fr.entries)*entryBytes:])
}

// sealInto seals every frame of run and copies its image into
// consecutive slots of buf, in file byte order.
func (s *FileStore) sealInto(buf []byte, run []*frame) {
	for i, fr := range run {
		s.seal(fr)
		slot := buf[i*int(s.slotBytes) : (i+1)*int(s.slotBytes)]
		copy(slot, fr.img)
		if s.swab {
			swapWords(slot[blockHeaderBytes : blockHeaderBytes+len(fr.entries)*entryBytes])
		}
	}
}

// swapWords reverses the bytes of each 8-byte word of b: the
// conversion between the file's little-endian entry words and a
// big-endian host's, in either direction.
func swapWords(b []byte) {
	for ; len(b) >= 8; b = b[8:] {
		binary.BigEndian.PutUint64(b, binary.LittleEndian.Uint64(b))
	}
}

// Fsync makes previously written frames durable with one fsync of the
// block file. A barrier with nothing written since the last fsync
// elides the syscall — the one-fsync-per-fd-per-barrier dedupe — and
// counts the elision in FsyncsElided.
func (s *FileStore) Fsync() error {
	if s.failed != nil {
		return s.failed
	}
	if !s.wrote {
		s.stats.FsyncsElided++
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("iomodel: sync block store: %w", err)
	}
	s.stats.Fsyncs++
	s.wrote = false
	return nil
}

// Sync flushes every dirty frame (coalesced; see FlushDirty) and fsyncs
// the file.
func (s *FileStore) Sync() error {
	if err := s.FlushDirty(); err != nil {
		return err
	}
	return s.Fsync()
}

// AllocState snapshots the allocator and placement state for a
// checkpoint: logical slot count, logical free list, and the
// logical→physical mapping. Call after Sync so the mapping reflects
// every flushed frame.
func (s *FileStore) AllocState() (nslots int, free []BlockID, mapping []int64) {
	return s.nslots, append([]BlockID(nil), s.free...), append([]int64(nil), s.mapping...)
}

// RestoreAllocState installs a checkpoint's allocator and placement
// state into a freshly opened store: the slot bitmap is re-derived from
// the mapping, every slot it does not reference being free. The cache
// must be empty (recovery runs before any block access).
func (s *FileStore) RestoreAllocState(nslots int, free []BlockID, mapping []int64) error {
	if len(mapping) != nslots {
		return fmt.Errorf("iomodel: mapping covers %d slots, allocator has %d", len(mapping), nslots)
	}
	s.nslots = nslots
	s.free = append(s.free[:0], free...)
	s.mapping = append(s.mapping[:0], mapping...)
	s.resident = make([]int32, nslots)
	for i := range s.resident {
		s.resident[i] = -1
	}
	s.freeBits = make([]uint64, (nslots+63)/64)
	for _, id := range free {
		s.freeBits[id/64] |= 1 << (id % 64)
	}
	s.ghostAt = make([]uint64, nslots)
	high := int64(0)
	for _, p := range mapping {
		high = max(high, p+1)
	}
	s.used, s.slotEpoch, s.pendingFree, s.hotRuns = nil, nil, s.pendingFree[:0], s.hotRuns[:0]
	s.physHigh, s.freeSlots, s.freeGroups = 0, 0, 0
	s.groupScan, s.carve, s.carveEnd = 0, 0, 0
	s.grow(alignUp(high, groupSlots))
	for _, p := range mapping {
		if p >= 0 {
			s.markUsed(p, 1)
		}
	}
	s.epoch = 1
	return nil
}

// EndEpoch commits the copy-on-write epoch after a checkpoint has been
// made durable: physical slots superseded during the epoch become
// reusable, and subsequent flushes start a fresh epoch.
func (s *FileStore) EndEpoch() {
	for _, p := range s.pendingFree {
		s.freeSlot(p)
	}
	s.pendingFree = s.pendingFree[:0]
	s.hotRuns = s.hotRuns[:0] // the fsync just cleaned their pages
	s.epoch++
	if s.epoch == 0 { // wrapped: no stamp of an old epoch may match a new one
		clear(s.slotEpoch)
		s.epoch = 1
	}
}

// Close flushes and closes the backing file, removing it if the store
// was created by NewTempFileStore.
func (s *FileStore) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if s.removeName != "" {
		if rerr := os.Remove(s.removeName); err == nil {
			err = rerr
		}
	}
	return err
}

// frameFor returns the pool frame of block id, faulting it in from the
// file on a miss.
func (s *FileStore) frameFor(id BlockID) *frame {
	s.checkID(id)
	if id == s.lastID {
		if fr := &s.frames[s.lastIdx]; fr.id == id {
			s.stats.CacheHits++
			fr.ref = true
			fr.hot = fr.wasHot
			return fr
		}
	}
	if idx := s.resident[id]; idx >= 0 {
		fr := &s.frames[idx]
		s.stats.CacheHits++
		fr.ref = true
		fr.hot = fr.wasHot
		s.lastID, s.lastIdx = id, idx
		return fr
	}
	s.stats.CacheMisses++
	fr := s.install(id)
	s.load(fr)
	return fr
}

// frameForWrite returns a frame for a whole-block overwrite of id: on a
// miss the old entries are not read, since they are about to be
// replaced. With preserveNext the on-disk header is still faulted in
// (one 8-byte pread) so the overflow-chain pointer survives; callers
// that reset the header (ClearBlock, allocator reuse) skip even that.
// The frame is marked dirty.
func (s *FileStore) frameForWrite(id BlockID, preserveNext bool) *frame {
	s.checkID(id)
	if id == s.lastID {
		if fr := &s.frames[s.lastIdx]; fr.id == id {
			s.stats.CacheHits++
			fr.ref = true
			fr.hot = fr.wasHot
			fr.dirty = true
			return fr
		}
	}
	var fr *frame
	if idx := s.resident[id]; idx >= 0 {
		fr = &s.frames[idx]
		s.stats.CacheHits++
		fr.ref = true
		fr.hot = fr.wasHot
		s.lastID, s.lastIdx = id, idx
	} else {
		s.stats.CacheMisses++
		fr = s.install(id)
		if preserveNext {
			s.loadHeader(fr)
		}
	}
	fr.dirty = true
	return fr
}

// install obtains a frame for id — from the free list, or by evicting —
// and inserts it into the pool empty and referenced. Eviction of a
// dirty frame on a failed store drops the frame: the write is lost,
// exactly as in the crash the failure models, and the loss is reported
// by Sync/Close.
func (s *FileStore) install(id BlockID) *frame {
	var idx int32
	if n := len(s.freeFrames); n > 0 {
		idx = s.freeFrames[n-1]
		s.freeFrames = s.freeFrames[:n-1]
	} else {
		idx = s.evict()
	}
	fr := &s.frames[idx]
	fr.id = id
	fr.entries = fr.entries[:0]
	fr.next = NilBlock
	fr.dirty = false
	fr.ref = true
	// Scan resistance: a first-touch block enters cold (one CLOCK lap
	// to live); a block returning within the ghost window proved reuse
	// and enters hot.
	fr.hot = false
	fr.wasHot = false
	if s.isGhost(id) {
		s.ghostAt[id] = 0
		fr.hot = true
		fr.wasHot = true
		s.stats.GhostHits++
	}
	s.resident[id] = idx
	s.lastID, s.lastIdx = id, idx
	return fr
}

// evict runs the scan-resistant CLOCK sweep: skip pinned frames, give
// referenced frames a second chance, demote unreferenced hot frames to
// cold (their extra lap), and take the first cold unreferenced frame
// (writing it back if dirty). The evicted ID is recorded on the ghost
// list so a prompt re-fault earns hot status. With every frame pinned
// there is nothing to evict — that is a pool misconfiguration (capacity
// below the pin working set) and panics.
func (s *FileStore) evict() int32 {
	if s.pinned >= s.cacheCap {
		panic("iomodel: buffer pool exhausted: every frame is pinned")
	}
	// Worst case (all frames hot and referenced) a frame needs three
	// visits before eviction: ref clear, demotion, eviction.
	for steps := 0; steps <= 4*len(s.frames); steps++ {
		idx := int32(s.hand)
		fr := &s.frames[idx]
		s.hand++
		if s.hand == len(s.frames) {
			s.hand = 0
		}
		if fr.pins > 0 {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		if fr.hot {
			fr.hot = false
			continue
		}
		s.stats.Evictions++
		if fr.dirty {
			s.stats.DirtyWritebacks++
			if s.failed == nil {
				s.flushBatch(fr)
			}
		}
		s.ghostAdd(fr.id)
		s.resident[fr.id] = -1
		fr.id = NilBlock
		fr.dirty = false
		fr.wasHot = false
		return idx
	}
	panic("iomodel: CLOCK sweep found no evictable frame")
}

// isGhost reports whether id is on the ghost list: recorded, and fewer
// than cacheCap evictions recorded since.
func (s *FileStore) isGhost(id BlockID) bool {
	at := s.ghostAt[id]
	return at != 0 && s.ghostSeq-at < uint64(s.cacheCap)
}

// ghostAdd records an evicted block ID on the ghost list, which ages the
// oldest entry off it. An ID already on the list keeps its place.
func (s *FileStore) ghostAdd(id BlockID) {
	if s.isGhost(id) {
		return
	}
	s.ghostSeq++
	s.ghostAt[id] = s.ghostSeq
}

// The eviction batch: at most maxBatchFrames frames,
// taken from the batchWindow frames the CLOCK hand reaches next.
const (
	maxBatchFrames = 32
	batchWindow    = 64
)

// flushBatch writes an eviction victim back together with the unpinned
// dirty frames the CLOCK hand reaches next: the frames the following
// evictions would write back one at a time. Copy-on-write places every
// block of the batch anew anyway, so the batch takes adjacent slots and
// leaves in one pwrite whatever the blocks' IDs. The other frames stay
// resident (now clean); only the victim is recycled by the caller.
func (s *FileStore) flushBatch(victim *frame) {
	batch := append(s.batchList[:0], victim)
	i := s.hand
	for range min(batchWindow, len(s.frames)-1) {
		if fr := &s.frames[i]; fr.dirty && fr.pins == 0 {
			if batch = append(batch, fr); len(batch) == maxBatchFrames {
				break
			}
		}
		if i++; i == len(s.frames) {
			i = 0
		}
	}
	_ = s.writeRuns(batch) // a failure is sticky in s.failed, which Sync and Close report
	s.batchList = batch[:0]
}

// loadHeader fills only fr's header (the next pointer) from the file
// with one 8-byte pread, for whole-block overwrites that must not lose
// the chain pointer. The bytes land in the head of the frame's own
// image, which the caller is about to overwrite. A block never flushed
// has no slot and keeps its nil pointer.
func (s *FileStore) loadHeader(fr *frame) {
	phys := s.mapping[fr.id]
	if phys < 0 {
		return
	}
	n, err := s.f.ReadAt(fr.img[:blockHeaderBytes], phys*s.slotBytes)
	if err != nil && err != io.EOF {
		panic(fmt.Errorf("iomodel: read block %d header: %w", fr.id, err))
	}
	s.stats.ReadSyscalls++
	s.stats.BytesRead += int64(n)
	if n >= blockHeaderBytes {
		fr.next = decodeNext(fr.img[4:8])
	}
}

// load fills fr — freshly installed, so empty with a nil pointer — from
// the file with one pread into its image; the entries are then simply
// the image's first count entry slots. A block never flushed has no
// slot and stays empty.
func (s *FileStore) load(fr *frame) {
	phys := s.mapping[fr.id]
	if phys < 0 {
		return
	}
	n, err := s.f.ReadAt(fr.img, phys*s.slotBytes)
	if err != nil && err != io.EOF {
		panic(fmt.Errorf("iomodel: read block %d: %w", fr.id, err))
	}
	s.stats.ReadSyscalls++
	s.stats.BytesRead += int64(n)
	if n < blockHeaderBytes {
		return
	}
	count := int(binary.LittleEndian.Uint32(fr.img[0:4]))
	if count > s.b || blockHeaderBytes+count*entryBytes > n {
		if s.failed != nil {
			// The bytes were torn by the failure the store already
			// carries. A really-crashed process would never read them;
			// serve the block as empty so the doomed session degrades
			// instead of panicking. Recovery never reads such a slot:
			// copy-on-write keeps torn epoch writes out of every slot
			// the last checkpoint references.
			return
		}
		panic(fmt.Sprintf("iomodel: corrupt block %d: count %d exceeds capacity/extent", fr.id, count))
	}
	fr.next = decodeNext(fr.img[4:8])
	fr.entries = fr.entries[:count]
	if s.swab {
		swapWords(fr.img[blockHeaderBytes : blockHeaderBytes+count*entryBytes])
	}
}

// decodeNext reads the +1-biased chain pointer; zero bytes (holes, EOF)
// are NilBlock.
func decodeNext(b []byte) BlockID {
	return BlockID(int32(binary.LittleEndian.Uint32(b))) - 1
}

func (s *FileStore) checkID(id BlockID) {
	if id < 0 || int(id) >= s.nslots {
		panic(fmt.Sprintf("iomodel: invalid block id %d", id))
	}
}
