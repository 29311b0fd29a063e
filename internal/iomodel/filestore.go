package iomodel

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
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
// # Placement: direct vs durable
//
// A store built with NewFileStore truncates its file and places block
// id at byte offset id*slotBytes — a fresh scratch store, not a
// recovery mechanism. A store built with OpenFileStore runs in durable
// mode: the file is NOT truncated, and a logical→physical indirection
// table decouples the block IDs tables chain through from file
// placement. Durable flushes are copy-on-write: the first flush of a
// block in a checkpoint epoch goes to a fresh physical slot, so every
// slot referenced by the last completed checkpoint stays byte-identical
// on disk until the next checkpoint commits. A crash at any write
// therefore leaves the previous checkpoint fully intact — the property
// the recovery protocol in package extbuf is built on. The indirection
// table and allocator free lists are volatile; AllocState and
// RestoreAllocState move them in and out of checkpoints, and EndEpoch
// retires the superseded pre-checkpoint slots once a checkpoint commits.
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
// Frames can be pinned (PinBlock/UnpinBlock, reference counted): a
// pinned frame is never evicted, so callers may hold its entries across
// further store operations without a copy. Whole-block writes populate
// a frame without reading the old contents.
//
// Dirty frames flushed at a Sync barrier are sorted by physical slot
// and written as runs of adjacent blocks in single large pwrites
// (bounded by maxRunBytes), so a checkpoint costs a handful of syscalls
// instead of one per block. Stats exposes the syscall, pool and
// coalescing counters so experiments can report real costs next to the
// model's counters.
//
// Write errors are sticky: the first failed pwrite (real, or injected
// by a Crasher) marks the store failed, further evictions quietly drop
// their frames — the bytes are lost exactly as in a crash — and Sync
// and Close report the failure instead of panicking, so a durable
// table's Flush barrier surfaces it to the caller as an un-acknowledged
// write.
//
// Writes are issued inline unless the fd is O_DIRECT or the caller asks
// for a pool; ConfigureSubmission holds the rule and its reason.
//
// # Kernel-bypass tier
//
// Under the direct I/O modes (IOModeODirect, IOModeUring) the store
// bypasses the kernel page cache: the buffer pool above is the only
// cache between the tables and the device. Slots are padded from
// frameBytes to slotBytes (the next multiple of the filesystem's
// logical sector size) and every I/O buffer is sector-aligned, so all
// pread/pwrite offsets, lengths and addresses satisfy O_DIRECT's
// alignment rules. The fallback ladder is: io_uring submission →
// pwrite worker pool (tag off or kernel probe failed, UringFallbacks);
// O_DIRECT fd → buffered fd (filesystem refused the flag,
// ODirectFallbacks); and crash-injected stores always take the
// synchronous buffered syscall path — the crash harness counts write
// syscalls, so write order must stay deterministic — while keeping the
// mode's slot layout, so crash tests and production stores read the
// same files.
type FileStore struct {
	f          BlockFile
	osf        *os.File // underlying fd when known; io_uring needs it
	b          int
	frameBytes int64  // header + B() entries
	slotBytes  int64  // on-disk stride: frameBytes, sector-padded under direct layout
	sector     int64  // direct-layout alignment; 0 = buffered layout
	ioMode     string // configured mode (IOMode constants)
	direct     bool   // fd is open O_DIRECT
	uringOn    bool   // submissions ride an io_uring ring
	nslots     int    // allocated slots, including freed ones
	free       []BlockID
	cacheCap   int

	// Buffer pool: frames is the pool, arena the slot images behind it
	// (cacheCap × slotBytes, aligned for direct I/O), resident the index
	// from block ID to frame (block IDs are dense, so it is a slice grown
	// with the allocator: the frame index, or -1 for a block not in the
	// pool), freeFrames the recycle list, hand the CLOCK sweep position.
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

	runBuf      []byte   // coalesced flush buffer, grown on demand
	dirtyList   []*frame // scratch list reused by FlushDirty
	clusterList []*frame // scratch list reused by eviction clustering
	stats       FileStats
	removeName  string // non-empty: unlink this path on Close (temp stores)
	closed      bool
	failed      error // sticky first write failure
	swab        bool  // big-endian host: entry words are byte-swapped around every transfer

	// Asynchronous writeback (nil = synchronous writes): the pwrite
	// worker pool or, under IOModeUring, the io_uring ring. wrote
	// tracks whether any bytes reached (or were submitted to) the file
	// since the last fsync, so a barrier with nothing new to harden
	// elides its fsync instead of queueing a no-op behind the device.
	wb         ioSubmitter
	wrote      bool
	hasCrasher bool // write order must stay deterministic: no async pool

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

	// Durable-mode placement state (nil mapping = direct mode). A slot
	// whose slotEpoch is the current epoch was first written in it: no
	// checkpoint references it, so it may be overwritten in place and
	// reused at once when retired.
	durable     bool
	mapping     []int64  // logical id -> physical slot; -1 = never written
	physHigh    int64    // physical slots ever placed (file extent, in frames)
	physFree    []int64  // reusable physical slots
	pendingFree []int64  // slots superseded this epoch; free after checkpoint
	slotEpoch   []uint32 // per physical slot: the epoch that last assigned it (0: none)
	epoch       uint32   // current epoch, never 0
}

var _ BlockStore = (*FileStore)(nil)

// frame is one pool slot. img is the block's slot image — header, B()
// entries, sector padding — and entries the live prefix of its entry
// area viewed in place. img's header bytes are only meaningful on the
// way in (load) and out (seal); in between, len(entries) and next are
// the truth.
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
	// barriers and through eviction write-clustering alike — and
	// FlushRuns the pwrites they were batched into, so
	// FlushedFrames/FlushRuns is the realized coalescing factor.
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

	// Kernel-bypass tier. DirectIO is 1 while the block fd is open
	// O_DIRECT; ODirectFallbacks counts direct-mode opens that fell
	// back to buffered syscalls (filesystem refused the flag);
	// UringFallbacks counts uring-mode stores that fell back to the
	// pwrite pool (tag off or kernel probe failed). UringEnters and
	// UringSQEs meter the ring: SQEs per enter is the realized
	// submission batch size.
	DirectIO         int64
	ODirectFallbacks int64
	UringEnters      int64
	UringSQEs        int64
	UringFallbacks   int64
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

// NewFileStore creates (or truncates) the file at path and returns a
// direct-placement store with blocks of capacity b entries and a page
// cache of cacheBlocks frames (DefaultCacheBlocks if cacheBlocks <= 0).
func NewFileStore(path string, b, cacheBlocks int) (*FileStore, error) {
	return NewFileStoreIO(path, b, cacheBlocks, IOOptions{})
}

// NewFileStoreIO is NewFileStore with an explicit I/O mode (see the
// IOMode constants). A direct mode that the filesystem refuses falls
// back to buffered syscalls, recorded in FileStats.ODirectFallbacks;
// the sector-padded layout is kept either way.
func NewFileStoreIO(path string, b, cacheBlocks int, io IOOptions) (*FileStore, error) {
	f, direct, err := openBlockFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, directLayout(io.Mode))
	if err != nil {
		return nil, fmt.Errorf("iomodel: open block store: %w", err)
	}
	s := newFileStoreOn(f, f, b, cacheBlocks, false, io, direct)
	if directLayout(io.Mode) && !direct {
		s.stats.ODirectFallbacks++
	}
	return s, nil
}

// OpenFileStore opens (creating if absent, never truncating) the file
// at path as a durable-mode store: copy-on-write placement behind a
// logical→physical indirection table, ready for checkpoint/recovery.
// A non-nil crasher interposes fault injection on every file write.
func OpenFileStore(path string, b, cacheBlocks int, crasher *Crasher) (*FileStore, error) {
	return OpenFileStoreIO(path, b, cacheBlocks, crasher, IOOptions{})
}

// OpenFileStoreIO is OpenFileStore with an explicit I/O mode. A
// crash-injected store refuses the kernel-bypass syscall paths (same
// rule as SetWritebackWorkers) but keeps the mode's slot layout, so
// the crash matrix replays deterministically against the same files a
// production store writes.
func OpenFileStoreIO(path string, b, cacheBlocks int, crasher *Crasher, io IOOptions) (*FileStore, error) {
	wantDirect := directLayout(io.Mode) && crasher == nil
	f, direct, err := openBlockFile(path, os.O_RDWR|os.O_CREATE, wantDirect)
	if err != nil {
		return nil, fmt.Errorf("iomodel: open block store: %w", err)
	}
	var bf BlockFile = f
	if crasher != nil {
		bf = crasher.WrapFile(bf)
	}
	s := newFileStoreOn(bf, f, b, cacheBlocks, true, io, direct)
	s.hasCrasher = crasher != nil
	if wantDirect && !direct {
		s.stats.ODirectFallbacks++
	}
	return s, nil
}

func newFileStoreOn(f BlockFile, osf *os.File, b, cacheBlocks int, durable bool, io IOOptions, direct bool) *FileStore {
	if b < 1 {
		panic("iomodel: block size must be >= 1")
	}
	if cacheBlocks <= 0 {
		cacheBlocks = DefaultCacheBlocks
	}
	mode := io.Mode
	if mode == "" {
		mode = IOModeBuffered
	}
	fb := int64(blockHeaderBytes + b*entryBytes)
	slot := fb
	var sector int64
	if directLayout(mode) {
		sector = int64(io.Sector)
		if sector <= 0 && osf != nil {
			sector = int64(fsSectorSize(osf.Name()))
		}
		if sector <= 0 {
			sector = 4096
		}
		slot = alignUp(fb, sector)
	}
	// Slot images start sector-aligned (slotBytes is a sector multiple
	// under the direct layout) and at least page-aligned.
	align := max(sector, 4096)
	s := &FileStore{
		f:          f,
		osf:        osf,
		b:          b,
		frameBytes: fb,
		slotBytes:  slot,
		sector:     sector,
		ioMode:     mode,
		direct:     direct,
		cacheCap:   cacheBlocks,
		frames:     make([]frame, cacheBlocks),
		arena:      alignedBytes(cacheBlocks*int(slot), 0, int(align)),
		freeFrames: make([]int32, cacheBlocks),
		swab:       hostBigEndian,
		durable:    durable,
		epoch:      1,
	}
	if direct {
		s.stats.DirectIO = 1
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

// SetWritebackWorkers switches the store's flush-barrier and eviction
// writeback from synchronous pwrites to a pool of n concurrent
// submission workers (see writeback). n <= 1 keeps writes synchronous.
// The call is ignored on a crash-injected store — the crash harness
// kills the process at the Nth write syscall, so write order must stay
// deterministic — and must be made before any write reaches the store.
func (s *FileStore) SetWritebackWorkers(n int) {
	if n <= 1 || s.hasCrasher || s.wb != nil {
		return
	}
	s.wb = newWriteback(s.f, n, int(s.slotBytes), int(s.sector))
}

// ConfigureSubmission selects how the store's writes reach the file.
// workers is Config.WritebackWorkers: 0 lets the store decide, 1 forces
// synchronous writes, n > 1 asks for a pool of n (an io_uring ring
// under IOModeUring). Crash-injected stores stay synchronous whatever
// is asked. Must be called before any write reaches the store.
//
// What 0 selects rests on what a pwrite is on this fd. Through the page
// cache it is a memcpy of one slot: the kernel's page cache is the
// store's write-behind buffer, and a user-space pool in front of it is
// a second one, paid for with a goroutine handoff per kilobyte
// (EXPERIMENTS.md, PR 23). So a buffered fd — a direct-mode open that
// fell back included — writes inline. On an O_DIRECT fd a pwrite waits
// for the device and several in flight are the only overlap there is:
// that store gets min(4, GOMAXPROCS) workers, or the ring. Asking for
// workers by hand remains right for a buffered store over a cold data
// set far larger than RAM, where a partial-page write to an uncached
// slot waits for a device read.
func (s *FileStore) ConfigureSubmission(mode string, workers int) {
	if s.hasCrasher || s.wb != nil {
		return
	}
	if workers == 0 {
		if !s.direct {
			return
		}
		workers = min(4, runtime.GOMAXPROCS(0))
	}
	if mode == IOModeUring {
		// Build tag "iouring"; falls back to the pwrite pool, counted in
		// FileStats.UringFallbacks, when the tag is off or the kernel
		// probe fails.
		if ur, err := newURing(s, uringDepth); err == nil {
			s.wb = ur
			s.uringOn = true
			return
		}
		s.stats.UringFallbacks++
	}
	s.SetWritebackWorkers(workers)
}

// NewTempFileStore is NewFileStore on a fresh temporary file that is
// removed when the store is closed.
func NewTempFileStore(b, cacheBlocks int) (*FileStore, error) {
	return NewTempFileStoreIO(b, cacheBlocks, IOOptions{})
}

// NewTempFileStoreIO is NewFileStoreIO on a fresh temporary file that
// is removed when the store is closed.
func NewTempFileStoreIO(b, cacheBlocks int, io IOOptions) (*FileStore, error) {
	f, err := os.CreateTemp("", "extbuf-*.blocks")
	if err != nil {
		return nil, fmt.Errorf("iomodel: temp block store: %w", err)
	}
	name := f.Name()
	f.Close()
	s, err := NewFileStoreIO(name, b, cacheBlocks, io)
	if err != nil {
		os.Remove(name)
		return nil, err
	}
	s.removeName = name
	return s, nil
}

// Path returns the backing file's name.
func (s *FileStore) Path() string { return s.f.Name() }

// Stats returns a snapshot of the real-cost counters.
func (s *FileStore) Stats() FileStats { return s.stats }

// B returns the block capacity in entries.
func (s *FileStore) B() int { return s.b }

// Durable reports whether the store runs in durable (copy-on-write)
// mode.
func (s *FileStore) Durable() bool { return s.durable }

// IOMode returns the store's configured I/O mode, which fixes the slot
// layout (see the IOMode constants).
func (s *FileStore) IOMode() string { return s.ioMode }

// EffectiveIOMode returns the syscall path actually in use after the
// fallback ladder: "uring" when submissions ride an io_uring ring,
// else "odirect" when the fd is open O_DIRECT, else "buffered".
func (s *FileStore) EffectiveIOMode() string {
	if s.uringOn {
		return IOModeUring
	}
	if s.direct {
		return IOModeODirect
	}
	return IOModeBuffered
}

// AsyncWriteback reports whether writes leave through an asynchronous
// submitter (the pwrite pool or the ring) rather than inline; see
// ConfigureSubmission for which stores get one.
func (s *FileStore) AsyncWriteback() bool { return s.wb != nil }

// SectorSize returns the direct layout's alignment in bytes, 0 under
// the buffered layout.
func (s *FileStore) SectorSize() int { return int(s.sector) }

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
		// The file may still hold the freed block's stale bytes; install
		// an empty dirty frame so readers see a fresh block.
		fr := s.frameForWrite(id, false)
		fr.entries = fr.entries[:0]
		fr.next = NilBlock
		return id
	}
	id := BlockID(s.nslots)
	s.nslots++
	s.resident = append(s.resident, -1)
	s.ghostAt = append(s.ghostAt, 0)
	if s.durable {
		s.mapping = append(s.mapping, -1)
	}
	// Nothing is written yet: a read of a never-written slot hits EOF
	// (direct mode) or an unmapped slot (durable mode) and decodes as an
	// empty block, so allocation alone costs no syscall.
	return id
}

// Free releases a block back to the allocator, discarding any cached
// (even dirty) frame: freed contents need never reach the file. In
// durable mode the block's physical slot is retired — after the next
// checkpoint if the last checkpoint references it, immediately
// otherwise. Freeing a pinned block panics (the pinned slice would
// alias a recycled frame).
func (s *FileStore) Free(id BlockID) {
	s.checkID(id)
	if idx := s.resident[id]; idx >= 0 {
		fr := &s.frames[idx]
		if fr.pins > 0 {
			panic(fmt.Sprintf("iomodel: freeing pinned block %d", id))
		}
		s.recycle(idx)
	}
	if s.durable {
		s.retirePhys(s.mapping[id])
		s.mapping[id] = -1
	}
	// Forget eviction history: the ID's next use is a fresh block, not
	// a re-reference.
	s.ghostAt[id] = 0
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

// retirePhys returns physical slot phys to the allocator: to the free
// list if it was first written this epoch (no checkpoint references
// it), to the pending list to be freed when the next checkpoint
// commits otherwise.
func (s *FileStore) retirePhys(phys int64) {
	if phys < 0 {
		return
	}
	if s.slotEpoch[phys] == s.epoch {
		s.physFree = append(s.physFree, phys)
	} else {
		s.pendingFree = append(s.pendingFree, phys)
	}
}

// allocPhys reserves a physical slot for a copy-on-write flush.
func (s *FileStore) allocPhys() int64 {
	if n := len(s.physFree); n > 0 {
		p := s.physFree[n-1]
		s.physFree = s.physFree[:n-1]
		return p
	}
	p := s.physHigh
	s.physHigh++
	s.slotEpoch = append(s.slotEpoch, 0)
	return p
}

// physFor returns the file slot holding block id, or -1 if the block
// has never been flushed (durable mode only; direct mode is identity).
func (s *FileStore) physFor(id BlockID) int64 {
	if !s.durable {
		return int64(id)
	}
	return s.mapping[id]
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

// FlushDirty writes every dirty frame to the file without fsyncing,
// coalescing adjacent physical slots into single large pwrites. Copy-
// on-write slot assignment happens in block-ID order — deterministic,
// so the crash-injection harness ("die at the Nth write") can replay a
// failure — and the writes are then issued in physical-slot order so
// runs of adjacent slots (the common case: fresh slots are allocated
// sequentially) become one syscall each. A failed store reports its
// sticky failure without issuing further writes.
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

// writeRuns flushes the given dirty frames: copy-on-write slots are
// assigned in block-ID order (matching the allocation sequence a
// per-block flush loop would produce, deterministically), then the
// writes are issued in physical-slot order with runs of adjacent slots
// coalesced into single pwrites.
func (s *FileStore) writeRuns(dirty []*frame) error {
	if len(dirty) == 0 {
		return nil
	}
	slices.SortFunc(dirty, func(a, b *frame) int { return cmp.Compare(a.id, b.id) })
	if s.durable {
		for _, fr := range dirty {
			s.assignSlot(fr)
		}
	}
	slices.SortFunc(dirty, func(a, b *frame) int { return cmp.Compare(s.physFor(a.id), s.physFor(b.id)) })
	maxRun := int(maxRunBytes / s.slotBytes)
	if maxRun < 1 {
		maxRun = 1
	}
	for start := 0; start < len(dirty); {
		end := start + 1
		for end < len(dirty) && end-start < maxRun &&
			s.physFor(dirty[end].id) == s.physFor(dirty[end-1].id)+1 {
			end++
		}
		if s.wb != nil {
			s.submitRun(dirty[start:end])
		} else if err := s.flushRun(dirty[start:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// submitRun hands a run of frames occupying adjacent physical slots to
// the asynchronous submitter: the frames' sealed images are snapshotted
// here, on the store's goroutine, into a submitter-owned buffer, then
// the pwrite is issued off it. The frames are clean the moment the
// snapshot is taken — later mutations re-dirty them and flush again —
// and write errors surface at the next drain barrier (Fsync/Close).
// Counters are charged at submit, so Stats reads stay deterministic at
// barriers.
func (s *FileStore) submitRun(run []*frame) {
	n := len(run) * int(s.slotBytes)
	buf := s.wb.getBuf(n)
	s.sealInto(buf, run)
	for _, fr := range run {
		fr.dirty = false
	}
	first := s.physFor(run[0].id)
	s.stats.WriteSyscalls++
	s.stats.FlushRuns++
	s.stats.FlushedFrames += int64(len(run))
	s.stats.BytesWritten += int64(n)
	s.wrote = true
	s.wb.submit(wbJob{
		buf:   buf,
		off:   first * s.slotBytes,
		first: first,
		n:     len(run),
		id0:   run[0].id,
		id1:   run[len(run)-1].id,
	})
}

// flushRun writes a run of frames occupying adjacent physical slots
// with one pwrite and clears their dirty bits. A run of one — every
// eviction write-back that found no dirty neighbours — is written from
// the frame's own image; longer runs are gathered into runBuf first.
func (s *FileStore) flushRun(run []*frame) error {
	buf := run[0].img
	if len(run) == 1 && !s.swab {
		s.seal(run[0])
	} else {
		n := len(run) * int(s.slotBytes)
		if cap(s.runBuf) < n {
			s.runBuf = alignedBytes(n, n, int(s.sector))
		}
		buf = s.runBuf[:n]
		s.sealInto(buf, run)
	}
	wn, err := s.f.WriteAt(buf, s.physFor(run[0].id)*s.slotBytes)
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
// entries, what an earlier occupant of the frame left, the direct
// layout's sector padding — is zeroed, so stale bytes never reach the
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
// block file. It is the drain barrier for asynchronous writeback: every
// submitted write completes (and joins its error) before the fsync is
// issued. A barrier with nothing written since the last fsync elides
// the syscall — the one-fsync-per-fd-per-barrier dedupe — and counts
// the elision in FsyncsElided.
func (s *FileStore) Fsync() error {
	if s.wb != nil {
		if err := s.wb.drain(); err != nil && s.failed == nil {
			s.failed = err
		}
	}
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
// checkpoint: logical slot count, logical free list, and (durable mode)
// the logical→physical mapping. Call after Sync so the mapping reflects
// every flushed frame.
func (s *FileStore) AllocState() (nslots int, free []BlockID, mapping []int64) {
	free = append([]BlockID(nil), s.free...)
	if s.durable {
		mapping = append([]int64(nil), s.mapping...)
	}
	return s.nslots, free, mapping
}

// RestoreAllocState installs a checkpoint's allocator and placement
// state into a freshly opened durable store: the physical free list is
// re-derived as every slot below the high-water mark that the mapping
// does not reference. The cache must be empty (recovery runs before any
// block access).
func (s *FileStore) RestoreAllocState(nslots int, free []BlockID, mapping []int64) error {
	if !s.durable {
		return fmt.Errorf("iomodel: RestoreAllocState on a direct-mode store")
	}
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
	s.ghostAt = make([]uint64, nslots)
	s.physHigh = 0
	for _, p := range mapping {
		if p >= s.physHigh {
			s.physHigh = p + 1
		}
	}
	used := make([]uint64, (s.physHigh+63)/64)
	for _, p := range mapping {
		if p >= 0 {
			used[p/64] |= 1 << (p % 64)
		}
	}
	// Highest first: the list is popped from the back, so low slots are
	// reused first and the file extent stays tight after recovery.
	s.physFree = s.physFree[:0]
	for p := s.physHigh - 1; p >= 0; p-- {
		if used[p/64]&(1<<(p%64)) == 0 {
			s.physFree = append(s.physFree, p)
		}
	}
	s.pendingFree = s.pendingFree[:0]
	s.slotEpoch = make([]uint32, s.physHigh)
	s.epoch = 1
	return nil
}

// EndEpoch commits the copy-on-write epoch after a checkpoint has been
// made durable: physical slots superseded during the epoch become
// reusable, and subsequent flushes start a fresh epoch.
func (s *FileStore) EndEpoch() {
	s.physFree = append(s.physFree, s.pendingFree...)
	s.pendingFree = s.pendingFree[:0]
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
	if s.wb != nil {
		if werr := s.wb.shutdown(); werr != nil && err == nil {
			err = werr
		}
		s.wb = nil
	}
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
				if err := s.flushCluster(fr); err != nil && s.failed == nil {
					s.failed = err
				}
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

// maxClusterFrames bounds the write cluster gathered around a dirty
// eviction victim.
const maxClusterFrames = 128

// flushCluster writes the eviction victim back together with the
// contiguous run of dirty resident blocks around its block ID — write
// clustering. Sequential producers (the buffered table's merges, bulk
// loads) dirty long runs of consecutive blocks; flushing the whole run
// in one coalesced pwrite when its first frame is evicted turns the
// steady-state eviction stream from one syscall per block into one per
// run. The neighbors stay resident (now clean); only the victim is
// recycled by the caller.
func (s *FileStore) flushCluster(victim *frame) error {
	cluster := s.clusterList[:0]
	cluster = append(cluster, victim)
	for id := victim.id - 1; id >= 0 && len(cluster) < maxClusterFrames; id-- {
		idx := s.resident[id]
		if idx < 0 || !s.frames[idx].dirty {
			break
		}
		cluster = append(cluster, &s.frames[idx])
	}
	for id := victim.id + 1; int(id) < s.nslots && len(cluster) < maxClusterFrames; id++ {
		idx := s.resident[id]
		if idx < 0 || !s.frames[idx].dirty {
			break
		}
		cluster = append(cluster, &s.frames[idx])
	}
	var err error
	if len(cluster) == 1 && s.wb == nil {
		// The common case needs no sorting: one slot, one pwrite.
		if s.durable {
			s.assignSlot(victim)
		}
		err = s.flushRun(cluster)
	} else {
		err = s.writeRuns(cluster)
	}
	s.clusterList = cluster[:0]
	return err
}

// loadHeader fills only fr's header (the next pointer) from the file
// with one small pread — 8 bytes buffered, one sector under O_DIRECT
// (the minimum aligned read) — for whole-block overwrites that must
// not lose the chain pointer. The bytes land in the head of the frame's
// own image, which the caller is about to overwrite. A slot past EOF —
// or never flushed in durable mode — decodes as a nil pointer.
func (s *FileStore) loadHeader(fr *frame) {
	phys := s.physFor(fr.id)
	if phys < 0 {
		return
	}
	if s.wb != nil {
		s.wb.waitSlot(phys)
	}
	rd := int64(blockHeaderBytes)
	if s.direct {
		rd = s.sector
	}
	n, err := s.f.ReadAt(fr.img[:rd], phys*s.slotBytes)
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
// the image's first count entry slots. A slot past EOF (or never
// flushed in durable mode) reads as an empty block.
func (s *FileStore) load(fr *frame) {
	phys := s.physFor(fr.id)
	if phys < 0 {
		return
	}
	if s.wb != nil {
		s.wb.waitSlot(phys)
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

// assignSlot gives fr a physical slot for a copy-on-write flush: the
// first flush of a block within an epoch goes to a fresh slot,
// preserving the last checkpoint's image of the block. Durable mode
// only.
func (s *FileStore) assignSlot(fr *frame) {
	phys := s.mapping[fr.id]
	if phys < 0 || s.slotEpoch[phys] != s.epoch {
		s.retirePhys(phys)
		phys = s.allocPhys()
		s.slotEpoch[phys] = s.epoch
		s.mapping[fr.id] = phys
	}
}

func (s *FileStore) checkID(id BlockID) {
	if id < 0 || int(id) >= s.nslots {
		panic(fmt.Sprintf("iomodel: invalid block id %d", id))
	}
}
