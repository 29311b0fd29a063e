// Package iomodel implements the standard external memory model of
// Aggarwal and Vitter, which is the cost model of Wei, Yi, Zhang
// (SPAA 2009): a disk of infinite size partitioned into blocks holding b
// items each, and a main memory of m words. Computation is free; the
// complexity of an algorithm is the number of block transfers (I/Os) it
// performs.
//
// The package is layered as a small storage engine (see README.md):
//
//   - BlockStore is the storage backend — a flat space of fixed-capacity
//     blocks with per-block overflow-chain headers. MemStore keeps blocks
//     in memory (the paper's simulator), and FileStore persists them to
//     a real file behind a page cache.
//   - Disk is the cost-accounting layer every table operates through: it
//     charges the paper's I/O counters, enforces the footnote-2
//     write-back rule and block capacity, and delegates the bytes to
//     whichever backend it was constructed on.
//
// The paper's claims are statements about I/O counts under a memory
// budget; Disk measures exactly those counts regardless of backend, so
// the same table code yields the paper's numbers on MemStore and real
// wall-clock and syscall costs on FileStore.
//
// # Cost accounting
//
//   - Read(id):       1 I/O.
//   - Write(id):      1 I/O.
//   - WriteBack(id):  0 I/Os, but only legal immediately after Read(id) of
//     the same block. This implements footnote 2 of the paper: "since disk
//     I/Os are dominated by the seek time, writing a block immediately
//     after reading it can be considered as one I/O."
//   - WriteBackEntry(id, i, e): footnote 2's write-back of one entry —
//     the same rule and the same count as WriteBack, for a
//     read-modify-write that changed only entry i of the block it read.
//
// Sequential scans receive no discount: the paper's bounds count block
// transfers uniformly, so uniform counting reproduces them.
//
// # Items and words
//
// The paper's item is one machine word of log u bits; a block holds b
// items and the memory holds m words. Our Entry carries a key (the item,
// i.e. its hash-relevant identity) and a value word for realism as a
// library. The value word rides along for free in the model; all capacity
// accounting is in items, matching the paper. Chain headers (the next
// pointer of an overflow block) are modeled as part of the block header
// and are read/written together with the block at no extra cost.
package iomodel

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Entry is one stored item: the key identifies it (the paper's atomic,
// indivisible item) and Val is an uninterpreted payload word.
type Entry struct {
	Key uint64
	Val uint64
}

// BlockID names a disk block. NilBlock is the null pointer.
type BlockID int32

// NilBlock is the null block pointer, used to terminate overflow chains.
const NilBlock BlockID = -1

// Counters accumulates I/O counts. The difference of two snapshots gives
// the cost of an operation window.
type Counters struct {
	Reads      int64 // blocks read (1 I/O each)
	Writes     int64 // blocks written cold (1 I/O each)
	WriteBacks int64 // write-immediately-after-read (free per footnote 2)
}

// IOs returns the seek-dominated I/O count: reads plus cold writes.
// Write-backs are free (footnote 2 of the paper).
func (c Counters) IOs() int64 { return c.Reads + c.Writes }

// Transfers returns the raw number of block transfers including
// write-backs, for experiments that want the conservative count.
func (c Counters) Transfers() int64 { return c.Reads + c.Writes + c.WriteBacks }

// Sub returns c - o, the counts accumulated since snapshot o.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Reads:      c.Reads - o.Reads,
		Writes:     c.Writes - o.Writes,
		WriteBacks: c.WriteBacks - o.WriteBacks,
	}
}

// Add returns c + o.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Reads:      c.Reads + o.Reads,
		Writes:     c.Writes + o.Writes,
		WriteBacks: c.WriteBacks + o.WriteBacks,
	}
}

// String renders the counters compactly.
func (c Counters) String() string {
	return fmt.Sprintf("reads=%d writes=%d writebacks=%d ios=%d",
		c.Reads, c.Writes, c.WriteBacks, c.IOs())
}

// ErrWriteBackOrder is returned (via panic in strict mode) when WriteBack
// is called on a block that was not the most recently read block.
var ErrWriteBackOrder = errors.New("iomodel: WriteBack must immediately follow Read of the same block")

// Disk is the cost-accounting layer of the model: the paper's I/O
// counters, the footnote-2 write-back rule and block-capacity checks,
// over any BlockStore backend. Blocks hold up to B entries plus a header
// containing an overflow-chain pointer. Disk is not safe for concurrent
// use; each experiment owns its Disk. The one exception is Counters:
// the counter fields are updated atomically, so observers on other
// goroutines (the sharded engine's non-blocking Stats path) may read a
// monotonic snapshot while the owning goroutine operates the disk.
type Disk struct {
	store      BlockStore
	b          int
	reads      atomic.Int64
	writes     atomic.Int64
	writeBacks atomic.Int64
	lastRead   BlockID
	strict     bool
	bufFree    [][]Entry // reusable entry buffers for AcquireBuf
}

// NewDisk returns an empty simulated disk (MemStore backend) with blocks
// of capacity b entries. Strict mode validates WriteBack ordering
// (enabled by default; it is cheap and catches accounting bugs in the
// table implementations).
func NewDisk(b int) *Disk {
	return NewDiskOn(NewMemStore(b))
}

// NewDiskOn layers the cost accounting over an arbitrary backend. The
// counters charged are identical across backends: only the price of the
// bytes differs.
func NewDiskOn(store BlockStore) *Disk {
	return &Disk{store: store, b: store.B(), lastRead: NilBlock, strict: true}
}

// Store returns the underlying backend, for backend-specific reporting
// (e.g. FileStore.Stats) and lifecycle management.
func (d *Disk) Store() BlockStore { return d.store }

// Close releases the backend's resources. Tables never call this; the
// owner of the Disk does.
func (d *Disk) Close() error { return d.store.Close() }

// SetStrict toggles WriteBack-order validation.
func (d *Disk) SetStrict(strict bool) { d.strict = strict }

// B returns the block capacity in entries.
func (d *Disk) B() int { return d.b }

// Counters returns a snapshot of the accumulated I/O counters. It is
// safe to call from any goroutine: each field is loaded atomically, so
// the snapshot is monotonic even while the owning goroutine is mid-run
// (the fields may straddle an in-flight operation, never tear within
// one).
func (d *Disk) Counters() Counters {
	return Counters{
		Reads:      d.reads.Load(),
		Writes:     d.writes.Load(),
		WriteBacks: d.writeBacks.Load(),
	}
}

// ResetCounters zeroes the I/O counters.
func (d *Disk) ResetCounters() {
	d.reads.Store(0)
	d.writes.Store(0)
	d.writeBacks.Store(0)
}

// NumBlocks returns the number of allocated (live) blocks.
func (d *Disk) NumBlocks() int { return d.store.NumBlocks() }

// Alloc reserves a fresh empty block and returns its ID. Allocation by
// itself performs no I/O; the write that first populates the block pays.
func (d *Disk) Alloc() BlockID { return d.store.Alloc() }

// Free releases a block back to the allocator. Freeing performs no I/O.
func (d *Disk) Free(id BlockID) {
	d.store.Free(id)
	if d.lastRead == id {
		d.lastRead = NilBlock
	}
}

// Read transfers block id into memory, costing 1 I/O, and appends its
// entries to buf (which may be nil). The returned slice is owned by the
// caller; the disk contents are unaffected by mutation of it.
func (d *Disk) Read(id BlockID, buf []Entry) []Entry {
	buf = d.store.ReadBlock(id, buf)
	d.reads.Add(1)
	d.lastRead = id
	return buf
}

// Peek returns the current contents of block id without performing an
// I/O. It exists for assertions and snapshot analysis (package zones),
// never for table operation logic. The slice must not be mutated and is
// only valid until the next disk operation.
func (d *Disk) Peek(id BlockID) []Entry {
	return d.store.PeekBlock(id)
}

// ReadPinned transfers block id into memory, costing 1 I/O like Read,
// but returns the store's own frame without copying. The slice stays
// valid — even across further disk operations — until the matching
// Unpin releases it; a caching backend keeps the frame resident for
// exactly that window. The slice must not be mutated. This is the
// zero-copy read path for scan-and-discard callers (chain walks).
func (d *Disk) ReadPinned(id BlockID) []Entry {
	buf := d.store.PinBlock(id)
	d.reads.Add(1)
	d.lastRead = id
	return buf
}

// Unpin releases the frame returned by ReadPinned(id). Pins must
// balance; the backend panics on underflow.
func (d *Disk) Unpin(id BlockID) { d.store.UnpinBlock(id) }

// AcquireBuf returns an empty entry buffer with capacity for one block,
// reused across calls so steady-state operations allocate nothing.
// Return it with ReleaseBuf when done. The disk has a single operating
// goroutine, so the freelist needs no locking.
func (d *Disk) AcquireBuf() []Entry {
	if n := len(d.bufFree); n > 0 {
		buf := d.bufFree[n-1]
		d.bufFree = d.bufFree[:n-1]
		return buf[:0]
	}
	return make([]Entry, 0, d.b)
}

// ReleaseBuf returns a buffer obtained from AcquireBuf to the freelist.
func (d *Disk) ReleaseBuf(buf []Entry) {
	d.bufFree = append(d.bufFree, buf)
}

// Write replaces the contents of block id, costing 1 I/O. It panics if
// entries exceeds the block capacity.
func (d *Disk) Write(id BlockID, entries []Entry) {
	d.checkFit(entries)
	d.store.WriteBlock(id, entries)
	d.writes.Add(1)
	d.lastRead = NilBlock
}

// WriteBack replaces the contents of block id at zero I/O cost, modeling
// a write issued while the disk head still sits on the block just read
// (footnote 2 of the paper). In strict mode it panics unless id is the
// most recently read block.
func (d *Disk) WriteBack(id BlockID, entries []Entry) {
	d.checkFit(entries)
	if d.strict && d.lastRead != id {
		panic(ErrWriteBackOrder)
	}
	d.store.WriteBlock(id, entries)
	d.writeBacks.Add(1)
	d.lastRead = NilBlock
}

// WriteBackEntry stores e as entry i of block id at zero I/O cost: the
// footnote-2 write-back of WriteBack, narrowed to the one entry a
// read-modify-write changed, so the block need not be copied out and
// back. It obeys the same rule (strict mode panics unless id is the most
// recently read block) and is counted the same way, one write-back. i
// must index a live entry of the block; the count and the header stay.
func (d *Disk) WriteBackEntry(id BlockID, i int, e Entry) {
	if d.strict && d.lastRead != id {
		panic(ErrWriteBackOrder)
	}
	d.store.SetEntry(id, i, e)
	d.writeBacks.Add(1)
	d.lastRead = NilBlock
}

// Clear empties block id without charging an I/O, modeling a TRIM or
// free-list format operation: discarding data requires no transfer. It
// must not be used to move data (the block simply becomes empty).
func (d *Disk) Clear(id BlockID) {
	d.store.ClearBlock(id)
	if d.lastRead == id {
		d.lastRead = NilBlock
	}
}

// Next returns the overflow-chain pointer stored in the header of block
// id. Headers travel with their block: calling Next is free but only
// meaningful adjacent to a Read/Write of the same block.
func (d *Disk) Next(id BlockID) BlockID { return d.store.Next(id) }

// SetNext updates the overflow-chain pointer in the header of block id.
// Like Next, it is free and must accompany a Read/Write of the block.
func (d *Disk) SetNext(id, next BlockID) { d.store.SetNext(id, next) }

func (d *Disk) checkFit(entries []Entry) {
	if len(entries) > d.b {
		panic(fmt.Sprintf("iomodel: %d entries exceed block capacity %d", len(entries), d.b))
	}
}
