package iomodel

// BlockStore is the storage backend beneath Disk: a flat address space of
// fixed-capacity blocks, each carrying a header with an overflow-chain
// pointer. Disk layers the paper's cost accounting (I/O counters,
// footnote-2 write-back legality, strict-mode checks) on top of any
// BlockStore, so the same table code runs against an in-memory simulated
// store (MemStore) or a real file (FileStore) without change.
//
// Stores perform no cost accounting of their own: reading, writing,
// clearing and header access are raw storage operations. All model-level
// bookkeeping lives in Disk. Like Disk, stores are not safe for
// concurrent use; each Disk owns its store exclusively.
type BlockStore interface {
	// B returns the block capacity in entries.
	B() int
	// Alloc reserves a fresh empty block and returns its ID. Freed
	// blocks are reused (most recently freed first) and come back empty
	// with a nil next pointer.
	Alloc() BlockID
	// Free releases a block back to the allocator. Freeing a block that
	// is pinned or already free is a caller bug and panics.
	Free(id BlockID)
	// ReadBlock appends the entries of block id to buf (which may be
	// nil) and returns the result. The returned slice is owned by the
	// caller; mutating it does not affect the stored block.
	ReadBlock(id BlockID, buf []Entry) []Entry
	// WriteBlock replaces the contents of block id. The store may
	// assume len(entries) <= B(); Disk enforces it.
	WriteBlock(id BlockID, entries []Entry)
	// SetEntry overwrites entry i (i < the block's count) of block id in
	// place, leaving the count, the other entries and the header as they
	// are: WriteBlock narrowed to the one entry a read-modify-write
	// changed.
	SetEntry(id BlockID, i int, e Entry)
	// ClearBlock empties block id and resets its next pointer.
	ClearBlock(id BlockID)
	// PeekBlock returns the current contents of block id without the
	// copy ReadBlock makes. The slice is only valid until the next
	// store operation and must not be mutated. It exists for audits and
	// assertions, never operation logic.
	PeekBlock(id BlockID) []Entry
	// PinBlock returns the entries of block id without copying, like
	// PeekBlock, but the returned slice stays valid until the matching
	// UnpinBlock: a caching store must not evict or recycle the frame
	// while it is pinned. Pins nest (a frame may be pinned more than
	// once) and must balance. The slice must not be mutated. Neither
	// slice outlives Close: MemStore returns its memory there (or when
	// a store dropped without Close is collected).
	PinBlock(id BlockID) []Entry
	// UnpinBlock releases one pin taken by PinBlock. Unbalanced unpins
	// are a caller bug and panic.
	UnpinBlock(id BlockID)
	// Next returns the overflow-chain pointer in the header of block id.
	Next(id BlockID) BlockID
	// SetNext updates the overflow-chain pointer of block id.
	SetNext(id, next BlockID)
	// NumBlocks returns the number of allocated (live) blocks.
	NumBlocks() int
	// Sync flushes any buffered state to durable storage. In-memory
	// stores return nil.
	Sync() error
	// Close releases backend resources (file handles, temp files, a
	// mem store's mappings). The store must not be used afterwards.
	Close() error
}
