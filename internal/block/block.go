// Package block implements the bucket primitive shared by every external
// hash table in this repository: a bucket is a chain of disk blocks — a
// head block plus zero or more overflow blocks linked through block
// headers. All operations are expressed over iomodel.Disk so that their
// exact I/O cost is accounted.
//
// Cost model recap (see package iomodel): reading a block costs 1 I/O,
// writing it back immediately after the read is free, writing a block cold
// costs 1 I/O. A successful lookup that finds its key in the k-th block of
// a chain therefore costs exactly k I/Os, which is the quantity the
// paper's t_q measures.
package block

import (
	"sort"

	"extbuf/internal/iomodel"
)

// Find walks the chain rooted at head looking for key. It returns the
// value, whether the key was found, and the number of I/Os spent (blocks
// read). An empty chain (head == NilBlock) costs 0 I/Os and reports not
// found — callers that model a mandatory bucket probe should pass a real
// head block.
//
// The walk reads each block pinned (Disk.ReadPinned): the scan runs
// over the store's own frame with no copy and no allocation, and the
// pin keeps the frame resident for exactly the scan.
func Find(d *iomodel.Disk, head iomodel.BlockID, key uint64) (val uint64, found bool, ios int) {
	for id := head; id != iomodel.NilBlock; id = d.Next(id) {
		entries := d.ReadPinned(id)
		ios++
		for i := range entries {
			if entries[i].Key == key {
				v := entries[i].Val
				d.Unpin(id)
				return v, true, ios
			}
		}
		d.Unpin(id)
	}
	return 0, false, ios
}

// Insert places e into the first block of the chain with free space,
// walking from head. If every block is full it allocates a new overflow
// block, appends it at the end of the chain (we are already positioned
// there, so linking is a free write-back), and writes the entry into it.
// If a block already contains e.Key the entry's value is overwritten in
// place. It reports the I/Os spent, whether a new block was allocated,
// and whether the key was already present.
//
// Together with Delete's backfill-from-last-block policy this maintains
// the invariant that only the final block of a chain can have free space,
// which is what makes the walk-until-space duplicate scan sound: every
// block preceding the insertion point has been checked.
//
// head must be a valid block (tables pre-allocate one head block per
// bucket).
func Insert(d *iomodel.Disk, head iomodel.BlockID, e iomodel.Entry) (ios int, grew, replaced bool) {
	buf := d.AcquireBuf()
	defer func() { d.ReleaseBuf(buf) }()
	id := head
	for {
		buf = d.Read(id, buf[:0])
		ios++
		for i := range buf {
			if buf[i].Key == e.Key {
				buf[i].Val = e.Val
				d.WriteBack(id, buf)
				return ios, false, true
			}
		}
		if len(buf) < d.B() {
			buf = append(buf, e)
			d.WriteBack(id, buf)
			return ios, false, false
		}
		next := d.Next(id)
		if next == iomodel.NilBlock {
			break
		}
		id = next
	}
	// Chain exhausted with id holding the (full) last block just read:
	// append a fresh block; the header update rides the free write-back.
	nb := d.Alloc()
	d.SetNext(id, nb)
	d.WriteBack(id, buf)
	one := append(d.AcquireBuf(), e)
	d.Write(nb, one)
	d.ReleaseBuf(one)
	ios++
	return ios, true, false
}

// InsertNoDup is Insert for callers that guarantee e.Key is not already in
// the chain (e.g. bulk loads of pre-deduplicated batches). It skips the
// duplicate scan of partially filled blocks it does not need to touch:
// it walks to the first block with space exactly like Insert but does not
// pay to verify absence.
func InsertNoDup(d *iomodel.Disk, head iomodel.BlockID, e iomodel.Entry) (ios int, grew bool) {
	buf := d.AcquireBuf()
	defer func() { d.ReleaseBuf(buf) }()
	id := head
	for {
		buf = d.Read(id, buf[:0])
		ios++
		if len(buf) < d.B() {
			buf = append(buf, e)
			d.WriteBack(id, buf)
			return ios, false
		}
		next := d.Next(id)
		if next == iomodel.NilBlock {
			break
		}
		id = next
	}
	nb := d.Alloc()
	d.SetNext(id, nb)
	d.WriteBack(id, buf)
	one := append(d.AcquireBuf(), e)
	d.Write(nb, one)
	d.ReleaseBuf(one)
	ios++
	return ios, true
}

// Delete removes key from the chain rooted at head. To keep chains
// compact it backfills the hole with an entry taken from the chain's last
// block, freeing that block if it empties (the head block is never
// freed). It reports the I/Os spent, whether the key was present, and
// the number of blocks freed (0 or 1), so tables keep their block count
// without walking headers.
//
// The walk is a single pass that never re-reads the block it is
// positioned on: over a chain of L blocks a miss costs L I/Os, a victim
// in the last block L, and a victim elsewhere L+1 (the walk finishes on
// the last block, takes the backfill entry under the free write-back,
// and returns to the victim's block once). Unlinking an emptied last
// block adds one read of its predecessor, unless the predecessor is the
// victim's block, whose return visit carries the header update.
func Delete(d *iomodel.Disk, head iomodel.BlockID, key uint64) (ios int, found bool, freed int) {
	buf := d.AcquireBuf()
	defer func() { d.ReleaseBuf(buf) }()
	victim, victimIdx := iomodel.NilBlock, -1
	prev, last := iomodel.NilBlock, head // the walk ends with last on the chain's final block
	for {
		buf = d.Read(last, buf[:0])
		ios++
		if victimIdx < 0 {
			for i := range buf {
				if buf[i].Key == key {
					victim, victimIdx = last, i
					break
				}
			}
		}
		next := d.Next(last)
		if next == iomodel.NilBlock {
			break
		}
		prev, last = last, next
	}
	if victimIdx < 0 {
		return ios, false, 0
	}
	// Positioned on the last block, held in buf: it gives up one entry —
	// the victim itself, or the backfill for the victim's hole.
	fill := buf[len(buf)-1]
	buf = buf[:len(buf)-1]
	if victim == last && victimIdx < len(buf) {
		buf[victimIdx] = fill
	}
	emptied := len(buf) == 0 && last != head
	if !emptied {
		d.WriteBack(last, buf)
	}
	if victim != last {
		buf = d.Read(victim, buf[:0])
		ios++
		buf[victimIdx] = fill
		if emptied && prev == victim {
			d.SetNext(victim, iomodel.NilBlock)
			prev = iomodel.NilBlock
		}
		d.WriteBack(victim, buf)
	}
	if emptied {
		if prev != iomodel.NilBlock {
			buf = d.Read(prev, buf[:0])
			ios++
			d.SetNext(prev, iomodel.NilBlock)
			d.WriteBack(prev, buf)
		}
		d.Free(last)
		freed = 1
	}
	return ios, true, freed
}

// Update walks the chain rooted at head looking for key and, when it
// finds it, calls fn with the stored value: fn returns the value to
// store and whether to store it (under the free write-back of the block
// just read). It reports whether the key was found and the I/Os spent —
// exactly Find's cost either way. Plain overwrites and compare-and-swap
// are both this walk with a different fn; it never inserts.
//
// Like Find it scans each block pinned, and a write stores the one entry
// it changed (Disk.WriteBackEntry): no buffer, no copy of the block.
func Update(d *iomodel.Disk, head iomodel.BlockID, key uint64, fn func(cur uint64) (val uint64, write bool)) (found bool, ios int) {
	for id := head; id != iomodel.NilBlock; id = d.Next(id) {
		entries := d.ReadPinned(id)
		ios++
		for i := range entries {
			if entries[i].Key != key {
				continue
			}
			if val, write := fn(entries[i].Val); write {
				d.WriteBackEntry(id, i, iomodel.Entry{Key: key, Val: val})
			}
			d.Unpin(id)
			return true, ios
		}
		d.Unpin(id)
	}
	return false, ios
}

// Collect appends every entry of the chain to buf and returns it together
// with the I/Os spent (one per block).
func Collect(d *iomodel.Disk, head iomodel.BlockID, buf []iomodel.Entry) ([]iomodel.Entry, int) {
	ios := 0
	for id := head; id != iomodel.NilBlock; id = d.Next(id) {
		buf = d.Read(id, buf)
		ios++
	}
	return buf, ios
}

// Blocks returns the number of blocks in the chain without performing
// I/O (header walk; used by audits and sizing logic, not by queries).
func Blocks(d *iomodel.Disk, head iomodel.BlockID) int {
	n := 0
	for id := head; id != iomodel.NilBlock; id = d.Next(id) {
		n++
	}
	return n
}

// Len returns the number of entries in the chain without performing I/O.
// Like Disk.Peek it exists for audits and tests, never operation logic.
func Len(d *iomodel.Disk, head iomodel.BlockID) int {
	n := 0
	for id := head; id != iomodel.NilBlock; id = d.Next(id) {
		n += len(d.Peek(id))
	}
	return n
}

// WriteChain writes entries as a fresh chain and returns its head and the
// I/Os spent (one cold write per block, ceil(len/b); an empty entry set
// still materializes the head block at 1 write so the bucket exists).
func WriteChain(d *iomodel.Disk, entries []iomodel.Entry) (iomodel.BlockID, int) {
	b := d.B()
	head := d.Alloc()
	if len(entries) <= b {
		d.Write(head, entries)
		return head, 1
	}
	d.Write(head, entries[:b])
	entries = entries[b:]
	ios := 1
	prev := head
	for len(entries) > 0 {
		n := len(entries)
		if n > b {
			n = b
		}
		id := d.Alloc()
		d.Write(id, entries[:n])
		ios++
		d.SetNext(prev, id)
		prev = id
		entries = entries[n:]
	}
	return head, ios
}

// FreeChain releases every block of the chain. Deallocation is free.
func FreeChain(d *iomodel.Disk, head iomodel.BlockID) {
	for id := head; id != iomodel.NilBlock; {
		next := d.Next(id)
		d.Free(id)
		id = next
	}
}

// Rewrite replaces the contents of the chain rooted at head with entries,
// reusing the head block, allocating or freeing overflow blocks as
// needed. Unlike WriteChain it keeps the head stable so directory entries
// pointing at it stay valid. Costs one cold write per written block.
func Rewrite(d *iomodel.Disk, head iomodel.BlockID, entries []iomodel.Entry) int {
	FreeChainTail(d, head)
	b := d.B()
	n := len(entries)
	if n <= b {
		d.Write(head, entries)
		return 1
	}
	d.Write(head, entries[:b])
	entries = entries[b:]
	ios := 1
	prev := head
	for len(entries) > 0 {
		k := len(entries)
		if k > b {
			k = b
		}
		id := d.Alloc()
		d.Write(id, entries[:k])
		ios++
		d.SetNext(prev, id)
		prev = id
		entries = entries[k:]
	}
	return ios
}

// FreeChainTail frees every overflow block of the chain, leaving the head
// allocated (and empty of successors).
func FreeChainTail(d *iomodel.Disk, head iomodel.BlockID) {
	for id := d.Next(head); id != iomodel.NilBlock; {
		next := d.Next(id)
		d.Free(id)
		id = next
	}
	d.SetNext(head, iomodel.NilBlock)
}

// SortByKey sorts entries in increasing key order (used by merge paths
// that want deterministic layouts).
func SortByKey(entries []iomodel.Entry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
}
