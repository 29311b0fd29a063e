// Package linhash implements linear hashing (Litwin 1980), the second
// classical scheme the paper cites for maintaining the load factor of an
// external hash table at an extra amortized O(1/b) I/Os per insertion.
//
// Buckets split in a fixed round-robin order controlled by a split
// pointer rather than when they themselves overflow, so no directory is
// needed: the address function needs only the level L and split pointer
// p — O(1) words of memory, the cheapest possible f in the paper's
// framework. Buckets that overflow before their turn grow overflow
// chains, which is where the 1/2^Omega(b) query surcharge comes from.
//
// # Addressing
//
// With level L there are between 2^L and 2^(L+1) buckets. An item whose
// top L hash bits give index i < p (already split this round) uses L+1
// bits; otherwise L bits. This is the textbook scheme transposed to
// top-bit indexing so that splits refine buckets contiguously like every
// other structure in this repository.
package linhash

import (
	"fmt"

	"extbuf/internal/block"
	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
)

// memoryWords is the charged in-memory footprint: level, split pointer,
// count, seed.
const memoryWords = 4

// Table is a linear hash table. Not safe for concurrent use.
type Table struct {
	d       *iomodel.Disk
	mem     *iomodel.Memory
	fn      hashfn.Fn
	heads   []iomodel.BlockID // bucket heads, indexed by split order
	level   uint
	split   int // next bucket to split, in [0, 2^level)
	n       int
	blocks  int
	maxLoad float64 // trigger for splits; default 0.85
	memRes  int64
}

// New returns a table starting with 2^initialLevel buckets.
func New(model *iomodel.Model, fn hashfn.Fn, initialLevel uint) (*Table, error) {
	if initialLevel > 28 {
		return nil, fmt.Errorf("linhash: initial level %d too large", initialLevel)
	}
	if err := model.Mem.Alloc(memoryWords); err != nil {
		return nil, fmt.Errorf("linhash: %w", err)
	}
	size := 1 << initialLevel
	t := &Table{
		d:       model.Disk,
		mem:     model.Mem,
		fn:      fn,
		heads:   make([]iomodel.BlockID, size),
		level:   initialLevel,
		blocks:  size,
		maxLoad: 0.85,
		memRes:  memoryWords,
	}
	for i := range t.heads {
		t.heads[i] = model.Disk.Alloc()
	}
	return t, nil
}

// SetMaxLoad sets the fill threshold that triggers a round-robin split.
func (t *Table) SetMaxLoad(maxLoad float64) { t.maxLoad = maxLoad }

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.n }

// NumBuckets returns the current number of buckets.
func (t *Table) NumBuckets() int { return len(t.heads) }

// Level returns the current level L.
func (t *Table) Level() uint { return t.level }

// SplitPointer returns the next bucket index to split.
func (t *Table) SplitPointer() int { return t.split }

// Fill returns n / (b * buckets).
func (t *Table) Fill() float64 {
	return float64(t.n) / (float64(t.d.B()) * float64(len(t.heads)))
}

// LoadFactor returns ceil(n/b) over occupied blocks.
func (t *Table) LoadFactor() float64 {
	b := t.d.B()
	if t.blocks == 0 {
		return 0
	}
	return float64((t.n+b-1)/b) / float64(t.blocks)
}

// bucket computes the split-aware bucket index of key.
func (t *Table) bucket(key uint64) int {
	h := t.fn.Hash(key)
	i := int(hashfn.TopBits(h, t.level))
	if i < t.split {
		// Bucket i has already split this round; use one more bit.
		// Top-bit refinement maps it to 2i or 2i+1 in the (L+1)-bit
		// space; our heads slice stores the round's new buckets at
		// 2^level + i, so translate.
		j := int(hashfn.TopBits(h, t.level+1))
		if j == 2*i+1 {
			return 1<<t.level + i
		}
		return i
	}
	return i
}

// Insert stores (key, val), overwriting existing values, and returns the
// I/Os spent. A controlled split runs when the fill exceeds the
// threshold.
// The error is always nil: it is in the signature so that all seven
// structures share one method set (extbuf's structure interface).
func (t *Table) Insert(key, val uint64) (int, error) {
	ios, grew, replaced := block.Insert(t.d, t.heads[t.bucket(key)], iomodel.Entry{Key: key, Val: val})
	if grew {
		t.blocks++
	}
	if !replaced {
		t.n++
	}
	if t.maxLoad > 0 && t.Fill() > t.maxLoad {
		ios += t.splitNext()
	}
	return ios, nil
}

// splitNext splits the bucket at the split pointer, advancing the round.
func (t *Table) splitNext() int {
	i := t.split
	head := t.heads[i]
	var buf []iomodel.Entry
	buf, oldBlocks := block.Collect(t.d, head, buf) // one read per block
	var lo, hi []iomodel.Entry
	for _, e := range buf {
		j := int(hashfn.TopBits(t.fn.Hash(e.Key), t.level+1))
		if j == 2*i+1 {
			hi = append(hi, e)
		} else {
			lo = append(lo, e)
		}
	}
	// Rewrite and WriteChain pay one cold write per block they lay out,
	// so the I/O counts double as the block counts.
	loBlocks := block.Rewrite(t.d, head, lo)
	newHead, hiBlocks := block.WriteChain(t.d, hi)
	ios := oldBlocks + loBlocks + hiBlocks
	t.heads = append(t.heads, newHead)
	t.blocks += loBlocks + hiBlocks - oldBlocks
	t.split++
	if t.split == 1<<t.level {
		// Round complete: reorder heads into the natural (L+1)-bit
		// order so the next round's split indices are again aligned.
		t.reorder()
		t.level++
		t.split = 0
	}
	return ios
}

// reorder rearranges heads from round layout [old 0..2^L-1, new 0..2^L-1]
// to interleaved (L+1)-bit order [old0, new0, old1, new1, ...], which is
// the top-bit bucket order at level L+1. Pure memory operation.
func (t *Table) reorder() {
	size := 1 << t.level
	out := make([]iomodel.BlockID, 2*size)
	for i := 0; i < size; i++ {
		out[2*i] = t.heads[i]
		out[2*i+1] = t.heads[size+i]
	}
	t.heads = out
}

// Lookup returns the value for key and the I/Os spent.
func (t *Table) Lookup(key uint64) (val uint64, ok bool, ios int) {
	return block.Find(t.d, t.heads[t.bucket(key)], key)
}

// Delete removes key, reporting presence and the I/Os spent. Linear
// hashing shrinks by reversing splits; for simplicity (and because the
// paper's workloads are insert-dominated) this implementation removes the
// entry and lets the fill drift down without merging.
func (t *Table) Delete(key uint64) (ok bool, ios int) {
	head := t.heads[t.bucket(key)]
	ios, ok, freed := block.Delete(t.d, head, key)
	if ok {
		t.n--
		t.blocks -= freed
	}
	return ok, ios
}

// AddressOf returns the head block of key's bucket for the zones audit.
func (t *Table) AddressOf(key uint64) iomodel.BlockID {
	return t.heads[t.bucket(key)]
}

// MemoryKeys returns nil; only the two control words live in memory.
func (t *Table) MemoryKeys() []uint64 { return nil }

// Disk exposes the underlying disk for audits.
func (t *Table) Disk() *iomodel.Disk { return t.d }

// CheckInvariant verifies that every stored key is in the bucket its
// address function names (test hook, no I/O).
func (t *Table) CheckInvariant() error {
	for i, head := range t.heads {
		for id := head; id != iomodel.NilBlock; id = t.d.Next(id) {
			for _, e := range t.d.Peek(id) {
				if t.bucket(e.Key) != i {
					return fmt.Errorf("linhash: key %d stored in bucket %d, addressed to %d", e.Key, i, t.bucket(e.Key))
				}
			}
		}
	}
	return nil
}

// Close releases the table's memory reservation.
func (t *Table) Close() {
	t.mem.Release(t.memRes)
	t.memRes = 0
}
