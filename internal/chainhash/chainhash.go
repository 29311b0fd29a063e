// Package chainhash implements the classical external hash table with
// chaining, the structure behind Knuth's analysis (TAOCP vol. 3 §6.4)
// that the paper cites as the baseline: with load factor bounded below 1,
// a successful lookup costs 1 + 1/2^Omega(b) I/Os on average and an
// insertion costs the same (the read and the write-back of the target
// block count as one seek).
//
// The table is an array of buckets; bucket i's head occupies one disk
// block and overflowing buckets grow a chain of overflow blocks. The
// address function f(x) = heads[TopBits(h(x))] is computable from O(1)
// words of memory (base address and bucket count), which is exactly the
// paper's requirement that f be memory-computable; the heads slice is an
// addressing convenience, not charged memory.
//
// This is the upper bound for the regime t_q = 1 + Theta(1/b^c), c > 1,
// of Figure 1: buffering is useless there, and the plain table is already
// optimal to within 1/2^Omega(b).
package chainhash

import (
	"fmt"
	"slices"

	"extbuf/internal/block"
	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
)

// Table is an external chaining hash table. It is not safe for concurrent
// use.
type Table struct {
	d       *iomodel.Disk
	mem     *iomodel.Memory
	fn      hashfn.Fn
	heads   []iomodel.BlockID
	bits    uint
	n       int
	blocks  int     // blocks owned by this table (heads + overflow)
	maxLoad float64 // grow when n/(blocks*b) would exceed this; 0 = fixed
	memRes  int64   // words charged against mem

	// Grouping scratch of EachBucketGroup, reused across calls so bulk
	// merges and loads build no per-call maps or slices: msort holds one
	// word per entry, its bucket in the high half and its input position
	// in the low half; mrun holds the group being visited.
	msort []uint64
	mrun  []iomodel.Entry
}

// memoryWords is the in-memory footprint charged by the table: base
// address, bucket-count, item count and the hash seed.
const memoryWords = 4

// New returns a table with nbuckets buckets (rounded up to a power of
// two) drawing blocks from model's disk. The construction performs no
// I/O: blocks come zeroed from the allocator.
func New(model *iomodel.Model, fn hashfn.Fn, nbuckets int) (*Table, error) {
	if nbuckets < 1 {
		return nil, fmt.Errorf("chainhash: nbuckets must be >= 1, got %d", nbuckets)
	}
	nbuckets = hashfn.CeilPow2(nbuckets)
	if err := model.Mem.Alloc(memoryWords); err != nil {
		return nil, fmt.Errorf("chainhash: %w", err)
	}
	t := &Table{
		d:      model.Disk,
		mem:    model.Mem,
		fn:     fn,
		heads:  make([]iomodel.BlockID, nbuckets),
		bits:   uint(hashfn.Log2(nbuckets)),
		blocks: nbuckets,
		memRes: memoryWords,
	}
	for i := range t.heads {
		t.heads[i] = model.Disk.Alloc()
	}
	return t, nil
}

// SetMaxLoad enables automatic doubling: after an insert pushes the load
// factor n/(b*buckets) above maxLoad the table doubles its bucket count.
// Zero (the default) keeps the bucket count fixed, matching Knuth's
// static analysis.
func (t *Table) SetMaxLoad(maxLoad float64) { t.maxLoad = maxLoad }

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.n }

// NumBuckets returns the bucket count.
func (t *Table) NumBuckets() int { return len(t.heads) }

// DiskBlocks returns the number of disk blocks the table occupies.
func (t *Table) DiskBlocks() int { return t.blocks }

// LoadFactor returns the paper's load factor: ceil(n/b) over the blocks
// actually used.
func (t *Table) LoadFactor() float64 {
	b := t.d.B()
	need := (t.n + b - 1) / b
	if t.blocks == 0 {
		return 0
	}
	return float64(need) / float64(t.blocks)
}

// Fill returns n/(b*buckets), the mean bucket occupancy fraction used to
// decide growth.
func (t *Table) Fill() float64 {
	return float64(t.n) / (float64(t.d.B()) * float64(len(t.heads)))
}

func (t *Table) bucket(key uint64) int {
	return int(hashfn.TopBits(t.fn.Hash(key), t.bits))
}

// Insert stores (key, val), overwriting any existing value for key, and
// returns the I/Os spent.
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
		ios += t.grow()
	}
	return ios, nil
}

// Lookup returns the value stored for key and the I/Os spent. A lookup
// that finds the key in its bucket's head block costs exactly 1 I/O.
func (t *Table) Lookup(key uint64) (val uint64, ok bool, ios int) {
	return block.Find(t.d, t.heads[t.bucket(key)], key)
}

// Delete removes key, reporting whether it was present and the I/Os
// spent.
func (t *Table) Delete(key uint64) (ok bool, ios int) {
	ios, ok, freed := block.Delete(t.d, t.heads[t.bucket(key)], key)
	if ok {
		t.n--
		t.blocks -= freed
	}
	return ok, ios
}

// Update finds key and passes its stored value to fn, which returns the
// value to store and whether to store it (see block.Update); it never
// inserts. Returns whether the key was found and the I/Os spent — a
// lookup's cost. Used by the upsert and compare-and-swap paths, which
// must not create a second copy of a key.
func (t *Table) Update(key uint64, fn func(cur uint64) (val uint64, write bool)) (ok bool, ios int) {
	return block.Update(t.d, t.heads[t.bucket(key)], key, fn)
}

// EachBucketGroup groups entries by the bucket their key hashes to and
// calls visit once per non-empty group, in ascending bucket order, each
// group in input order. It is the grouping step of every bulk path — a
// reusable sort instead of a per-call map or slice per bucket: no
// allocation in steady state, and a deterministic write sequence (a map
// walk would randomize it per process, breaking crash-point replay).
// group is the table's scratch, valid only during the call; visit must
// not start another grouping on the same table.
func (t *Table) EachBucketGroup(entries []iomodel.Entry, visit func(bucket int, group []iomodel.Entry)) {
	t.msort = t.msort[:0]
	for i, e := range entries {
		t.msort = append(t.msort, uint64(t.bucket(e.Key))<<32|uint64(uint32(i)))
	}
	slices.Sort(t.msort)
	for start := 0; start < len(t.msort); {
		bucket := t.msort[start] >> 32
		t.mrun = t.mrun[:0]
		for ; start < len(t.msort) && t.msort[start]>>32 == bucket; start++ {
			t.mrun = append(t.mrun, entries[uint32(t.msort[start])])
		}
		visit(int(bucket), t.mrun)
	}
}

// MergeIn bulk-merges entries (whose keys must not already be present)
// into the table with one sequential pass per touched bucket: each chain
// block is read once and written back for free (footnote 2 accounting),
// and only newly allocated overflow blocks pay cold writes. This is the
// paper's "merge by scanning the two tables in parallel" and the engine
// of both the Theorem 2 structure and the staged strategy. Returns the
// I/Os spent.
func (t *Table) MergeIn(entries []iomodel.Entry) int {
	if len(entries) == 0 {
		return 0
	}
	ios := 0
	b := t.d.B()
	buf := t.d.AcquireBuf()
	t.EachBucketGroup(entries, func(i int, g []iomodel.Entry) {
		id := t.heads[i]
		for {
			buf = t.d.Read(id, buf[:0])
			ios++
			for len(g) > 0 && len(buf) < b {
				buf = append(buf, g[0])
				g = g[1:]
			}
			next := t.d.Next(id)
			if len(g) > 0 && next == iomodel.NilBlock {
				// Chain exhausted with items remaining: allocate the
				// overflow blocks first (allocation is free), link them
				// into the header that rides the free write-back, then
				// pay one cold write per new block.
				need := (len(g) + b - 1) / b
				ids := make([]iomodel.BlockID, need)
				for j := range ids {
					ids[j] = t.d.Alloc()
				}
				for j := 0; j+1 < need; j++ {
					t.d.SetNext(ids[j], ids[j+1])
				}
				t.d.SetNext(id, ids[0])
				t.d.WriteBack(id, buf)
				for j := 0; j < need; j++ {
					chunk := g
					if len(chunk) > b {
						chunk = g[:b]
					}
					t.d.Write(ids[j], chunk)
					ios++
					g = g[len(chunk):]
				}
				t.blocks += need
				return
			}
			t.d.WriteBack(id, buf)
			if len(g) == 0 {
				return
			}
			id = next
		}
	})
	t.d.ReleaseBuf(buf)
	t.n += len(entries)
	return ios
}

// Grow doubles the bucket count with a sequential rebuild and returns
// the I/Os spent. Exposed for structures (core, staged) that manage
// their own growth policy.
func (t *Table) Grow() int { return t.grow() }

// grow doubles the bucket count, splitting bucket i into buckets 2i and
// 2i+1 (top-bit addressing makes the split a sequential scan). Returns
// the I/Os spent.
func (t *Table) grow() int {
	old := t.heads
	newHeads := make([]iomodel.BlockID, 2*len(old))
	ios := 0
	blocks := 0
	var buf []iomodel.Entry
	var lo, hi []iomodel.Entry
	newBits := t.bits + 1
	for i, head := range old {
		buf = buf[:0]
		buf, c := block.Collect(t.d, head, buf)
		ios += c
		lo, hi = lo[:0], hi[:0]
		for _, e := range buf {
			if int(hashfn.TopBits(t.fn.Hash(e.Key), newBits)) == 2*i {
				lo = append(lo, e)
			} else {
				hi = append(hi, e)
			}
		}
		block.FreeChain(t.d, head)
		var w int
		newHeads[2*i], w = block.WriteChain(t.d, lo)
		ios += w
		blocks += w
		newHeads[2*i+1], w = block.WriteChain(t.d, hi)
		ios += w
		blocks += w
	}
	t.heads = newHeads
	t.bits = newBits
	t.blocks = blocks
	return ios
}

// BucketHead returns the head block of bucket i. It exists for merge
// paths (package logmethod and the Theorem 2 structure) that rewrite
// chains directly with sequential scans; plain clients never need it.
func (t *Table) BucketHead(i int) iomodel.BlockID { return t.heads[i] }

// AdjustAfterMerge fixes the table's bookkeeping after a caller has
// rewritten bucket chains directly via BucketHead: addedEntries and
// addedBlocks are the net changes in entry count and in chain blocks,
// which the rewriter knows from what it allocated and freed — the table
// does not walk its chains to find out (on a file store every link
// followed is a possible block read the model never charges).
func (t *Table) AdjustAfterMerge(addedEntries, addedBlocks int) {
	t.n += addedEntries
	t.blocks += addedBlocks
}

// CollectAll reads every block of the table in bucket order, appending
// all entries to buf, and returns the entries and the I/Os spent (one per
// block). This is the sequential scan primitive used by rebuilds and
// merges.
func (t *Table) CollectAll(buf []iomodel.Entry) ([]iomodel.Entry, int) {
	ios := 0
	for _, head := range t.heads {
		var c int
		buf, c = block.Collect(t.d, head, buf)
		ios += c
	}
	return buf, ios
}

// BulkLoad replaces the table's entire contents with entries (which must
// have distinct keys), grouping them by bucket and writing each bucket's
// chain sequentially. It returns the I/Os spent: one cold write per
// written block, the optimal layout cost. Buckets that receive nothing
// are skipped when the table is already empty (their heads are clear),
// and cleared otherwise.
func (t *Table) BulkLoad(entries []iomodel.Entry) int {
	wasEmpty := t.n == 0
	ios, blocks := 0, 0
	next := 0 // first bucket not yet visited
	// skipTo passes over buckets [next, i), which receive nothing.
	skipTo := func(i int) {
		if !wasEmpty {
			for _, head := range t.heads[next:i] {
				block.FreeChainTail(t.d, head)
				t.d.Clear(head)
			}
		}
		blocks += i - next
		next = i + 1
	}
	t.EachBucketGroup(entries, func(i int, g []iomodel.Entry) {
		skipTo(i)
		w := block.Rewrite(t.d, t.heads[i], g)
		ios += w
		blocks += w // Rewrite pays one cold write per block of the new chain
	})
	skipTo(len(t.heads))
	t.n = len(entries)
	t.blocks = blocks
	return ios
}

// Reset empties the table, freeing all overflow blocks and clearing the
// head blocks. No I/O is charged: discarding data is a format/TRIM
// operation, not a transfer (see iomodel.Disk.Clear).
func (t *Table) Reset() {
	for _, head := range t.heads {
		block.FreeChainTail(t.d, head)
		t.d.Clear(head)
	}
	t.n = 0
	t.blocks = len(t.heads)
}

// AddressOf returns the primary block f(x) for key: the head of its
// bucket's chain. This is the paper's memory-computable address function,
// used by the zones audit.
func (t *Table) AddressOf(key uint64) iomodel.BlockID {
	return t.heads[t.bucket(key)]
}

// Copies counts the entries stored under key in its bucket's chain
// without performing I/O (Peek; an audit, never operation logic). A
// chain holds a key at most once, so anything above 1 is corruption.
func (t *Table) Copies(key uint64) int {
	n := 0
	for id := t.heads[t.bucket(key)]; id != iomodel.NilBlock; id = t.d.Next(id) {
		for _, e := range t.d.Peek(id) {
			if e.Key == key {
				n++
			}
		}
	}
	return n
}

// MemoryKeys returns the keys held in the memory zone; the plain table
// buffers nothing.
func (t *Table) MemoryKeys() []uint64 { return nil }

// Disk exposes the underlying disk for audits.
func (t *Table) Disk() *iomodel.Disk { return t.d }

// Close releases the table's memory reservation. The disk blocks remain
// until freed by the caller (experiments usually discard the whole
// model).
func (t *Table) Close() {
	t.mem.Release(t.memRes)
	t.memRes = 0
}
