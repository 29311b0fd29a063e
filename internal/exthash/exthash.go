// Package exthash implements extendible hashing (Fagin, Nievergelt,
// Pippenger, Strong 1979), one of the two classical directory schemes the
// paper cites for maintaining the load factor of an external hash table
// at an extra amortized cost of O(1/b) I/Os per insertion.
//
// A memory-resident directory of 2^g pointers (g = global depth) maps the
// top g bits of the hash to a bucket block; each bucket has a local depth
// ld <= g and is shared by the 2^(g-ld) directory slots agreeing on its
// top ld bits. A bucket that overflows splits on bit ld+1; if ld = g the
// directory doubles. Buckets are single blocks — extendible hashing has
// no overflow chains, so every lookup costs exactly one I/O.
//
// The directory lives in main memory and its 2^g words are charged
// against the model's memory budget, which is how the paper's
// memory-computable address function f accounts for such structures.
package exthash

import (
	"fmt"

	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
)

// Table is an extendible hash table. Not safe for concurrent use.
type Table struct {
	d      *iomodel.Disk
	mem    *iomodel.Memory
	fn     hashfn.Fn
	dir    []iomodel.BlockID
	depth  []uint8 // local depth, parallel to dir (duplicated across shared slots)
	global uint
	n      int
	memRes int64
}

// overheadWords is the fixed in-memory footprint beyond the directory.
const overheadWords = 4

// New returns a table with an initial directory of 2^initialDepth slots.
func New(model *iomodel.Model, fn hashfn.Fn, initialDepth uint) (*Table, error) {
	if initialDepth > 28 {
		return nil, fmt.Errorf("exthash: initial depth %d too large", initialDepth)
	}
	size := 1 << initialDepth
	// Directory slots plus one local-depth word per slot.
	res := int64(overheadWords + 2*size)
	if err := model.Mem.Alloc(res); err != nil {
		return nil, fmt.Errorf("exthash: %w", err)
	}
	t := &Table{
		d:      model.Disk,
		mem:    model.Mem,
		fn:     fn,
		dir:    make([]iomodel.BlockID, size),
		depth:  make([]uint8, size),
		global: initialDepth,
		memRes: res,
	}
	for i := range t.dir {
		t.dir[i] = model.Disk.Alloc()
		t.depth[i] = uint8(initialDepth)
	}
	return t, nil
}

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.n }

// GlobalDepth returns the current directory depth g.
func (t *Table) GlobalDepth() uint { return t.global }

// LoadFactor returns ceil(n/b) over the number of distinct buckets.
func (t *Table) LoadFactor() float64 {
	b := t.d.B()
	distinct := t.NumBuckets()
	if distinct == 0 {
		return 0
	}
	return float64((t.n+b-1)/b) / float64(distinct)
}

// NumBuckets returns the number of distinct bucket blocks.
func (t *Table) NumBuckets() int {
	seen := make(map[iomodel.BlockID]struct{}, len(t.dir))
	for _, id := range t.dir {
		seen[id] = struct{}{}
	}
	return len(seen)
}

func (t *Table) slot(key uint64) int {
	return int(hashfn.TopBits(t.fn.Hash(key), t.global))
}

// Insert stores (key, val), overwriting an existing value. It returns
// the I/Os spent.
// The error is always nil: it is in the signature so that all seven
// structures share one method set (extbuf's structure interface).
func (t *Table) Insert(key, val uint64) (int, error) {
	ios := 0
	for attempt := 0; attempt < 64; attempt++ {
		s := t.slot(key)
		id := t.dir[s]
		buf := t.d.Read(id, nil)
		ios++
		for i := range buf {
			if buf[i].Key == key {
				buf[i].Val = val
				t.d.WriteBack(id, buf)
				return ios, nil
			}
		}
		if len(buf) < t.d.B() {
			buf = append(buf, iomodel.Entry{Key: key, Val: val})
			t.d.WriteBack(id, buf)
			t.n++
			return ios, nil
		}
		ios += t.split(s, buf)
	}
	panic("exthash: insert failed after 64 splits (hash family degenerate)")
}

// split divides the overfull bucket serving slot s. buf holds the bucket
// contents already read by the caller. Returns extra I/Os spent.
func (t *Table) split(s int, buf []iomodel.Entry) int {
	ios := 0
	ld := uint(t.depth[s])
	if ld == t.global {
		t.doubleDir()
		s <<= 1 // slot index in the doubled directory
	}
	ld++
	// The bucket's slots in the current directory share the top ld-1 hash
	// bits; they form a contiguous run of length 2^(g-(ld-1)) starting at
	// the run base. Split entries on hash bit ld (counting from the top).
	runLen := 1 << (t.global - (ld - 1))
	base := (s / runLen) * runLen
	oldID := t.dir[base]
	var lo, hi []iomodel.Entry
	for _, e := range buf {
		if hashfn.TopBits(t.fn.Hash(e.Key), ld)&1 == 0 {
			lo = append(lo, e)
		} else {
			hi = append(hi, e)
		}
	}
	newID := t.d.Alloc()
	t.d.WriteBack(oldID, lo) // caller just read oldID
	t.d.Write(newID, hi)
	ios++
	half := runLen / 2
	for i := base; i < base+half; i++ {
		t.dir[i] = oldID
		t.depth[i] = uint8(ld)
	}
	for i := base + half; i < base+runLen; i++ {
		t.dir[i] = newID
		t.depth[i] = uint8(ld)
	}
	return ios
}

// doubleDir doubles the directory, charging the extra memory.
func (t *Table) doubleDir() {
	extra := int64(2 * len(t.dir))
	t.mem.MustAlloc(extra)
	t.memRes += extra
	nd := make([]iomodel.BlockID, 2*len(t.dir))
	ndep := make([]uint8, 2*len(t.dir))
	for i, id := range t.dir {
		nd[2*i], nd[2*i+1] = id, id
		ndep[2*i], ndep[2*i+1] = t.depth[i], t.depth[i]
	}
	t.dir = nd
	t.depth = ndep
	t.global++
}

// Lookup returns the value for key; every lookup costs exactly 1 I/O.
func (t *Table) Lookup(key uint64) (val uint64, ok bool, ios int) {
	id := t.dir[t.slot(key)]
	buf := t.d.ReadPinned(id)
	for i := range buf {
		if buf[i].Key == key {
			v := buf[i].Val
			t.d.Unpin(id)
			return v, true, 1
		}
	}
	t.d.Unpin(id)
	return 0, false, 1
}

// Delete removes key, merging buddy buckets when both halves fit in one
// block, and halving the directory when every bucket's local depth
// permits. Reports presence and I/Os spent.
func (t *Table) Delete(key uint64) (ok bool, ios int) {
	s := t.slot(key)
	id := t.dir[s]
	buf := t.d.Read(id, t.d.AcquireBuf())
	defer func() { t.d.ReleaseBuf(buf) }()
	ios++
	hit := -1
	for i, e := range buf {
		if e.Key == key {
			hit = i
			break
		}
	}
	if hit < 0 {
		return false, ios
	}
	buf[hit] = buf[len(buf)-1]
	buf = buf[:len(buf)-1]
	t.d.WriteBack(id, buf)
	t.n--
	ios += t.tryMerge(s, len(buf))
	return true, ios
}

// tryMerge coalesces the bucket serving slot s with its buddy if their
// combined contents fit in one block and they have equal local depth.
// It then halves the directory while possible.
func (t *Table) tryMerge(s int, curLen int) int {
	ios := 0
	for {
		ld := uint(t.depth[s])
		if ld == 0 {
			break
		}
		runLen := 1 << (t.global - ld)
		base := (s / runLen) * runLen
		var buddyBase int
		if (base/runLen)%2 == 0 {
			buddyBase = base + runLen
		} else {
			buddyBase = base - runLen
		}
		if t.depth[buddyBase] != uint8(ld) {
			break
		}
		buddyID := t.dir[buddyBase]
		myID := t.dir[base]
		buddy := t.d.Read(buddyID, t.d.AcquireBuf())
		ios++
		if curLen+len(buddy) > t.d.B() {
			t.d.ReleaseBuf(buddy)
			break
		}
		mine := t.d.Read(myID, t.d.AcquireBuf())
		ios++
		merged := append(mine, buddy...)
		t.d.WriteBack(myID, merged)
		t.d.ReleaseBuf(buddy)
		t.d.ReleaseBuf(merged)
		t.d.Free(buddyID)
		lo := base
		if buddyBase < base {
			lo = buddyBase
		}
		for i := lo; i < lo+2*runLen; i++ {
			t.dir[i] = myID
			t.depth[i] = uint8(ld - 1)
		}
		curLen = len(merged)
		s = lo
	}
	// Halve once after all merges: halving renumbers slots, so it must
	// not run while the loop still holds a slot index.
	t.tryHalveDir()
	return ios
}

// tryHalveDir shrinks the directory while no bucket needs the last bit.
func (t *Table) tryHalveDir() {
	for t.global > 0 {
		canHalve := true
		for i := 0; i < len(t.dir); i += 2 {
			if t.dir[i] != t.dir[i+1] {
				canHalve = false
				break
			}
		}
		if !canHalve {
			return
		}
		nd := make([]iomodel.BlockID, len(t.dir)/2)
		ndep := make([]uint8, len(t.dir)/2)
		for i := range nd {
			nd[i] = t.dir[2*i]
			ndep[i] = t.depth[2*i]
		}
		released := int64(2 * len(nd))
		t.dir = nd
		t.depth = ndep
		t.global--
		t.mem.Release(released)
		t.memRes -= released
	}
}

// AddressOf returns the directory-resolved block for key (the zones
// audit's f). Every stored item is in its addressed block, so the whole
// table is fast zone — the price is the directory's memory and the ~1
// I/O insertion cost.
func (t *Table) AddressOf(key uint64) iomodel.BlockID {
	return t.dir[t.slot(key)]
}

// MemoryKeys returns nil: the directory holds pointers, not items.
func (t *Table) MemoryKeys() []uint64 { return nil }

// Disk exposes the underlying disk for audits.
func (t *Table) Disk() *iomodel.Disk { return t.d }

// CheckInvariant validates directory/bucket consistency (test hook): the
// slots sharing a bucket form exactly the aligned run its local depth
// implies, and every stored key hashes into the bucket that holds it.
func (t *Table) CheckInvariant() error {
	for s, id := range t.dir {
		ld := uint(t.depth[s])
		if ld > t.global {
			return fmt.Errorf("exthash: slot %d local depth %d > global %d", s, ld, t.global)
		}
		runLen := 1 << (t.global - ld)
		base := (s / runLen) * runLen
		for i := base; i < base+runLen; i++ {
			if t.dir[i] != id {
				return fmt.Errorf("exthash: run [%d,%d) of slot %d not uniform", base, base+runLen, s)
			}
			if t.depth[i] != uint8(ld) {
				return fmt.Errorf("exthash: run of slot %d has mixed depths", s)
			}
		}
		for _, e := range t.d.Peek(id) {
			if t.dir[t.slot(e.Key)] != id {
				return fmt.Errorf("exthash: key %d stored in block %d but addressed to %d", e.Key, id, t.dir[t.slot(e.Key)])
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
