// Package twolevel implements a Jensen–Pagh-style high-load external hash
// table: home buckets of one block each filled to load factor
// alpha = 1 - Theta(1/sqrt(b)), with all overflowing items placed in a
// shared low-load overflow hash table.
//
// This is the repository's substitution for the construction of Jensen
// and Pagh ("Optimality in external memory hashing", Algorithmica 2008)
// that the paper cites: maintaining load 1 - O(1/sqrt(b)) while
// supporting queries and updates in 1 + O(1/sqrt(b)) I/Os. With home
// buckets at load alpha, the expected overflow mass per bucket is
// E[(X - b)^+] = Theta(sqrt(b)) for X ~ Binomial(n, 1/buckets) at
// alpha = 1 - 1/sqrt(b), i.e. a Theta(1/sqrt(b)) fraction of all items,
// so lookups and inserts touch the overflow table with probability
// O(1/sqrt(b)) — the same bounds as JP via a much simpler scheme
// (DESIGN.md §5, substitution 3).
//
// # Deletions and the dirty set
//
// A key is placed in overflow only when its home block is full, so an
// insert that finds space in the home block may normally skip the
// duplicate check in overflow. Deleting from a full home block breaks
// that inference; such buckets are recorded in a small in-memory dirty
// set (charged against the memory budget), and inserts into dirty
// buckets pay one extra overflow probe. When the dirty set exceeds its
// bound the structure rebuilds the overflow table, draining items back
// into home blocks with space.
package twolevel

import (
	"fmt"
	"math"
	"math/bits"

	"extbuf/internal/chainhash"
	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
)

// memoryWords is the fixed charged footprint (control words); the dirty
// set charges one word per entry as it grows.
const memoryWords = 4

// Table is a two-level high-load hash table. Not safe for concurrent use.
type Table struct {
	d        *iomodel.Disk
	mem      *iomodel.Memory
	fn       hashfn.Fn
	homes    []iomodel.BlockID
	overflow *chainhash.Table
	dirty    map[int]struct{}
	dirtyCap int
	n        int
	memRes   int64
}

// HomeBucketsFor returns the number of home buckets sizing the table
// for n items at the Jensen–Pagh load factor alpha = 1 - 1/sqrt(b).
// The count is exact (not rounded to a power of two): the home array
// never splits, so it uses multiplicative range mapping and any count
// works — which is what lets the table actually sit at load alpha.
func HomeBucketsFor(n, b int) int {
	alpha := 1 - 1/math.Sqrt(float64(b))
	nh := int(math.Ceil(float64(n) / (alpha * float64(b))))
	if nh < 1 {
		nh = 1
	}
	return nh
}

// New returns a table with exactly nhome home buckets. The overflow
// table starts tiny and doubles on demand: the expected overflow mass
// at JP load is only a Theta(1/sqrt(b)) fraction of the items, so
// growing it lazily keeps the structure's disk footprint — and hence
// its load factor — within 1 + O(1/sqrt(b)) of optimal, which is the
// JP claim itself.
func New(model *iomodel.Model, fn hashfn.Fn, nhome int) (*Table, error) {
	if nhome < 1 {
		return nil, fmt.Errorf("twolevel: nhome must be >= 1, got %d", nhome)
	}
	if err := model.Mem.Alloc(memoryWords); err != nil {
		return nil, fmt.Errorf("twolevel: %w", err)
	}
	ovf, err := chainhash.New(model, fn, 4)
	if err != nil {
		model.Mem.Release(memoryWords)
		return nil, fmt.Errorf("twolevel: overflow table: %w", err)
	}
	ovf.SetMaxLoad(0.5)
	t := &Table{
		d:        model.Disk,
		mem:      model.Mem,
		fn:       fn,
		homes:    make([]iomodel.BlockID, nhome),
		overflow: ovf,
		dirty:    make(map[int]struct{}),
		dirtyCap: 1024,
		memRes:   memoryWords,
	}
	if t.dirtyCap > int(model.Mem.Capacity()/8) {
		t.dirtyCap = int(model.Mem.Capacity() / 8)
		if t.dirtyCap < 16 {
			t.dirtyCap = 16
		}
	}
	for i := range t.homes {
		t.homes[i] = model.Disk.Alloc()
	}
	return t, nil
}

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.n }

// OverflowLen returns the number of entries currently in the overflow
// table (the Theta(1/sqrt(b)) fraction the analysis predicts).
func (t *Table) OverflowLen() int { return t.overflow.Len() }

// NumHomeBuckets returns the number of home buckets.
func (t *Table) NumHomeBuckets() int { return len(t.homes) }

// LoadFactor returns the paper's load factor over all blocks in use.
func (t *Table) LoadFactor() float64 {
	b := t.d.B()
	blocks := len(t.homes) + t.overflow.DiskBlocks()
	return float64((t.n+b-1)/b) / float64(blocks)
}

// home maps the hash to a bucket with multiplicative range mapping
// (hash * nhome) >> 64: uniform for any bucket count, no power-of-two
// rounding, so the configured load factor is hit exactly.
func (t *Table) home(key uint64) int {
	hi, _ := bits.Mul64(t.fn.Hash(key), uint64(len(t.homes)))
	return int(hi)
}

// Insert stores (key, val), overwriting existing values. It returns the
// I/Os spent: 1 when the home block absorbs the item, 1 + overflow cost
// otherwise.
// The error is always nil: it is in the signature so that all seven
// structures share one method set (extbuf's structure interface).
func (t *Table) Insert(key, val uint64) (int, error) {
	h := t.home(key)
	id := t.homes[h]
	buf := t.d.Read(id, t.d.AcquireBuf())
	defer func() { t.d.ReleaseBuf(buf) }()
	ios := 1
	for i := range buf {
		if buf[i].Key == key {
			buf[i].Val = val
			t.d.WriteBack(id, buf)
			return ios, nil
		}
	}
	_, isDirty := t.dirty[h]
	if len(buf) < t.d.B() && !isDirty {
		// Clean bucket with space: key cannot be in overflow.
		buf = append(buf, iomodel.Entry{Key: key, Val: val})
		t.d.WriteBack(id, buf)
		t.n++
		return ios, nil
	}
	if len(buf) < t.d.B() {
		// Dirty bucket: the key may be hiding in overflow. Probe it;
		// if present update there, else claim the home space and the
		// bucket's inference stays broken (still dirty).
		if _, ok, c := t.overflow.Lookup(key); ok {
			ios += c
			c, _ = t.overflow.Insert(key, val) // chainhash inserts cannot fail
			ios += c
			return ios, nil
		} else {
			ios += c
		}
		buf = t.d.Read(id, buf[:0])
		ios++
		buf = append(buf, iomodel.Entry{Key: key, Val: val})
		t.d.WriteBack(id, buf)
		t.n++
		return ios, nil
	}
	// Full home block: the item goes to overflow (chainhash handles
	// duplicates there).
	before := t.overflow.Len()
	c, _ := t.overflow.Insert(key, val) // chainhash inserts cannot fail
	ios += c
	if t.overflow.Len() > before {
		t.n++
	}
	return ios, nil
}

// Lookup returns the value for key and the I/Os spent: 1 when the home
// block holds it, 1 + overflow cost otherwise. A miss in a non-full clean
// home block stops immediately — the key cannot be in overflow.
func (t *Table) Lookup(key uint64) (val uint64, ok bool, ios int) {
	h := t.home(key)
	id := t.homes[h]
	buf := t.d.ReadPinned(id)
	ios = 1
	for i := range buf {
		if buf[i].Key == key {
			v := buf[i].Val
			t.d.Unpin(id)
			return v, true, ios
		}
	}
	full := len(buf) == t.d.B()
	t.d.Unpin(id)
	_, isDirty := t.dirty[h]
	if !full && !isDirty {
		return 0, false, ios
	}
	val, ok, c := t.overflow.Lookup(key)
	return val, ok, ios + c
}

// Delete removes key, marking the bucket dirty when it breaks the
// full-home inference, and rebuilding the overflow table when the dirty
// set outgrows its memory bound. Reports presence and I/Os spent.
func (t *Table) Delete(key uint64) (ok bool, ios int) {
	h := t.home(key)
	id := t.homes[h]
	buf := t.d.Read(id, t.d.AcquireBuf())
	defer func() { t.d.ReleaseBuf(buf) }()
	ios = 1
	for i := range buf {
		if buf[i].Key == key {
			wasFull := len(buf) == t.d.B()
			buf[i] = buf[len(buf)-1]
			buf = buf[:len(buf)-1]
			t.d.WriteBack(id, buf)
			t.n--
			if wasFull {
				if _, already := t.dirty[h]; !already {
					if err := t.mem.Alloc(1); err == nil {
						t.memRes++
						t.dirty[h] = struct{}{}
					} else {
						// No memory for another dirty word: rebuild now.
						ios += t.rebuildOverflow()
					}
					if len(t.dirty) > t.dirtyCap {
						ios += t.rebuildOverflow()
					}
				}
			}
			return true, ios
		}
	}
	_, isDirty := t.dirty[h]
	if len(buf) < t.d.B() && !isDirty {
		return false, ios
	}
	delOK, c := t.overflow.Delete(key)
	if delOK {
		t.n--
	}
	return delOK, ios + c
}

// rebuildOverflow drains overflow items back into home blocks with
// space, rebuilds the overflow table with the remainder, and clears the
// dirty set. Returns the I/Os spent.
func (t *Table) rebuildOverflow() int {
	entries, ios := t.overflow.CollectAll(nil)
	// Group overflow items by home bucket.
	byHome := make(map[int][]iomodel.Entry)
	for _, e := range entries {
		h := t.home(e.Key)
		byHome[h] = append(byHome[h], e)
	}
	var stay []iomodel.Entry
	for h, es := range byHome {
		id := t.homes[h]
		buf := t.d.Read(id, nil)
		ios++
		space := t.d.B() - len(buf)
		take := space
		if take > len(es) {
			take = len(es)
		}
		buf = append(buf, es[:take]...)
		t.d.WriteBack(id, buf)
		stay = append(stay, es[take:]...)
	}
	t.overflow.Reset()
	ios += t.overflow.BulkLoad(stay)
	t.mem.Release(int64(len(t.dirty)))
	t.memRes -= int64(len(t.dirty))
	t.dirty = make(map[int]struct{})
	return ios
}

// AddressOf returns the home block of key for the zones audit. Items in
// overflow are outside B_f(x) and therefore in the paper's slow zone —
// the O(1/sqrt(b)) slow-zone mass is exactly what buys the high load
// factor.
func (t *Table) AddressOf(key uint64) iomodel.BlockID {
	return t.homes[t.home(key)]
}

// MemoryKeys returns nil: the dirty set stores bucket indices, not items.
func (t *Table) MemoryKeys() []uint64 { return nil }

// Disk exposes the underlying disk for audits.
func (t *Table) Disk() *iomodel.Disk { return t.d }

// Close releases the table's memory reservations.
func (t *Table) Close() {
	t.overflow.Close()
	t.mem.Release(t.memRes)
	t.memRes = 0
}
