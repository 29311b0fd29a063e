// Package logmethod implements the logarithmic method hash table of
// Lemma 5 of Wei, Yi, Zhang (SPAA 2009): Bentley's logarithmic method
// applied to a standard external hash table.
//
// For a parameter gamma >= 2 the structure maintains a series of hash
// tables H_0, H_1, ..., where H_k has gamma^k * (m/b) buckets and stores
// up to (1/2) * gamma^k * m items, so its load factor never exceeds 1/2.
// H_0 lives in memory; the rest are chained external hash tables on
// disk. A new item always enters H_0; when H_k fills, its items migrate
// into H_(k+1) by a sequential parallel scan (top-bit bucket indexing
// makes bucket j of H_k feed exactly the consecutive buckets
// [j*gamma, (j+1)*gamma) of H_(k+1)).
//
// Lemma 5's bounds, which the benchmarks reproduce: insertions cost
// amortized O((gamma/b) * log_gamma(n/m)) I/Os and lookups cost expected
// average O(log_gamma(n/m)) I/Os.
//
// Deviation from the paper: gamma is rounded up to a power of two so
// that bucket counts stay powers of two under top-bit addressing. The
// paper allows arbitrary gamma >= 2; the experiments use 2, 4, 8.
package logmethod

import (
	"fmt"
	"slices"

	"extbuf/internal/chainhash"
	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
)

// Config parametrizes the structure.
type Config struct {
	// Gamma is the growth factor between successive tables (>= 2;
	// rounded up to a power of two).
	Gamma int
	// H0Cap caps the in-memory table H_0, in items. Zero selects
	// m/4, leaving room for merge scratch space within the budget.
	H0Cap int
}

// Table is a logarithmic-method hash table. Not safe for concurrent use.
type Table struct {
	model  *iomodel.Model
	fn     hashfn.Fn
	gamma  int
	h0     map[uint64]uint64
	h0cap  int
	levels []*level // levels[i] is H_(i+1); nil entries never occur
	n      int
	memRes int64
	// migrations counts level-merge events, exposed for experiments.
	migrations int

	// Merge scratch, reused so flushes and level merges build no
	// per-call maps or slices: moveBuf carries the entries one migration
	// moves (H_0's, or a level's — a migration finishes with them before
	// the next one collects), mkeys one bucket's fresh keys sorted for
	// mergeChain's shadow test, mpend mergeChain's placement queue.
	moveBuf []iomodel.Entry
	mkeys   []uint64
	mpend   []iomodel.Entry
}

// level wraps one disk-resident table H_k with its item capacity.
type level struct {
	t   *chainhash.Table
	cap int
}

// scratchWords is the transient merge buffer charged against memory:
// one source bucket plus one target bucket of entries.
const scratchWords = 4

// New returns an empty structure on the model. It errors if the memory
// budget cannot hold H_0 plus merge scratch (roughly m/4 + 4b + 16
// words).
func New(model *iomodel.Model, fn hashfn.Fn, cfg Config) (*Table, error) {
	gamma := cfg.Gamma
	if gamma < 2 {
		gamma = 2
	}
	gamma = hashfn.CeilPow2(gamma)
	h0cap := cfg.H0Cap
	if h0cap == 0 {
		h0cap = int(model.MWords() / 4)
	}
	if h0cap < 1 {
		return nil, fmt.Errorf("logmethod: H0 capacity %d < 1", h0cap)
	}
	res := int64(h0cap) + int64(scratchWords*model.B()) + 16
	if err := model.Mem.Alloc(res); err != nil {
		return nil, fmt.Errorf("logmethod: %w", err)
	}
	return &Table{
		model:  model,
		fn:     fn,
		gamma:  gamma,
		h0:     make(map[uint64]uint64, h0cap),
		h0cap:  h0cap,
		memRes: res,
	}, nil
}

// Gamma returns the (power-of-two-rounded) growth factor.
func (t *Table) Gamma() int { return t.gamma }

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.n }

// H0Len returns the number of entries buffered in memory.
func (t *Table) H0Len() int { return len(t.h0) }

// Levels returns the number of disk-resident tables (occupied or not).
func (t *Table) Levels() int { return len(t.levels) }

// LevelLen returns the number of entries in disk level k (1-based, as in
// the paper's H_k). It returns 0 for out-of-range k.
func (t *Table) LevelLen(k int) int {
	if k < 1 || k > len(t.levels) {
		return 0
	}
	return t.levels[k-1].t.Len()
}

// Migrations returns the number of level merges performed.
func (t *Table) Migrations() int { return t.migrations }

// levelCap returns the item capacity of disk level k (1-based):
// (1/2) * gamma^k * h0cap * 2 — i.e. H_k holds gamma^k times H_0's
// capacity, at load <= 1/2 given its bucket count.
func (t *Table) levelCap(k int) int {
	c := t.h0cap
	for i := 0; i < k; i++ {
		c *= t.gamma
	}
	return c
}

// ensureLevel materializes disk level k (1-based) if needed.
func (t *Table) ensureLevel(k int) error {
	for len(t.levels) < k {
		idx := len(t.levels) + 1
		cap := t.levelCap(idx)
		nb := hashfn.CeilPow2((2*cap + t.model.B() - 1) / t.model.B())
		ch, err := chainhash.New(t.model, t.fn, nb)
		if err != nil {
			return fmt.Errorf("logmethod: level %d: %w", idx, err)
		}
		t.levels = append(t.levels, &level{t: ch, cap: cap})
	}
	return nil
}

// Insert stores (key, val), overwriting an existing value, and returns
// the I/Os spent. The item lands in H_0 for free; migrations are charged
// when they run.
func (t *Table) Insert(key, val uint64) (int, error) {
	// Overwrite semantics: if the key is already on disk, the freshest
	// version in H_0 must shadow it. Lookup resolves H_0 first, and
	// merges resolve duplicates in favour of the smaller level, so a
	// plain H_0 store suffices.
	if _, ok := t.h0[key]; !ok && len(t.h0) >= t.h0cap {
		ios, err := t.flushH0()
		if err != nil {
			return ios, err
		}
		t.h0[key] = val
		t.recount()
		return ios, nil
	}
	t.h0[key] = val
	t.recount()
	return 0, nil
}

// recount recomputes n from the level sizes. H_0 inserts may shadow disk
// entries, so n is maintained as "sum of level lengths" with duplicates
// resolved at merge time; for the insert-only workloads of the paper the
// count is exact, and with overwrites it is an upper bound until the
// next merge deduplicates.
func (t *Table) recount() {
	n := len(t.h0)
	for _, lv := range t.levels {
		n += lv.t.Len()
	}
	t.n = n
}

// flushH0 migrates H_0 into H_1, cascading carries first so every level
// has room. Returns the I/Os spent.
func (t *Table) flushH0() (int, error) {
	ios, err := t.makeRoom(1, len(t.h0))
	if err != nil {
		return ios, err
	}
	entries := t.moveBuf[:0]
	for k, v := range t.h0 {
		entries = append(entries, iomodel.Entry{Key: k, Val: v})
	}
	ios += t.mergeInto(1, entries)
	t.moveBuf = entries[:0]
	clear(t.h0)
	t.migrations++
	t.recount()
	return ios, nil
}

// makeRoom guarantees disk level k can absorb extra items, migrating it
// into level k+1 first when it cannot.
func (t *Table) makeRoom(k, extra int) (int, error) {
	if err := t.ensureLevel(k); err != nil {
		return 0, err
	}
	lv := t.levels[k-1]
	if lv.t.Len()+extra <= lv.cap {
		return 0, nil
	}
	ios, err := t.makeRoom(k+1, lv.t.Len())
	if err != nil {
		return ios, err
	}
	moved, c := lv.t.CollectAll(t.moveBuf[:0])
	ios += c
	ios += t.mergeInto(k+1, moved)
	t.moveBuf = moved[:0]
	lv.t.Reset()
	t.migrations++
	return ios, nil
}

// mergeInto merges entries (grouped arbitrarily) into disk level k with
// a bucket-by-bucket sequential scan. An empty target level takes the
// pure bulk-load path (cold writes only, no reads). Otherwise each
// touched bucket is merged by mergeChain in one streaming pass: every
// chain block is read once and written back for free (footnote 2 of the
// paper — this is the "scanning the two tables in parallel" merge), with
// cold writes only for net growth. Memory held at any instant is one
// bucket's worth, within the scratch reservation.
func (t *Table) mergeInto(k int, entries []iomodel.Entry) int {
	lv := t.levels[k-1]
	if lv.t.Len() == 0 {
		return lv.t.BulkLoad(entries)
	}
	ios := 0
	added := 0
	blocks := 0
	lv.t.EachBucketGroup(entries, func(i int, g []iomodel.Entry) {
		c, a, b := t.mergeChain(lv.t.BucketHead(i), g)
		ios += c
		added += a
		blocks += b
	})
	lv.t.AdjustAfterMerge(added, blocks)
	return ios
}

// mergeChain streams fresh into the chain rooted at head: each block is
// read, entries shadowed by fresh keys are dropped, survivors and fresh
// items are repacked densely, and the block is written back at zero
// cost. Net growth allocates overflow blocks (cold writes); net
// shrinkage frees emptied tail blocks. Returns I/Os spent and the net
// changes in entry count and in chain blocks.
func (t *Table) mergeChain(head iomodel.BlockID, fresh []iomodel.Entry) (ios, added, blocks int) {
	d := t.model.Disk
	b := d.B()
	t.mkeys = t.mkeys[:0]
	for _, e := range fresh {
		t.mkeys = append(t.mkeys, e.Key)
	}
	slices.Sort(t.mkeys)
	added = len(fresh)
	// pending holds items awaiting placement from position off on: fresh
	// first, then chain survivors stream through it.
	pending := append(t.mpend[:0], fresh...)
	off := 0
	buf := d.AcquireBuf()
	id := head
	var lastNonEmpty iomodel.BlockID = iomodel.NilBlock
	for {
		buf = d.Read(id, buf[:0])
		ios++
		for _, e := range buf {
			if _, shadowed := slices.BinarySearch(t.mkeys, e.Key); shadowed {
				added-- // replacement, not growth
				continue
			}
			pending = append(pending, e)
		}
		take := len(pending) - off
		if take > b {
			take = b
		}
		next := d.Next(id)
		if len(pending)-off > take && next == iomodel.NilBlock {
			// Net growth: allocate the overflow chain, link it via the
			// free write-back, then pay cold writes for the new blocks.
			rest := pending[off+take:]
			need := (len(rest) + b - 1) / b
			ids := make([]iomodel.BlockID, need)
			for j := range ids {
				ids[j] = d.Alloc()
			}
			for j := 0; j+1 < need; j++ {
				d.SetNext(ids[j], ids[j+1])
			}
			d.SetNext(id, ids[0])
			d.WriteBack(id, pending[off:off+take])
			for j := 0; j < need; j++ {
				chunk := rest
				if len(chunk) > b {
					chunk = rest[:b]
				}
				d.Write(ids[j], chunk)
				ios++
				rest = rest[len(chunk):]
			}
			d.ReleaseBuf(buf)
			t.mpend = pending[:0]
			return ios, added, need
		}
		d.WriteBack(id, pending[off:off+take])
		off += take
		if take > 0 {
			lastNonEmpty = id
		}
		if next == iomodel.NilBlock {
			break
		}
		id = next
	}
	d.ReleaseBuf(buf)
	t.mpend = pending[:0]
	// Net shrinkage: free the emptied tail, keeping the head alive.
	if lastNonEmpty == iomodel.NilBlock {
		lastNonEmpty = head
	}
	if tail := d.Next(lastNonEmpty); tail != iomodel.NilBlock {
		d.SetNext(lastNonEmpty, iomodel.NilBlock)
		for cur := tail; cur != iomodel.NilBlock; {
			next := d.Next(cur)
			d.Free(cur)
			blocks--
			cur = next
		}
	}
	return ios, added, blocks
}

// Lookup returns the value for key and the I/Os spent. H_0 is probed
// free; disk levels are then probed smallest-first with an early stop.
// Smallest-first is the freshness order — re-inserting a key leaves its
// newest copy in the smallest level holding one — so Lookup is correct
// under overwrites, and since each level must be probed in the worst
// case anyway, the expected average cost keeps Lemma 5's
// O(log_gamma(n/m)) bound, which the benchmarks confirm.
func (t *Table) Lookup(key uint64) (val uint64, ok bool, ios int) {
	if v, hit := t.h0[key]; hit {
		return v, true, 0
	}
	return t.LookupLevels(key)
}

// LookupMem probes only the memory-resident H_0, at zero I/O cost. The
// Theorem 2 structure uses it to interleave the big-table probe between
// the memory check and the cascade probes.
func (t *Table) LookupMem(key uint64) (val uint64, ok bool) {
	v, hit := t.h0[key]
	return v, hit
}

// LookupLevels probes only the disk-resident levels, smallest-first
// (freshest copy wins). Callers must have consulted LookupMem first for
// overwrite correctness.
func (t *Table) LookupLevels(key uint64) (val uint64, ok bool, ios int) {
	for k := 1; k <= len(t.levels); k++ {
		lv := t.levels[k-1]
		if lv.t.Len() == 0 {
			continue
		}
		v, hit, c := lv.t.Lookup(key)
		ios += c
		if hit {
			return v, true, ios
		}
	}
	return 0, false, ios
}

// LookupLevelsLargestFirst probes only the disk levels, largest level
// first. This is the probe order of §3 of the paper: when most of the
// cascade's mass sits in its largest level, the expected rank of the
// level holding a uniformly random cascade item is O(1)
// (2·(1/2) + 3·(1/4) + ... in the paper's computation). It is only
// correct when at most one copy of the key exists across levels, which
// the Theorem 2 structure's API contract guarantees.
func (t *Table) LookupLevelsLargestFirst(key uint64) (val uint64, ok bool, ios int) {
	for k := len(t.levels); k >= 1; k-- {
		lv := t.levels[k-1]
		if lv.t.Len() == 0 {
			continue
		}
		v, hit, c := lv.t.Lookup(key)
		ios += c
		if hit {
			return v, true, ios
		}
	}
	return 0, false, ios
}

// UpdateMem is UpdateLevels over the memory-resident H_0 only, at zero
// I/O cost.
func (t *Table) UpdateMem(key uint64, fn func(cur uint64) (val uint64, write bool)) bool {
	cur, hit := t.h0[key]
	if !hit {
		return false
	}
	if val, write := fn(cur); write {
		t.h0[key] = val
	}
	return true
}

// UpdateLevels finds key in the disk levels, probing largest-first like
// LookupLevelsLargestFirst and under the same one-copy contract, and
// passes the stored value to fn (see chainhash.Table.Update); it never
// inserts. Returns whether a copy was found and I/Os spent.
func (t *Table) UpdateLevels(key uint64, fn func(cur uint64) (val uint64, write bool)) (ok bool, ios int) {
	for k := len(t.levels); k >= 1; k-- {
		lv := t.levels[k-1]
		if lv.t.Len() == 0 {
			continue
		}
		hit, c := lv.t.Update(key, fn)
		ios += c
		if hit {
			return true, ios
		}
	}
	return false, ios
}

// Delete removes every copy of key from the structure (an overwritten
// key may have a fresh copy in H_0 shadowing a stale one on disk, so all
// levels are purged). Reports whether any copy existed and I/Os spent.
func (t *Table) Delete(key uint64) (ok bool, ios int) {
	if _, hit := t.h0[key]; hit {
		delete(t.h0, key)
		ok = true
	}
	for k := len(t.levels); k >= 1; k-- {
		lv := t.levels[k-1]
		if lv.t.Len() == 0 {
			continue
		}
		hit, c := lv.t.Delete(key)
		ios += c
		ok = ok || hit
	}
	t.recount()
	return ok, ios
}

// DeleteMem removes key from the memory-resident H_0 at zero I/O cost,
// reporting whether it was there. With DeleteLevelsLargestFirst it is
// the first-hit delete of callers that keep at most one copy of a key
// alive (the Theorem 2 structure); Delete is the purge for callers that
// do not.
func (t *Table) DeleteMem(key uint64) bool {
	if _, hit := t.h0[key]; !hit {
		return false
	}
	delete(t.h0, key)
	t.n--
	return true
}

// DeleteLevelsLargestFirst removes key from the first disk level that
// holds it, probing largest-first and stopping there — a lookup's probe
// sequence. Like LookupLevelsLargestFirst it is only correct when at
// most one copy of the key exists across levels.
func (t *Table) DeleteLevelsLargestFirst(key uint64) (ok bool, ios int) {
	for k := len(t.levels); k >= 1; k-- {
		lv := t.levels[k-1]
		if lv.t.Len() == 0 {
			continue
		}
		hit, c := lv.t.Delete(key)
		ios += c
		if hit {
			t.n--
			return true, ios
		}
	}
	return false, ios
}

// Copies counts the copies of key held across H_0 and every disk level
// without performing I/O (an audit, never operation logic). The
// standalone structure may hold shadowed copies; the Theorem 2 structure
// keeps the count at most 1.
func (t *Table) Copies(key uint64) int {
	n := 0
	if _, hit := t.h0[key]; hit {
		n++
	}
	for _, lv := range t.levels {
		n += lv.t.Copies(key)
	}
	return n
}

// CollectAll drains every entry of the structure (memory and disk) into
// buf, returning entries and I/Os spent: one read per block of every
// occupied level (CollectCost). A key overwritten since its last
// migration has stale copies in deeper levels; the freshest wins.
func (t *Table) CollectAll(buf []iomodel.Entry) ([]iomodel.Entry, int) {
	return t.collect(buf, true)
}

// CollectAllUnique is CollectAll without the dedupe pass — no map of
// the whole cascade — for callers (the Theorem 2 structure, absorbing
// the cascade into the big table) whose API contract keeps at most one
// copy of each key across the cascade.
func (t *Table) CollectAllUnique(buf []iomodel.Entry) ([]iomodel.Entry, int) {
	return t.collect(buf, false)
}

func (t *Table) collect(buf []iomodel.Entry, dedupe bool) ([]iomodel.Entry, int) {
	var seen map[uint64]struct{}
	if dedupe {
		seen = make(map[uint64]struct{}, t.n)
	}
	for k, v := range t.h0 {
		buf = append(buf, iomodel.Entry{Key: k, Val: v})
		if dedupe {
			seen[k] = struct{}{}
		}
	}
	ios := 0
	// Smaller levels are fresher; collect smallest-first and let the
	// first occurrence win.
	for k := 1; k <= len(t.levels); k++ {
		lv := t.levels[k-1]
		if lv.t.Len() == 0 {
			continue
		}
		var c int
		start := len(buf)
		buf, c = lv.t.CollectAll(buf)
		ios += c
		if !dedupe {
			continue
		}
		w := start
		for _, e := range buf[start:] {
			if _, dup := seen[e.Key]; dup {
				continue
			}
			seen[e.Key] = struct{}{}
			buf[w] = e
			w++
		}
		buf = buf[:w]
	}
	return buf, ios
}

// CollectCost returns the I/Os CollectAll would spend right now — the
// blocks of every occupied disk level — from memory-resident counts.
func (t *Table) CollectCost() int {
	ios := 0
	for _, lv := range t.levels {
		if lv.t.Len() > 0 {
			ios += lv.t.DiskBlocks()
		}
	}
	return ios
}

// Clear discards all contents (a format operation, no I/O) while keeping
// the allocated levels for reuse.
func (t *Table) Clear() {
	clear(t.h0)
	for _, lv := range t.levels {
		lv.t.Reset()
	}
	t.n = 0
}

// MemoryKeys returns the keys buffered in H_0 (the paper's memory zone
// M), for the zones audit.
func (t *Table) MemoryKeys() []uint64 {
	keys := make([]uint64, 0, len(t.h0))
	for k := range t.h0 {
		keys = append(keys, k)
	}
	return keys
}

// AddressOf returns the first disk block a query for key would probe:
// the bucket head in the largest occupied level. Items living in smaller
// levels are outside B_f(x) and therefore in the paper's slow zone,
// which is exactly why the plain logarithmic method cannot answer
// queries in 1 + o(1) I/Os.
func (t *Table) AddressOf(key uint64) iomodel.BlockID {
	for k := len(t.levels); k >= 1; k-- {
		lv := t.levels[k-1]
		if lv.t.Len() == 0 {
			continue
		}
		return lv.t.AddressOf(key)
	}
	return iomodel.NilBlock
}

// Disk exposes the underlying disk for audits.
func (t *Table) Disk() *iomodel.Disk { return t.model.Disk }

// Close releases all memory reservations.
func (t *Table) Close() {
	for _, lv := range t.levels {
		lv.t.Close()
	}
	t.model.Mem.Release(t.memRes)
	t.memRes = 0
}
