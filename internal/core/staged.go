package core

import (
	"cmp"
	"fmt"
	"slices"

	"extbuf/internal/chainhash"
	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
)

// Staged is the budgeted buffering strategy used to trace the paper's
// lower-bound frontier (Theorem 1) empirically. It is the natural "best
// effort" adversary the proof of Theorem 1 shows cannot beat the bound:
//
//   - inserts accumulate in a memory buffer (the memory zone M, free);
//   - a full buffer is flushed to an append-only staging area on disk at
//     the sequential cost of ~1/b I/Os per item (the slow zone S);
//   - the slow-zone budget |S| <= m + delta*k (the paper's Eq. (1), the
//     most any structure with query cost 1 + delta may hold outside the
//     fast zone) forces a *cleaning* pass once staging outgrows it: all
//     staged items are read back and merged into their home buckets of
//     the main table.
//
// The cleaning pass is a physical (s, p, t) bin-ball game (§2 of the
// paper): s staged items are thrown into home buckets, and the I/O cost
// is the number of distinct buckets touched. When delta <= 1/b the
// budget keeps s below the bucket count, nearly every staged item
// touches its own bucket, and the measured amortized insertion cost
// approaches 1 (tradeoffs 1 and 2 of Theorem 1); when delta = 1/b^c for
// c < 1 the budget lets s reach b^(1-c) items per bucket and the cost
// per item falls to Theta(b^(c-1)) (tradeoff 3). The experiments sweep
// delta and watch the elbow at delta = Theta(1/b), the paper's sharp
// boundary of effective buffering.
//
// Queries: the lower bound constrains *zone sizes*, not a concrete query
// algorithm, so experiments cost queries with the paper's zone model
// ((|F| + 2|S|)/k via the zones audit; items in M are free). Lookup is
// still implemented honestly — home bucket first, then a staging scan —
// for API completeness.
type Staged struct {
	model        *iomodel.Model
	fn           hashfn.Fn
	main         *chainhash.Table
	buffer       map[uint64]uint64
	bufCap       int
	staging      []iomodel.BlockID
	stagingItems int
	delta        float64
	maxFill      float64
	inserted     int // k, the number of items inserted so far
	flushes      int
	cleanings    int
	memRes       int64
}

// StagedConfig parametrizes a Staged strategy.
type StagedConfig struct {
	// Delta is the slow-zone budget coefficient: staging holds at most
	// m + Delta*k items. Delta = 1/b^c positions the strategy on the
	// query budget t_q = 1 + O(1/b^c) of the paper's regime c.
	Delta float64
	// BufferCap is the memory buffer capacity in items; zero selects
	// m/2 (the other half of memory is the paper's working space).
	BufferCap int
	// MainMaxFill caps the main table's fill n/(b*buckets); zero
	// selects 0.5. Lower values burn more disk for a lower load factor
	// — the ablation for the paper's remark that extra disk space
	// cannot beat the lower bound.
	MainMaxFill float64
}

// NewStaged returns an empty staged strategy on the model.
func NewStaged(model *iomodel.Model, fn hashfn.Fn, cfg StagedConfig) (*Staged, error) {
	if cfg.Delta < 0 {
		return nil, fmt.Errorf("core: negative delta %v", cfg.Delta)
	}
	bufCap := cfg.BufferCap
	if bufCap == 0 {
		bufCap = int(model.MWords() / 2)
	}
	if bufCap < 1 {
		return nil, fmt.Errorf("core: buffer capacity %d < 1", bufCap)
	}
	res := int64(bufCap) + 8
	if err := model.Mem.Alloc(res); err != nil {
		return nil, fmt.Errorf("core: staged buffer: %w", err)
	}
	maxFill := cfg.MainMaxFill
	if maxFill == 0 {
		maxFill = 0.5
	}
	if maxFill < 0 || maxFill > 1 {
		model.Mem.Release(res)
		return nil, fmt.Errorf("core: main max fill %v out of (0, 1]", maxFill)
	}
	nb := hashfn.CeilPow2(int(float64(model.MWords()) / maxFill / float64(model.B())))
	if nb < 2 {
		nb = 2
	}
	main, err := chainhash.New(model, fn, nb)
	if err != nil {
		model.Mem.Release(res)
		return nil, fmt.Errorf("core: staged main table: %w", err)
	}
	return &Staged{
		model:   model,
		fn:      fn,
		main:    main,
		buffer:  make(map[uint64]uint64, bufCap),
		bufCap:  bufCap,
		delta:   cfg.Delta,
		maxFill: maxFill,
		memRes:  res,
	}, nil
}

// Delta returns the slow-zone budget coefficient.
func (s *Staged) Delta() float64 { return s.delta }

// Len returns the number of stored entries.
func (s *Staged) Len() int { return len(s.buffer) + s.stagingItems + s.main.Len() }

// StagingItems returns the current slow-zone population.
func (s *Staged) StagingItems() int { return s.stagingItems }

// Flushes returns the number of buffer-to-staging flushes.
func (s *Staged) Flushes() int { return s.flushes }

// Cleanings returns the number of staging-into-main cleaning passes.
func (s *Staged) Cleanings() int { return s.cleanings }

// budget returns the slow-zone capacity m + delta*k of Eq. (1).
func (s *Staged) budget() int {
	return int(float64(s.model.MWords()) + s.delta*float64(s.inserted))
}

// Insert stores (key, val) — keys must be distinct, as in the paper's
// workload — and returns the I/Os spent.
func (s *Staged) Insert(key, val uint64) int {
	s.buffer[key] = val
	s.inserted++
	if len(s.buffer) < s.bufCap {
		return 0
	}
	return s.flush()
}

// flush empties the memory buffer into the staging area, cleaning first
// if the slow-zone budget would be exceeded. The entries go out in key
// order (keys are distinct), not the map's, so a seed fixes which
// staging block each lands in and so every later lookup's I/Os.
func (s *Staged) flush() int {
	ios := 0
	if s.stagingItems+len(s.buffer) > s.budget() {
		ios += s.clean()
	}
	entries := make([]iomodel.Entry, 0, len(s.buffer))
	for k, v := range s.buffer {
		entries = append(entries, iomodel.Entry{Key: k, Val: v})
	}
	slices.SortFunc(entries, func(a, b iomodel.Entry) int { return cmp.Compare(a.Key, b.Key) })
	s.buffer = make(map[uint64]uint64, s.bufCap)
	b := s.model.B()
	for len(entries) > 0 {
		n := len(entries)
		if n > b {
			n = b
		}
		id := s.model.Disk.Alloc()
		s.model.Disk.Write(id, entries[:n])
		ios++
		s.staging = append(s.staging, id)
		s.stagingItems += n
		entries = entries[n:]
	}
	s.flushes++
	return ios
}

// clean reads the staging area back and merges every staged item into
// its home bucket in the main table — the bin-ball game whose cost the
// lower bound analyzes. Staging blocks are then freed.
func (s *Staged) clean() int {
	ios := 0
	var all []iomodel.Entry
	for _, id := range s.staging {
		all = s.model.Disk.Read(id, all)
		ios++
		s.model.Disk.Free(id)
	}
	s.staging = s.staging[:0]
	s.stagingItems = 0
	ios += s.main.MergeIn(all)
	for s.main.Fill() > s.maxFill {
		ios += s.main.Grow()
	}
	s.cleanings++
	return ios
}

// FlushAll drains the buffer and staging into the main table (tests and
// end-of-run audits).
func (s *Staged) FlushAll() int {
	ios := 0
	if len(s.buffer) > 0 {
		ios += s.flush()
	}
	if s.stagingItems > 0 {
		ios += s.clean()
	}
	return ios
}

// Lookup probes the memory buffer (free), the home bucket, and finally
// scans the staging area. The staging scan is what the zone model prices
// at >= 2 I/Os; see the package comment for why experiments use the zone
// costing instead.
func (s *Staged) Lookup(key uint64) (val uint64, ok bool, ios int) {
	if v, hit := s.buffer[key]; hit {
		return v, true, 0
	}
	v, hit, c := s.main.Lookup(key)
	ios += c
	if hit {
		return v, true, ios
	}
	var buf []iomodel.Entry
	for _, id := range s.staging {
		buf = s.model.Disk.Read(id, buf[:0])
		ios++
		for _, e := range buf {
			if e.Key == key {
				return e.Val, true, ios
			}
		}
	}
	return 0, false, ios
}

// MemoryKeys returns the buffered keys (zone M) for the zones audit.
func (s *Staged) MemoryKeys() []uint64 {
	keys := make([]uint64, 0, len(s.buffer))
	for k := range s.buffer {
		keys = append(keys, k)
	}
	return keys
}

// AddressOf returns the main-table bucket head for key; staged items are
// outside B_f(x) and constitute the slow zone by construction.
func (s *Staged) AddressOf(key uint64) iomodel.BlockID {
	return s.main.AddressOf(key)
}

// Disk exposes the underlying disk for audits.
func (s *Staged) Disk() *iomodel.Disk { return s.model.Disk }

// Close releases all memory reservations.
func (s *Staged) Close() {
	s.main.Close()
	s.model.Mem.Release(s.memRes)
	s.memRes = 0
}
