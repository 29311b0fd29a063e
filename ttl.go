package extbuf

import (
	"errors"
	"time"

	"extbuf/internal/iomodel"
)

// This file implements the production API surface beyond plain
// insert/upsert/lookup/delete — per-key TTL, compare-and-swap, and
// bucket-order scans — on the single-table guard; sharded.go routes the
// same operations through the shard workers.
//
// TTL design (DESIGN.md §2b): deadlines live in a sidecar index
// (internal/expiry), not in the record format — the on-disk block
// layout, WAL/ship record frame and the paper's I/O accounting are
// untouched. Durability comes from wal.OpExpire records (value field =
// deadline) replayed into the index on recovery, plus the index
// snapshot saved in every checkpoint (superblock v4). Reads filter
// lazily; the sweep issues real logged-and-shipped deletes, so
// replicas never consult their own clocks for liveness.

// ScanDone is the cursor value returned by Engine.Scan when the table
// is exhausted.
const ScanDone = ^uint64(0)

// ExpiryStats reports an engine's TTL counters, exposed over the wire
// via the STATS request (append-only payload extension).
type ExpiryStats struct {
	// Tracked is the number of keys currently holding a deadline.
	Tracked int64
	// LazyHits counts reads that were filtered because the key's
	// deadline had passed before the sweep removed it.
	LazyHits int64
	// Swept counts keys physically deleted by SweepExpired.
	Swept int64
}

// Add returns s + o field-wise, for aggregating shards.
func (s ExpiryStats) Add(o ExpiryStats) ExpiryStats {
	s.Tracked += o.Tracked
	s.LazyHits += o.LazyHits
	s.Swept += o.Swept
	return s
}

// clock resolves the TTL clock: the injected test clock, or real time
// in unix milliseconds.
func (c Config) clock() func() uint64 {
	if c.nowMillis != nil {
		return c.nowMillis
	}
	return func() uint64 { return uint64(time.Now().UnixMilli()) }
}

// expireLogger is the durability hook for deadline writes: the durable
// table appends a wal.OpExpire record so recovery re-learns the
// deadline. Non-durable tables don't implement it.
type expireLogger interface {
	logExpire(key, deadline uint64) error
}

// expireAt installs a deadline on one present, unexpired key. It
// reports false (without touching anything) for absent or already
// expired keys.
func (g *guard) expireAt(key, deadline uint64) (bool, error) {
	if _, ok := g.Lookup(key); !ok {
		return false, nil
	}
	if lg, ok := g.t.(expireLogger); ok {
		if err := lg.logExpire(key, deadline); err != nil {
			return false, err
		}
	}
	g.exp.Set(key, deadline)
	return true, nil
}

// ExpireBatch sets each key's deadline; see Engine.
func (g *guard) ExpireBatch(keys, deadlines []uint64, found []bool) error {
	_, err := g.expireBatch(keys, deadlines, found, false)
	return err
}

// ExpireBatchShip is ExpireBatch plus shipping of the found subset.
func (g *guard) ExpireBatchShip(keys, deadlines []uint64, found []bool) (uint64, error) {
	return g.expireBatch(keys, deadlines, found, true)
}

func (g *guard) expireBatch(keys, deadlines []uint64, found []bool, doShip bool) (uint64, error) {
	if len(deadlines) != len(keys) || len(found) != len(keys) {
		return 0, ErrBatchLength
	}
	if g.closed {
		return 0, ErrClosed
	}
	var firstErr error
	var shipK, shipV []uint64
	for i, k := range keys {
		ok, err := g.expireAt(k, deadlines[i])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		found[i] = ok
		if ok && doShip && g.ship != nil {
			shipK = append(shipK, k)
			shipV = append(shipV, deadlines[i])
		}
	}
	if !doShip || g.ship == nil || len(shipK) == 0 {
		return 0, firstErr
	}
	first, err := g.ship(ShipExpire, shipK, shipV)
	if err != nil {
		if firstErr == nil {
			firstErr = err
		}
		return 0, firstErr
	}
	return first + uint64(len(shipK)) - 1, firstErr
}

// upsertTTLOne writes (key, val) and installs its deadline, WAL-ordered
// upsert-then-expire so replay converges to value + deadline.
func (g *guard) upsertTTLOne(key, val, deadline uint64) error {
	if err := g.upsertOne(key, val); err != nil {
		return err
	}
	if lg, ok := g.t.(expireLogger); ok {
		if err := lg.logExpire(key, deadline); err != nil {
			return err
		}
	}
	g.exp.Set(key, deadline)
	return nil
}

// compareSwapper is implemented by tables that run a compare-and-swap
// as one probe: the Theorem 2 table swaps inside the block its lookup
// just read, and the durable layer forwards it.
type compareSwapper interface {
	compareSwap(key, old, new uint64) (swapped bool, err error)
}

// casByLookup is compare-and-swap for tables without a one-probe form:
// a full Lookup, then a full Upsert.
func casByLookup(t Table, key, old, new uint64) (bool, error) {
	if v, ok := t.Lookup(key); !ok || v != old {
		return false, nil
	}
	if err := t.Upsert(key, new); err != nil {
		return false, err
	}
	return true, nil
}

// casOne atomically replaces key's value with new if it currently reads
// old, clearing the key's TTL like any value write. Absent and expired
// keys never swap.
func (g *guard) casOne(key, old, new uint64) (swapped bool, err error) {
	if g.expired(key) {
		g.expStats.LazyHits++
		return false, nil
	}
	if cs, ok := g.t.(compareSwapper); ok {
		swapped, err = cs.compareSwap(key, old, new)
	} else {
		swapped, err = casByLookup(g.t, key, old, new)
	}
	if swapped {
		g.exp.Clear(key)
	}
	return swapped, err
}

// UpsertTTLBatchShip upserts each pair and installs its deadline in one
// engine call; see Engine. Per key, the WAL and the ship log both see
// the upsert record before the expire record, so replay in either
// direction converges to value + deadline.
func (g *guard) UpsertTTLBatchShip(keys, vals, deadlines []uint64) (uint64, error) {
	if len(vals) != len(keys) || len(deadlines) != len(keys) {
		return 0, ErrBatchLength
	}
	if g.closed {
		return 0, ErrClosed
	}
	var firstErr error
	applied := keys[:0:0]
	appliedV := vals[:0:0]
	appliedD := deadlines[:0:0]
	for i, k := range keys {
		if err := g.upsertTTLOne(k, vals[i], deadlines[i]); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		applied = append(applied, k)
		appliedV = append(appliedV, vals[i])
		appliedD = append(appliedD, deadlines[i])
	}
	if g.ship == nil || len(applied) == 0 {
		return 0, firstErr
	}
	if _, err := g.ship(ShipUpsert, applied, appliedV); err != nil {
		if firstErr == nil {
			firstErr = err
		}
		return 0, firstErr
	}
	first, err := g.ship(ShipExpire, applied, appliedD)
	if err != nil {
		if firstErr == nil {
			firstErr = err
		}
		return 0, firstErr
	}
	return first + uint64(len(applied)) - 1, firstErr
}

// CompareSwapBatchShip conditionally replaces each key's value; see
// Engine. The swap is atomic per key under the engine's serialization
// (the single-table goroutine contract, or the owning shard worker).
func (g *guard) CompareSwapBatchShip(keys, olds, news []uint64, swapped []bool) (uint64, error) {
	if len(olds) != len(keys) || len(news) != len(keys) || len(swapped) != len(keys) {
		return 0, ErrBatchLength
	}
	if g.closed {
		return 0, ErrClosed
	}
	var firstErr error
	var shipK, shipV []uint64
	for i, k := range keys {
		ok, err := g.casOne(k, olds[i], news[i])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		swapped[i] = ok
		if ok && g.ship != nil {
			shipK = append(shipK, k)
			shipV = append(shipV, news[i])
		}
	}
	if g.ship == nil || len(shipK) == 0 {
		return 0, firstErr
	}
	first, err := g.ship(ShipUpsert, shipK, shipV)
	if err != nil {
		if firstErr == nil {
			firstErr = err
		}
		return 0, firstErr
	}
	return first + uint64(len(shipK)) - 1, firstErr
}

// Scan reads one page in bucket order; see Engine. Whole buckets are
// emitted, so a page may exceed max by up to one bucket's entries —
// the serving layer sizes max against the wire batch limit
// accordingly.
func (g *guard) Scan(cursor uint64, max int) ([]uint64, []uint64, uint64, error) {
	if g.closed {
		return nil, nil, ScanDone, ErrClosed
	}
	sc, ok := g.t.(interface {
		scanBuckets() int
		scanBucket(int, []iomodel.Entry) ([]iomodel.Entry, int)
	})
	if !ok {
		return nil, nil, ScanDone, errScanUnsupported
	}
	nb := uint64(sc.scanBuckets())
	if cursor >= nb {
		return nil, nil, ScanDone, nil
	}
	var keys, vals []uint64
	b := cursor
	for ; b < nb && len(keys) < max; b++ {
		g.scanBuf = g.scanBuf[:0]
		g.scanBuf, _ = sc.scanBucket(int(b), g.scanBuf)
		for _, e := range g.scanBuf {
			if g.expired(e.Key) {
				continue
			}
			keys = append(keys, e.Key)
			vals = append(vals, e.Val)
		}
	}
	if b >= nb {
		return keys, vals, ScanDone, nil
	}
	return keys, vals, b, nil
}

// SweepExpired deletes up to max due keys through the logged path and
// ships the deletes; see Engine.
func (g *guard) SweepExpired(max int) (int, uint64, error) {
	if g.closed {
		return 0, 0, ErrClosed
	}
	g.sweepBuf = g.exp.PopDue(g.now(), g.sweepBuf[:0], max)
	if len(g.sweepBuf) == 0 {
		return 0, 0, nil
	}
	for _, k := range g.sweepBuf {
		g.t.Delete(k) // logged on a durable table; PopDue already dropped the deadline
	}
	g.expStats.Swept += int64(len(g.sweepBuf))
	if g.ship == nil {
		return len(g.sweepBuf), 0, nil
	}
	first, err := g.ship(ShipDelete, g.sweepBuf, nil)
	if err != nil {
		return len(g.sweepBuf), 0, err
	}
	return len(g.sweepBuf), first + uint64(len(g.sweepBuf)) - 1, nil
}

// ExpiryStats reports the guard's TTL counters.
func (g *guard) ExpiryStats() ExpiryStats {
	s := g.expStats
	s.Tracked = int64(g.exp.Len())
	return s
}

var errScanUnsupported = errors.New("extbuf: structure does not support scans")
