package extbuf

import "time"

// This file holds the unkeyed half of the production API surface — the
// expiry sweep, bucket-order scans and the TTL counters — on the guard;
// the keyed half (expire, upsert-with-TTL, compare-and-swap) is part of
// guard.apply, and sharded.go routes both through the shard workers.
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

// Scan reads one page in bucket order; see Engine. Whole buckets are
// emitted, so a page may exceed max by up to one bucket's entries —
// the serving layer sizes max against the wire batch limit
// accordingly.
func (g *guard) Scan(cursor uint64, max int) ([]uint64, []uint64, uint64, error) {
	if g.closed {
		return nil, nil, ScanDone, ErrClosed
	}
	g.arm()
	nb := uint64(g.t.scanBuckets())
	if cursor >= nb {
		return nil, nil, ScanDone, nil
	}
	var keys, vals []uint64
	b := cursor
	for ; b < nb && len(keys) < max; b++ {
		g.scanBuf = g.scanBuf[:0]
		g.scanBuf, _ = g.t.scanBucket(int(b), g.scanBuf)
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

// SweepExpired deletes up to max due keys as one shipped delete batch
// through apply, so they are logged and shipped like any delete; see
// Engine.
func (g *guard) SweepExpired(max int) (int, uint64, error) {
	if g.closed {
		return 0, 0, ErrClosed
	}
	if g.arm(); !g.anyDue {
		return 0, 0, nil
	}
	g.sweepBuf = g.exp.PopDue(g.callNow, g.sweepBuf[:0], max)
	if len(g.sweepBuf) == 0 {
		return 0, 0, nil
	}
	g.expStats.Swept += int64(len(g.sweepBuf))
	lsn, err := g.apply(&opVec{kind: BatchDelete, ship: true, keys: g.sweepBuf}, nil)
	return len(g.sweepBuf), lsn, err
}

// ExpiryStats reports the guard's TTL counters.
func (g *guard) ExpiryStats() ExpiryStats {
	s := g.expStats
	s.Tracked = int64(g.exp.Len())
	return s
}
