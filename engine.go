package extbuf

import (
	"cmp"
	"fmt"

	"extbuf/internal/expiry"
	"extbuf/internal/iomodel"
	"extbuf/internal/wal"
)

// Engine is the full serving surface of a table: the single-key Table
// operations plus the order-preserving batch operations and the
// Durable capability probe. Sharded (worker-per-shard pipeline) is its
// implementation; the layers that serve a table — the network server,
// the replication follower apply loop, load generators — program
// against this interface.
//
// Every keyed operation runs through one routine, the apply of the
// owning shard's guard (DESIGN.md §1a). Positions i of every slice
// correspond. Operand slices (vals, deadlines, olds, news) must be
// exactly len(keys) long and result slices (a lookup's vals, found,
// swapped) at least len(keys) long — longer is fine, the tail is left
// alone — or the call fails with ErrBatchLength before touching the
// table. The *Into and *Ship forms write into the caller's slices and
// allocate nothing. A batch is not atomic, and a failing position does
// not stop it: every position is attempted, in order, and the first
// error is returned; per-key ordering is preserved between batches. A
// closed engine returns ErrClosed and leaves the result slices
// untouched.
type Engine interface {
	Table

	// InsertBatch inserts each (keys[i], vals[i]) pair in order.
	InsertBatch(keys, vals []uint64) error
	// UpsertBatch upserts each (keys[i], vals[i]) pair in order.
	UpsertBatch(keys, vals []uint64) error
	// LookupBatch looks up every key, allocating the result slices.
	LookupBatch(keys []uint64) (vals []uint64, found []bool, err error)
	// LookupBatchInto looks up every key into caller-provided slices of
	// at least len(keys); it allocates nothing.
	LookupBatchInto(keys, vals []uint64, found []bool) error
	// DeleteBatchInto deletes every key into a caller-provided found
	// slice of at least len(keys); it allocates nothing.
	DeleteBatchInto(keys []uint64, found []bool) error
	// Durable reports whether Sync buys crash durability (the durable
	// file backend). Serving layers skip the commit barrier when false.
	Durable() bool

	// StartBatch submits one keyed batch without waiting for it: the
	// started form of the batch methods of op (any of the seven BatchOp
	// kinds), with their length contract and, when ship is set, the
	// shipping contract of their Ship forms (a lookup ships nothing
	// either way). vals carries the payloads of inserts, upserts and
	// upsert-ttls, the deadlines of expiries and the expected values of
	// compare-swaps, and receives a lookup's values; vals2 carries the
	// deadlines of upsert-ttls and the new values of compare-swaps (nil
	// for the other kinds); found receives the hits of lookups, deletes
	// and expiries and the outcomes of compare-swaps. The caller calls
	// Wait on the handle exactly once and leaves the slices alone until
	// it returns. Batches one goroutine starts apply per key in start
	// order, waited for or not. It returns while the shard workers apply.
	StartBatch(op BatchOp, ship bool, keys, vals, vals2 []uint64, found []bool) (*BatchCall, error)

	// SetShip installs (or, with nil, removes) the ship sink the
	// *BatchShip variants emit applied mutations to. It must be called
	// before any Ship-variant mutation is submitted and must not run
	// concurrently with them: the seam is wired once at serving-layer
	// construction, not toggled under load.
	SetShip(fn ShipFunc)
	// InsertBatchShip is InsertBatch, plus: each successfully applied
	// pair is emitted to the ship sink UNDER THE SAME ORDERING THE
	// ENGINE APPLIES WITH (per key: apply order == ship order — the
	// replication total-order guarantee, DESIGN.md §2a). It returns the
	// highest ship LSN assigned to the batch — 0 when no sink is
	// installed, the batch is empty, nothing applied, or the sink
	// failed (its error is returned). A partially failed batch ships
	// its applied subset and still returns the first apply error.
	InsertBatchShip(keys, vals []uint64) (uint64, error)
	// UpsertBatchShip is UpsertBatch with InsertBatchShip's shipping
	// contract.
	UpsertBatchShip(keys, vals []uint64) (uint64, error)
	// DeleteBatchShipInto is DeleteBatchInto with the shipping
	// contract; every attempted delete ships (a miss is an idempotent
	// no-op on a replica), so the record stream stays dense.
	DeleteBatchShipInto(keys []uint64, found []bool) (uint64, error)

	// UpsertTTLBatchShip atomically upserts each pair and sets its
	// deadline (unix milliseconds), shipping the applied pairs' upsert
	// records and then their expire records, so the returned LSN covers
	// both. Unlike an upsert batch followed by a BatchExpire one, no
	// concurrent writer can interleave between a key's value write and
	// its deadline write. Expired keys are invisible to reads at once
	// and physically deleted by SweepExpired; a plain Insert/Upsert/CAS
	// on a key clears its deadline.
	UpsertTTLBatchShip(keys, vals, deadlines []uint64) (uint64, error)
	// CompareSwapBatchShip atomically replaces keys[i]'s value with
	// news[i] iff its current (unexpired) value equals olds[i];
	// swapped[i] reports the outcome. Swapped keys ship as plain
	// upserts (and, like any value write, lose their TTL).
	CompareSwapBatchShip(keys, olds, news []uint64, swapped []bool) (uint64, error)
	// Scan reads one page of entries in bucket order starting at
	// cursor (0 starts a scan), appending up to max live entries (plus
	// the remainder of the bucket that crossed the threshold) and
	// returning the cursor for the next page, or ScanDone when the
	// table is exhausted. The cursor is weakly consistent: entries
	// moved by a concurrent rehash/split may be seen twice or not at
	// all, but entries untouched during the scan are seen exactly
	// once. Expired entries are filtered.
	Scan(cursor uint64, max int) (keys, vals []uint64, next uint64, err error)
	// SweepExpired pops up to max due keys from the expiry index and
	// deletes them as one shipped delete batch. It returns the number
	// swept and the covering ship LSN (0 when nothing swept or no sink).
	// Only the writable node sweeps; replicas converge by applying the
	// shipped deletes.
	SweepExpired(max int) (int, uint64, error)
	// ExpiryStats reports the engine's TTL counters.
	ExpiryStats() ExpiryStats
}

// ShipFunc is the replication seam: a multi-producer ordered append
// into the node's ship log. It writes one record per key with the
// given op (vals nil means zero values — deletes), assigns
// consecutive LSNs, and returns the LSN of the first record. The
// engine invokes it from shard workers while they still own the
// per-shard apply order, so the sink's internal serialization (the
// ship log's append mutex) is the merge stage that makes the LSN
// order a true total order of applied mutations.
type ShipFunc func(op uint8, keys, vals []uint64) (uint64, error)

// Ship record operation codes, matching the WAL/ship-log record ops.
// Expire records carry the deadline (unix ms) in the value field.
const (
	ShipInsert = uint8(wal.OpInsert)
	ShipUpsert = uint8(wal.OpUpsert)
	ShipDelete = uint8(wal.OpDelete)
	ShipExpire = uint8(wal.OpExpire)
)

var _ Engine = (*Sharded)(nil)

// ReplStats reports a node's replication state and traffic counters,
// exposed over the wire via the STATS request (append-only payload
// extension). On a node with replication disabled all fields are zero.
type ReplStats struct {
	// Epoch is the replication epoch: bumped by every promotion, so
	// clients can detect that the writable node moved and re-route.
	Epoch int64
	// CurrentLSN is the highest LSN this node has assigned (primary)
	// or applied (follower).
	CurrentLSN int64
	// FollowerLag is the primary's view of its slowest subscribed
	// follower: CurrentLSN minus that follower's acknowledged LSN.
	// Zero when no follower is subscribed or the node is a follower.
	FollowerLag int64
	// FramesShipped counts replication batches sent to followers.
	FramesShipped int64
	// FramesReplayed counts replication batches this node applied as
	// a follower.
	FramesReplayed int64
	// ShipStartLSN is the LSN of the oldest record still in the node's
	// ship log — above 1 once prefix truncation has run, so operators
	// can see the retained window of a bounded follower log.
	ShipStartLSN int64
}

// BatchOp names an operation kind. The seven exported values are the
// keyed batches Engine.StartBatch accepts; the rest of the enum is the
// engine's own: the unkeyed requests a Sharded engine broadcasts to its
// shard workers.
type BatchOp uint8

const (
	BatchInsert      BatchOp = iota // InsertBatch, InsertBatchShip
	BatchUpsert                     // UpsertBatch, UpsertBatchShip
	BatchDelete                     // DeleteBatchInto, DeleteBatchShipInto
	BatchLookup                     // LookupBatchInto
	BatchExpire                     // StartBatch only; vals carries the deadlines
	BatchUpsertTTL                  // UpsertTTLBatchShip; vals2 carries the deadlines
	BatchCompareSwap                // CompareSwapBatchShip; vals carries the expected values, vals2 the new ones

	opLen
	opStats
	opExpiryStats
	opMergeStats
	opSweep
	opScan
	opSync
	opFlush
	opClose // the flush every worker serves last (Sharded.Close)
)

// opVec is a keyed operand vector: one kind, its operands (vals, vals2)
// and its results (outV, outOK) position by position beside keys, and
// whether the applied subset ships.
type opVec struct {
	kind                    BatchOp
	ship                    bool
	keys, vals, vals2, outV []uint64
	outOK                   []bool
}

// keyedOps lists, per keyed kind, its name in errors and which operand
// and result columns it uses.
var keyedOps = [...]struct {
	name                     string
	vals, vals2, outV, outOK bool
}{
	BatchInsert:      {"insert", true, false, false, false},
	BatchUpsert:      {"upsert", true, false, false, false},
	BatchDelete:      {"delete", false, false, false, true},
	BatchLookup:      {"lookup", false, false, true, true},
	BatchExpire:      {"expire", true, false, false, true},
	BatchUpsertTTL:   {"upsert-ttl", true, true, false, false},
	BatchCompareSwap: {"compare-swap", true, true, false, true},
}

// check is the one length contract of every keyed batch (see Engine):
// the operand columns the kind uses are exactly len(keys) long, its
// result columns at least that.
func (v *opVec) check() error {
	n, use := len(v.keys), keyedOps[v.kind]
	if use.vals && len(v.vals) != n || use.vals2 && len(v.vals2) != n ||
		use.outV && len(v.outV) < n || use.outOK && len(v.outOK) < n {
		return fmt.Errorf("%w: %s of %d keys with operand columns of %d and %d, result columns of %d and %d",
			ErrBatchLength, use.name, n, len(v.vals), len(v.vals2), len(v.outV), len(v.outOK))
	}
	return nil
}

// innerTable is what a guard drives: a bare structure adapter, or the
// durable layer around one.
type innerTable interface {
	Table
	compareSwap(key, old, new uint64) (swapped bool, err error)
	// settleReads runs after lookups: the point where a structure whose
	// lookups can pay for a merge (readPaidMerger) performs it.
	settleReads()
	mergeStats() MergeStats
	// beginSync is Sync with the fsync split off for the caller to run
	// elsewhere; a nil fsync means the barrier already completed.
	beginSync() (fsync func() error, err error)
	scanBuckets() int
	scanBucket(i int, buf []iomodel.Entry) ([]iomodel.Entry, int)
}

// guard is the table Open returns, and what a Sharded engine runs per
// shard. It enforces the close contract — operations on a closed
// table fail with ErrClosed (or zero results from the non-error
// methods), a second Close reports ErrClosed instead of panicking on
// released resources, and Stats stays readable after Close so
// experiments can harvest counters last — and it owns everything an
// operation does besides the table call: the TTL sidecar, and the record
// step that feeds the WAL and the ship seam (apply).
type guard struct {
	t      innerTable
	log    *wal.Log // a durable table's write-ahead log; nil on a scratch table
	closed bool

	// ship is the replication seam (Engine.SetShip); recK/V/W gather the
	// records of a call.
	ship             ShipFunc
	recK, recV, recW []uint64

	// The one-element record of a single-key operation.
	k1, v1 [1]uint64

	// TTL sidecar (see ttl.go): the expiry index, the millisecond clock
	// it is read against, reusable sweep/scan scratch, and counters.
	// Shared with the durable layer, which fills the index during WAL
	// replay and persists it at every checkpoint.
	exp      *expiry.Index
	now      func() uint64
	callNow  uint64 // the clock as arm read it for the call in progress, 0 if it did not
	anyDue   bool   // some deadline may be at or before callNow
	sweepBuf []uint64
	scanBuf  []iomodel.Entry
	expStats ExpiryStats
}

func newGuard(t innerTable, log *wal.Log, idx *expiry.Index, now func() uint64) *guard {
	return &guard{t: t, log: log, exp: idx, now: now}
}

// apply is the one definition of every keyed operation. It runs v.kind
// on positions idx of the operand vector (nil idx: every position), in
// order, then runs the record step: the kind's records, below, go to the
// WAL on a durable table and, when v.ship is set and a sink is
// installed, to the sink — from the same goroutine, so that per key log
// and ship order are apply order (the replication total order, DESIGN.md
// §2a). It returns the highest ship LSN assigned (0 when nothing shipped
// or the record step failed) and the first error; a failing position
// never stops the rest.
//
//	kind        per-key action (applyOne)                   records
//	insert      Insert; clear the deadline                  applied pairs, as inserts
//	upsert      Upsert; clear the deadline                  applied pairs, as upserts
//	lookup      the value, unless the deadline has passed;  nothing
//	            then settleReads, once for the share
//	delete      Delete; clear the deadline                  every attempted key
//	expire      set the deadline of a live key              found keys, as expires
//	upsert-ttl  Upsert, then set the deadline               applied pairs: upserts, then expires
//	cas         swap a live key's matching value;           swapped keys, as upserts of the
//	            clear the deadline                          new value
//
// A plain value write makes a key persistent again (Redis semantics),
// which also keeps replicas convergent: the record is a plain
// insert/upsert and clears the deadline on replay too. A missed delete
// still writes one — it replays as a no-op, and the record stream stays
// dense. A write that failed or a swap that was refused writes none.
func (g *guard) apply(v *opVec, idx []int) (uint64, error) {
	if g.closed {
		return 0, ErrClosed
	}
	g.arm()
	kind, keys, vals, vals2, outV, outOK := v.kind, v.keys, v.vals, v.vals2, v.outV, v.outOK
	ship := v.ship && g.ship != nil
	rec := kind != BatchLookup && (ship || g.log != nil)
	var rk, rv, rw []uint64
	if rec {
		rk, rv, rw = g.recK[:0], g.recV[:0], g.recW[:0]
	}
	n := len(keys)
	if idx != nil {
		n = len(idx)
	}
	var first error
	for p := 0; p < n; p++ {
		j := p
		if idx != nil {
			j = idx[p]
		}
		var a, b uint64
		if vals != nil {
			a = vals[j]
		}
		if vals2 != nil {
			b = vals2[j]
		}
		val, ok, err := g.applyOne(kind, keys[j], a, b)
		if outV != nil {
			outV[j] = val
		}
		if outOK != nil {
			outOK[j] = ok
		}
		if err != nil && first == nil {
			first = err
		}
		if rec && (ok || kind == BatchDelete) {
			rk, rv, rw = append(rk, keys[j]), append(rv, a), append(rw, b)
		}
	}
	if kind == BatchLookup {
		g.t.settleReads() // once per share, not per key
	}
	if len(rk) == 0 {
		return 0, first
	}
	g.recK, g.recV, g.recW = rk, rv, rw
	lsn, err := g.record(kind, rk, rv, rw, ship)
	if first == nil {
		first = err
	}
	return lsn, first
}

// record is the record step of a call of kind whose keys are rk, with rv
// and rw their operands of vals and vals2: one run of records per op
// (write), after the apply — durable.go says why that is safe. It
// returns the last shipped record's LSN.
func (g *guard) record(kind BatchOp, rk, rv, rw []uint64, ship bool) (uint64, error) {
	switch kind {
	case BatchInsert:
		return g.write(ShipInsert, rk, rv, ship)
	case BatchUpsert:
		return g.write(ShipUpsert, rk, rv, ship)
	case BatchDelete:
		return g.write(ShipDelete, rk, nil, ship)
	case BatchExpire:
		return g.write(ShipExpire, rk, rv, ship)
	case BatchCompareSwap:
		return g.write(ShipUpsert, rk, rw, ship)
	}
	// Upsert-ttl: values before deadlines, so the covering (higher) LSNs
	// belong to the expires, a follower at the returned LSN has both, and
	// replaying either log converges to value + deadline. The WAL takes
	// the deadlines even when the values failed to ship; they ship only
	// once the values have.
	_, err := g.write(ShipUpsert, rk, rv, ship)
	lsn, err2 := g.write(ShipExpire, rk, rw, ship && err == nil)
	if err != nil {
		return 0, err
	}
	return lsn, err2
}

// write is one run of records (vals nil: zero values): the WAL of a
// durable table takes them first, then the sink, when ship is set, the
// ones the WAL took. It returns the last shipped record's LSN (0 when
// the sink failed) and the first error.
func (g *guard) write(op uint8, keys, vals []uint64, ship bool) (uint64, error) {
	var err error
	if g.log != nil {
		var n int
		n, err = g.logRecords(op, keys, vals)
		keys = keys[:n]
		if vals != nil {
			vals = vals[:n]
		}
	}
	if !ship || len(keys) == 0 {
		return 0, err
	}
	first, serr := g.ship(op, keys, vals)
	if serr != nil {
		return 0, cmp.Or(err, serr)
	}
	return first + uint64(len(keys)) - 1, err
}

// logRecords appends one WAL record per key and returns how many the log
// took — the durable record hook, and the only place a table's log is
// appended to. A refusal is sticky: every later append fails too.
func (g *guard) logRecords(op uint8, keys, vals []uint64) (int, error) {
	for i, k := range keys {
		var v uint64
		if vals != nil {
			v = vals[i]
		}
		if _, err := g.log.Append(wal.Op(op), k, v); err != nil {
			return i, err
		}
	}
	return len(keys), nil
}

// applyOne is kind's action on one key, with operands a and b standing
// for vals[i] and vals2[i]. ok reports that the write applied (insert,
// upsert, upsert-ttl), the key was found (lookup, delete, expire) or the
// value swapped (cas); val is a lookup's value.
func (g *guard) applyOne(kind BatchOp, key, a, b uint64) (val uint64, ok bool, err error) {
	switch kind {
	case BatchInsert:
		err = g.t.Insert(key, a)
	case BatchUpsert, BatchUpsertTTL:
		err = g.t.Upsert(key, a)
	case BatchLookup:
		val, ok = g.live(key)
		return val, ok, nil
	case BatchDelete:
		// A key that expired before the sweep reached it is still
		// removed physically, but reports a miss: it was logically
		// absent.
		expired := g.expired(key)
		ok = g.t.Delete(key) && !expired
		g.exp.Clear(key)
		return 0, ok, nil
	case BatchExpire:
		if _, ok = g.live(key); ok {
			g.setDeadline(key, a)
		}
		return 0, ok, nil
	case BatchCompareSwap:
		if g.expired(key) {
			g.expStats.LazyHits++
			return 0, false, nil
		}
		if ok, err = g.t.compareSwap(key, a, b); ok {
			g.exp.Clear(key)
		}
		return 0, ok, err
	}
	// The value writes.
	if err != nil {
		return 0, false, err
	}
	g.exp.Clear(key)
	if kind == BatchUpsertTTL {
		g.setDeadline(key, b)
	}
	return 0, true, nil
}

// arm reads the TTL clock for one call (apply, Scan, SweepExpired):
// once, and not at all while no key has a deadline (callNow stays 0).
// While the earliest deadline is still ahead of it no key of the call can
// be expired, and expired skips the per-key probe of the deadline map.
func (g *guard) arm() {
	g.callNow, g.anyDue = 0, false
	if g.exp.Len() > 0 {
		g.callNow = g.now()
		g.anyDue = g.exp.Earliest() <= g.callNow
	}
}

// expired reports whether key's deadline had passed when the call began.
func (g *guard) expired(key uint64) bool {
	if !g.anyDue {
		return false
	}
	d, ok := g.exp.Deadline(key)
	return ok && d <= g.callNow
}

// live is the lazily filtered read: a key is dead the instant its
// deadline passes, without waiting for the sweep to delete it.
func (g *guard) live(key uint64) (uint64, bool) {
	if g.expired(key) {
		g.expStats.LazyHits++
		return 0, false
	}
	return g.t.Lookup(key)
}

// setDeadline records a deadline in the index; apply's record step
// writes its expire record.
func (g *guard) setDeadline(key, deadline uint64) {
	g.exp.Set(key, deadline)
	// The new deadline may already be due for the rest of the call.
	if g.callNow == 0 {
		g.arm() // the index was empty when the call began: first clock read
	} else if deadline <= g.callNow {
		g.anyDue = true
	}
}

// one is a single-key operation (insert, upsert, lookup, delete), which
// never ships: applyOne, then — on a durable table — the record step,
// as for a one-element batch. On a scratch table that check is all it
// adds.
func (g *guard) one(kind BatchOp, key, val uint64) (uint64, bool, error) {
	if g.closed {
		return 0, false, ErrClosed
	}
	g.arm()
	v, ok, err := g.applyOne(kind, key, val, 0)
	switch {
	case kind == BatchLookup:
		g.t.settleReads()
	case g.log != nil && (ok || kind == BatchDelete):
		g.k1[0], g.v1[0] = key, val
		if _, rerr := g.record(kind, g.k1[:], g.v1[:], nil, false); err == nil {
			err = rerr
		}
	}
	return v, ok, err
}

func (g *guard) Insert(key, val uint64) error {
	_, _, err := g.one(BatchInsert, key, val)
	return err
}

func (g *guard) Upsert(key, val uint64) error {
	_, _, err := g.one(BatchUpsert, key, val)
	return err
}

func (g *guard) Lookup(key uint64) (uint64, bool) {
	v, ok, _ := g.one(BatchLookup, key, 0)
	return v, ok
}

// Delete reports a miss when the record step failed: the key is gone
// from the table, but nothing durable says so.
func (g *guard) Delete(key uint64) bool {
	_, ok, err := g.one(BatchDelete, key, 0)
	return ok && err == nil
}

func (g *guard) Len() int {
	if g.closed {
		return 0
	}
	return g.t.Len()
}

func (g *guard) Stats() Stats { return g.t.Stats() }

func (g *guard) StoreStats() StoreStats { return g.t.StoreStats() }

// MergeStats reports the table's restructuring counters (see MergeStats).
func (g *guard) MergeStats() MergeStats {
	if g.closed {
		return MergeStats{}
	}
	return g.t.mergeStats()
}

func (g *guard) MemoryUsed() int64 { return g.t.MemoryUsed() }

func (g *guard) Durable() bool { return g.log != nil }

// SetShip installs the ship sink (Engine.SetShip). A shard's guard is
// driven by its worker alone, so "apply then ship, per key, in call
// order" is the total order the seam needs.
func (g *guard) SetShip(fn ShipFunc) { g.ship = fn }

func (g *guard) Sync() error {
	if g.closed {
		return ErrClosed
	}
	return g.t.Sync()
}

func (g *guard) beginSync() (fsync func() error, err error) {
	if g.closed {
		return nil, ErrClosed
	}
	return g.t.beginSync()
}

func (g *guard) Flush() error {
	if g.closed {
		return ErrClosed
	}
	return g.t.Flush()
}

func (g *guard) Close() error {
	if g.closed {
		return ErrClosed
	}
	g.closed = true
	return g.t.Close()
}
