package extbuf

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"extbuf/internal/xrand"
)

// shardQueueDepth bounds each shard worker's request channel. The bound
// is the engine's backpressure: once a shard falls this many requests
// behind, submitters block on the send instead of growing an unbounded
// queue. One request carries a whole batch slice, so the queue depth is
// in batches, not operations.
const shardQueueDepth = 64

// Sharded runs S independent tables as a concurrent pipelined engine.
// Keys are partitioned by a hash independent of the shard tables' own
// hash functions, and each shard is owned by a dedicated worker
// goroutine fed by a bounded request channel, so operations on
// different shards proceed in parallel and batches fan out to all
// shards at once.
//
// Every keyed operation is one choreography: split the operand vector
// by shard, hand every shard its share in input order (startBatch), and
// join (waitBatch); each worker runs its share through its guard's
// apply, writing results at the original positions. The single-key
// methods are one-element batches, so the per-shard operation order —
// and therefore the simulated I/O counters on the "mem" backend — is
// identical to a sequential run of the same stream. StartBatch exposes
// the two halves separately, so a caller can keep several batches
// outstanding and the workers busy, with the same per-key order.
// Everything unkeyed (Len, StoreStats, ExpiryStats, SweepExpired, Scan,
// Sync, Flush, Close) is the other choreography: broadcast.
//
// A call returns once every shard has applied its share, with the join
// of the shards' first errors, and it queues behind the prior calls of
// its shards, so read-your-writes holds. Flush and Close are the
// checkpoint barriers that also drive all shards' backend syncs in
// parallel. A closed engine returns ErrClosed (zero results from
// Lookup/Delete/Len), never a miss mistaken for one.
//
// The external memory model is per-shard: each shard owns a disk and an
// m-word memory budget (total memory = Shards * Config.MemoryWords),
// which models S independent spindles/workers. Per-shard costs obey the
// paper's bounds with n/S items each; Stats aggregates all shards
// without entering the pipeline (the underlying counters are atomic),
// so monitoring never stalls the workers.
type Sharded struct {
	shards   []*guard
	reqs     []chan *BatchCall
	workerWG sync.WaitGroup
	salt     uint64
	bits     uint

	// fsyncWG counts a Sync barrier's fsyncs still in flight, detached
	// from the shard workers; Close waits them out before it closes the
	// logs under them.
	fsyncWG sync.WaitGroup

	// callPool recycles the handles, so the steady-state submission path
	// allocates nothing.
	callPool sync.Pool

	// stateMu makes submission and shutdown race-free: submitters hold
	// the read side across the closed check and their channel sends, and
	// Close takes the write side to flip closed and close the channels,
	// so a send can never hit a closed channel. Every access to closed
	// is under stateMu or closeMu (Close serializes on closeMu and is
	// the only writer).
	stateMu  sync.RWMutex
	closed   bool
	closeMu  sync.Mutex
	closeErr error
}

// BatchCall is one request in flight on the shard queues — the handle
// StartBatch returns and Wait joins. Every shard it concerns receives
// the same pointer: the request half is read-only to the workers, and
// each worker writes only its own shard's result slots (and, of the
// caller's result slices, only its own positions), so they never
// contend. Handles are pooled, and carry their own storage for
// single-key operands.
type BatchCall struct {
	s *Sharded

	// The request: a keyed operand vector, of which worker i applies
	// positions parts[i] (in input order; backing arrays reused across
	// batches), or an unkeyed kind with its argument.
	opVec
	parts  [][]int
	cursor uint64 // opScan: in-shard bucket cursor
	maxN   int    // opScan page size; opSweep per-shard budget

	// Completion: the workers signal wg.
	wg sync.WaitGroup

	// Results, one slot per shard, and the page of an opScan.
	errs         []error
	lsns         []uint64 // highest ship LSN
	lens         []int64
	stores       []StoreStats
	expSt        []ExpiryStats
	mergeSt      []MergeStats
	scanK, scanV []uint64
	scanNext     uint64

	// Operand storage of single-key calls (v1 also takes the looked-up
	// value).
	k1, v1 [1]uint64
	ok1    [1]bool
}

func (s *Sharded) getCall() *BatchCall { return s.callPool.Get().(*BatchCall) }

// putCall recycles c once no worker can touch it, clearing the slots a
// later call only writes on some shards (a stale error or LSN must
// never surface in another batch) and dropping the caller's slices.
func (s *Sharded) putCall(c *BatchCall) {
	clear(c.errs)
	clear(c.lsns)
	c.opVec = opVec{}
	c.scanK, c.scanV = nil, nil
	s.callPool.Put(c)
}

// NewSharded builds a sharded table of the given structure ("buffered",
// "knuth", ... — see Structures) with shards shards (rounded up to a
// power of two). Each shard receives a distinct hash seed derived from
// cfg.Seed, and a dedicated worker goroutine that applies its requests
// in submission order.
//
// Backends shard too: with Backend "file" each shard persists to its own
// file — cfg.Path plus a ".shardNNN" suffix (or a private temp file when
// Path is empty) — modeling S independent spindles that seek in
// parallel, just as each shard owns an independent memory budget. A
// named Path makes every shard durable (its own write-ahead log and
// checkpoint; see Config.Path): NewSharded on an existing Path reopens
// and recovers every shard before any worker starts serving — the
// recovery barrier — and refuses a shard count different from the one
// recorded in the shards' superblocks (ErrSuperblockMismatch), since
// the key partition depends on it.
func NewSharded(structure string, cfg Config, shards int) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("extbuf: shards must be >= 1, got %d", shards)
	}
	cfg = cfg.withDefaults()
	n := 1
	bits := uint(0)
	for n < shards {
		n <<= 1
		bits++
	}
	s := &Sharded{
		shards: make([]*guard, n),
		reqs:   make([]chan *BatchCall, n),
		salt:   xrand.Mix64(cfg.Seed ^ 0xa5a5a5a5a5a5a5a5),
		bits:   bits,
	}
	s.callPool.New = func() any {
		return &BatchCall{
			s:       s,
			parts:   make([][]int, n),
			errs:    make([]error, n),
			lsns:    make([]uint64, n),
			lens:    make([]int64, n),
			stores:  make([]StoreStats, n),
			expSt:   make([]ExpiryStats, n),
			mergeSt: make([]MergeStats, n),
		}
	}
	// Open the shards concurrently, GOMAXPROCS at a time: each durable
	// shard's open reads its checkpoint, rebuilds its structure and
	// replays its WAL tail — fully independent work, so the recovery
	// cold path scales near-linearly until cores (or the device)
	// saturate. Fresh builds parallelize the same way. Errors keep the
	// serial contract: the lowest-index failure is reported, and every
	// shard that did open is closed.
	sem := make(chan struct{}, min(runtime.GOMAXPROCS(0), n))
	errs := make([]error, n)
	var openWG sync.WaitGroup
	for i := range s.shards {
		openWG.Add(1)
		go func(i int) {
			defer openWG.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			scfg := cfg
			scfg.Seed = cfg.Seed + uint64(i)*0x9e3779b97f4a7c15
			scfg.ExpectedItems = cfg.ExpectedItems/n + 1
			if scfg.Path != "" {
				scfg.Path = fmt.Sprintf("%s.shard%03d", cfg.Path, i)
				if scfg.WALPath != "" {
					scfg.WALPath = fmt.Sprintf("%s.shard%03d", cfg.WALPath, i)
				}
				scfg.shardCount = n
				scfg.shardIndex = i
			}
			g, err := open(structure, scfg)
			if err != nil {
				errs[i] = fmt.Errorf("extbuf: shard %d: %w", i, err)
				return
			}
			s.shards[i] = g
		}(i)
	}
	openWG.Wait()
	for _, err := range errs {
		if err == nil {
			continue
		}
		for _, built := range s.shards {
			if built != nil {
				built.Close()
			}
		}
		return nil, err
	}
	for i := range s.shards {
		s.reqs[i] = make(chan *BatchCall, shardQueueDepth)
		s.workerWG.Add(1)
		go s.worker(i)
	}
	return s, nil
}

// worker is shard i's dedicated goroutine: it owns the shard's guard
// exclusively and serves requests in channel order until Close shuts
// the channel.
func (s *Sharded) worker(i int) {
	defer s.workerWG.Done()
	g := s.shards[i]
	for c := range s.reqs[i] {
		s.serve(i, g, c)
	}
}

// serve runs shard i's part of one request.
func (s *Sharded) serve(i int, g *guard, c *BatchCall) {
	switch c.kind {
	case opLen:
		c.lens[i] = int64(g.Len())
	case opStats:
		c.stores[i] = g.StoreStats()
	case opExpiryStats:
		c.expSt[i] = g.ExpiryStats()
	case opMergeStats:
		c.mergeSt[i] = g.MergeStats()
	case opSweep:
		var n int
		n, c.lsns[i], c.errs[i] = g.SweepExpired(c.maxN)
		c.lens[i] = int64(n)
	case opScan:
		c.scanK, c.scanV, c.scanNext, c.errs[i] = g.Scan(c.cursor, c.maxN)
	case opSync:
		// Only the spill half of a durable shard's barrier runs here. The
		// fsync is handed to a goroutine of its own and the worker goes
		// back to its queue: applies (and lookups) queued behind the barrier
		// overlap the fsync instead of waiting out its ~250 µs, and the
		// barrier completes whenever the fsync does.
		fsync, err := g.beginSync()
		if fsync != nil {
			s.fsyncWG.Add(1)
			go s.finishSync(c, i, fsync)
			return
		}
		c.errs[i] = err
	case opFlush, opClose:
		c.errs[i] = g.Flush()
	default:
		// Every keyed kind: the worker owns the shard's apply order, and
		// apply ships from this goroutine. The sink's own append mutex
		// merges the shards into one contiguous LSN sequence, so per key
		// (a key hashes to exactly one shard) ship order == apply order.
		c.lsns[i], c.errs[i] = g.apply(&c.opVec, c.parts[i])
	}
	c.wg.Done()
}

// finishSync is the detached half of shard i's opSync: the fsync, then
// the barrier's completion.
func (s *Sharded) finishSync(c *BatchCall, i int, fsync func() error) {
	defer s.fsyncWG.Done()
	c.errs[i] = fsync()
	c.wg.Done()
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Durable reports whether the shards run on the durable file backend —
// i.e. whether Sync buys crash durability. The serving layer skips its
// ack barrier entirely when this is false.
func (s *Sharded) Durable() bool { return s.shards[0].Durable() }

func (s *Sharded) shard(key uint64) int {
	if s.bits == 0 {
		return 0
	}
	return int(xrand.Mix64(key^s.salt) >> (64 - s.bits))
}

// partitionInto maps each batch position to its shard, preserving
// input order within every shard's index list.
func (s *Sharded) partitionInto(keys []uint64, parts [][]int) {
	for i := range parts {
		parts[i] = parts[i][:0]
	}
	for i, k := range keys {
		sh := s.shard(k)
		parts[sh] = append(parts[sh], i)
	}
}

// startBatch is the submission half of the keyed choreography: it
// partitions the operand vector by shard and enqueues c on the FIFO
// queue of every shard that has a share. The closed check and the
// channel sends run under the state read-lock, so a send can never hit a
// closed channel; a full shard queue blocks the send (the engine's
// backpressure). It returns without waiting for any worker. On ErrClosed
// the handle has been recycled; otherwise the caller passes it to
// waitBatch exactly once and leaves the operand and result slices alone
// until that returns.
//
// A goroutine that starts several batches before waiting on the first
// keeps per-key order — every shard queue receives its shares in start
// order — which is what lets a connection keep the workers busy instead
// of idling them behind one fork-join per request.
func (s *Sharded) startBatch(c *BatchCall, v *opVec) error {
	c.opVec = *v
	s.partitionInto(c.keys, c.parts)
	s.stateMu.RLock()
	if s.closed {
		s.stateMu.RUnlock()
		s.putCall(c)
		return ErrClosed
	}
	for sh, idx := range c.parts {
		if len(idx) == 0 {
			continue
		}
		c.wg.Add(1)
		s.reqs[sh] <- c
	}
	s.stateMu.RUnlock()
	return nil
}

// join waits for every shard to finish its share of c and returns the
// call's highest ship LSN (the max over per-shard maxima; 0 when nothing
// shipped) and the joined per-shard errors. It runs outside the state
// lock: enqueued requests are served even while Close holds the write
// side.
func (s *Sharded) join(c *BatchCall) (uint64, error) {
	c.wg.Wait()
	var last uint64
	for _, lsn := range c.lsns {
		last = max(last, lsn)
	}
	return last, errors.Join(c.errs...)
}

// waitBatch is the join half of the keyed choreography; it recycles the
// handle.
func (s *Sharded) waitBatch(c *BatchCall) (uint64, error) {
	lsn, err := s.join(c)
	s.putCall(c)
	return lsn, err
}

// runBatch is a whole keyed batch — the length contract, start, then
// wait: the body of every batch method.
func (s *Sharded) runBatch(v *opVec) (uint64, error) {
	if err := v.check(); err != nil {
		return 0, err
	}
	c := s.getCall()
	if err := s.startBatch(c, v); err != nil {
		return 0, err
	}
	return s.waitBatch(c)
}

// InsertBatch inserts each (keys[i], vals[i]) pair in order.
func (s *Sharded) InsertBatch(keys, vals []uint64) error {
	_, err := s.runBatch(&opVec{kind: BatchInsert, keys: keys, vals: vals})
	return err
}

// UpsertBatch upserts each (keys[i], vals[i]) pair in order.
func (s *Sharded) UpsertBatch(keys, vals []uint64) error {
	_, err := s.runBatch(&opVec{kind: BatchUpsert, keys: keys, vals: vals})
	return err
}

// LookupBatch looks up every key, allocating the result slices.
func (s *Sharded) LookupBatch(keys []uint64) ([]uint64, []bool, error) {
	vals, found := make([]uint64, len(keys)), make([]bool, len(keys))
	return vals, found, s.LookupBatchInto(keys, vals, found)
}

// LookupBatchInto looks up every key into caller-provided slices.
func (s *Sharded) LookupBatchInto(keys, vals []uint64, found []bool) error {
	_, err := s.runBatch(&opVec{kind: BatchLookup, keys: keys, outV: vals, outOK: found})
	return err
}

// DeleteBatchInto deletes every key into a caller-provided found slice.
func (s *Sharded) DeleteBatchInto(keys []uint64, found []bool) error {
	_, err := s.runBatch(&opVec{kind: BatchDelete, keys: keys, outOK: found})
	return err
}

// InsertBatchShip is InsertBatch with the shipping contract (Engine).
func (s *Sharded) InsertBatchShip(keys, vals []uint64) (uint64, error) {
	return s.runBatch(&opVec{kind: BatchInsert, ship: true, keys: keys, vals: vals})
}

// UpsertBatchShip is UpsertBatch with the shipping contract (Engine).
func (s *Sharded) UpsertBatchShip(keys, vals []uint64) (uint64, error) {
	return s.runBatch(&opVec{kind: BatchUpsert, ship: true, keys: keys, vals: vals})
}

// DeleteBatchShipInto is DeleteBatchInto with the shipping contract
// (Engine).
func (s *Sharded) DeleteBatchShipInto(keys []uint64, found []bool) (uint64, error) {
	return s.runBatch(&opVec{kind: BatchDelete, ship: true, keys: keys, outOK: found})
}

// UpsertTTLBatchShip is Engine.UpsertTTLBatchShip.
func (s *Sharded) UpsertTTLBatchShip(keys, vals, deadlines []uint64) (uint64, error) {
	return s.runBatch(&opVec{kind: BatchUpsertTTL, ship: true, keys: keys, vals: vals, vals2: deadlines})
}

// CompareSwapBatchShip is Engine.CompareSwapBatchShip.
func (s *Sharded) CompareSwapBatchShip(keys, olds, news []uint64, swapped []bool) (uint64, error) {
	return s.runBatch(&opVec{kind: BatchCompareSwap, ship: true, keys: keys, vals: olds, vals2: news, outOK: swapped})
}

// one is a single-key operation: a one-element batch whose operand and
// result live in the pooled handle, so it allocates nothing.
func (s *Sharded) one(kind BatchOp, key, val uint64) (uint64, bool, error) {
	c := s.getCall()
	c.k1[0], c.v1[0], c.ok1[0] = key, val, false
	err := s.startBatch(c, &opVec{kind: kind, keys: c.k1[:], vals: c.v1[:], outV: c.v1[:], outOK: c.ok1[:]})
	if err != nil {
		return 0, false, err
	}
	_, err = s.join(c)
	v, ok := c.v1[0], c.ok1[0]
	s.putCall(c)
	return v, ok, err
}

// Insert stores (key, val) in key's shard, with the semantics of a
// one-element InsertBatch.
func (s *Sharded) Insert(key, val uint64) error {
	_, _, err := s.one(BatchInsert, key, val)
	return err
}

// Upsert stores (key, val) whether or not key is present.
func (s *Sharded) Upsert(key, val uint64) error {
	_, _, err := s.one(BatchUpsert, key, val)
	return err
}

// Lookup returns the value stored for key. On a closed engine it
// reports absence; LookupBatchInto is the error-signalled form.
func (s *Sharded) Lookup(key uint64) (uint64, bool) {
	v, ok, _ := s.one(BatchLookup, key, 0)
	return v, ok
}

// Delete removes key, reporting whether it was present. Like a table's
// Delete it reports a miss when the record step failed — the key is gone
// from the shard, but nothing durable says so — and on a closed engine;
// DeleteBatchInto is the error-signalled form.
func (s *Sharded) Delete(key uint64) bool {
	_, ok, err := s.one(BatchDelete, key, 0)
	return ok && err == nil
}

// SetShip installs (or removes, with nil) the ship sink on every shard's
// guard, whose apply and sweep emit to it from the shard worker. Per the
// Engine contract it must be wired before Ship-variant mutations are
// submitted and never toggled concurrently with them; the sink's append
// mutex merges all shards into one LSN sequence.
func (s *Sharded) SetShip(fn ShipFunc) {
	for _, g := range s.shards {
		g.SetShip(fn)
	}
}

// StartBatch is Engine.StartBatch: it returns once every shard's share
// is queued, without waiting for the workers. Batches started by one
// goroutine apply per key in start order, whether or not earlier ones
// have been waited for: a later batch's share queues behind the earlier
// one's on the same shard. So a caller may keep several calls
// outstanding and wait for them oldest-first; that is how the network
// server pipelines a connection's requests, and how a replication
// follower (ship false: it appends the records to its own log, in
// stream order, once the calls have completed) replays a stream.
func (s *Sharded) StartBatch(op BatchOp, ship bool, keys, vals, vals2 []uint64, found []bool) (*BatchCall, error) {
	if op > BatchCompareSwap {
		return nil, fmt.Errorf("extbuf: unknown batch op %d", op)
	}
	v := opVec{kind: op, ship: ship, keys: keys}
	switch op {
	case BatchLookup:
		v.outV, v.outOK = vals, found
	case BatchDelete:
		v.outOK = found
	case BatchExpire:
		v.vals, v.outOK = vals, found
	case BatchUpsertTTL:
		v.vals, v.vals2 = vals, vals2
	case BatchCompareSwap:
		v.vals, v.vals2, v.outOK = vals, vals2, found
	default:
		v.vals = vals
	}
	if err := v.check(); err != nil {
		return nil, err
	}
	c := s.getCall()
	if err := s.startBatch(c, &v); err != nil {
		return nil, err
	}
	return c, nil
}

// Wait joins a started batch: it returns once every shard has applied
// its share, with the batch's highest ship LSN (0 when nothing shipped)
// and the joined per-shard errors — what the synchronous call would have
// returned. The handle is recycled; it must not be used again.
func (c *BatchCall) Wait() (uint64, error) {
	return c.s.waitBatch(c)
}

// broadcast is the unkeyed choreography: it hands c, as a request of the
// given kind, to the workers of shards lo..hi-1 — behind everything
// already queued there, so the answer reflects every operation submitted
// before it — waits for them, and
// returns the joined per-shard errors. The caller owns c before and
// after (it sets the kind's argument, reads the result slots, recycles
// it). A closed engine returns ErrClosed without touching c's slots.
//
// opClose is the closing point: the flush is enqueued, closed flipped
// and the channels shut in one critical section under the state
// write-lock, so it is the last request every worker serves. Submitters
// hold the read side across their own check-and-send, so they land
// either wholly before this (served normally) or wholly after
// (ErrClosed) — never on a closed channel.
func (s *Sharded) broadcast(c *BatchCall, kind BatchOp, lo, hi int) error {
	c.kind = kind
	if kind == opClose {
		s.stateMu.Lock()
	} else {
		s.stateMu.RLock()
		if s.closed {
			s.stateMu.RUnlock()
			return ErrClosed
		}
	}
	c.wg.Add(hi - lo)
	for sh := lo; sh < hi; sh++ {
		s.reqs[sh] <- c
	}
	if kind == opClose {
		s.closed = true
		for _, q := range s.reqs {
			close(q)
		}
		s.stateMu.Unlock()
	} else {
		s.stateMu.RUnlock()
	}
	c.wg.Wait()
	return errors.Join(c.errs...)
}

// Len returns the total number of stored entries across shards.
func (s *Sharded) Len() int {
	c := s.getCall()
	defer s.putCall(c)
	if s.broadcast(c, opLen, 0, len(s.shards)) != nil {
		return 0
	}
	var total int64
	for _, n := range c.lens {
		total += n
	}
	return int(total)
}

// StoreStats returns the aggregated backend real-cost counters of all
// shards (file-backend syscall/pool counters plus per-shard WAL
// spill/fsync counts; zeros on scratch backends). Unlike Stats the
// backend counters are not atomic, so the snapshot rides through the
// pipeline like Len and briefly occupies each shard worker. A closed
// engine returns zeros.
func (s *Sharded) StoreStats() StoreStats {
	c := s.getCall()
	defer s.putCall(c)
	var total StoreStats
	if s.broadcast(c, opStats, 0, len(s.shards)) != nil {
		return total
	}
	for _, st := range c.stores {
		total = total.Add(st)
	}
	return total
}

// ExpiryStats aggregates the shards' TTL counters (Engine.ExpiryStats).
func (s *Sharded) ExpiryStats() ExpiryStats {
	c := s.getCall()
	defer s.putCall(c)
	var total ExpiryStats
	if s.broadcast(c, opExpiryStats, 0, len(s.shards)) != nil {
		return total
	}
	for _, st := range c.expSt {
		total = total.Add(st)
	}
	return total
}

// MergeStats aggregates the shards' restructuring counters (see
// MergeStats). Like StoreStats it rides through the pipeline.
func (s *Sharded) MergeStats() MergeStats {
	c := s.getCall()
	defer s.putCall(c)
	var total MergeStats
	if s.broadcast(c, opMergeStats, 0, len(s.shards)) != nil {
		return total
	}
	for _, st := range c.mergeSt {
		total = total.Add(st)
	}
	return total
}

// SweepExpired physically deletes up to max due keys across the shards
// (Engine.SweepExpired), splitting the budget evenly. The per-shard
// sweeps run in parallel inside the workers and ship their deletes.
func (s *Sharded) SweepExpired(max int) (int, uint64, error) {
	if max <= 0 {
		return 0, 0, nil
	}
	c := s.getCall()
	defer s.putCall(c)
	c.maxN = (max + len(s.shards) - 1) / len(s.shards)
	err := s.broadcast(c, opSweep, 0, len(s.shards))
	if errors.Is(err, ErrClosed) {
		return 0, 0, err
	}
	var n int64
	var last uint64
	for sh := range s.shards {
		n += c.lens[sh]
		if c.lsns[sh] > last {
			last = c.lsns[sh]
		}
	}
	return int(n), last, err
}

// scanShardShift positions the shard index in a Sharded scan cursor:
// shard in the top 16 bits, that shard's own bucket cursor in the low
// 48 (no structure approaches 2^48 buckets).
const scanShardShift = 48

// Scan reads one page in shard-then-bucket order (Engine.Scan). The
// cursor packs the shard index above the shard's own bucket cursor;
// exhausted shards advance the cursor to the next one, so a client
// paging from 0 to ScanDone visits every shard exactly once. Each page
// is read by the shard's worker (a one-shard broadcast), so it is
// consistent with the shard's apply order.
func (s *Sharded) Scan(cursor uint64, max int) ([]uint64, []uint64, uint64, error) {
	sh := int(cursor >> scanShardShift)
	c := s.getCall()
	defer s.putCall(c)
	c.cursor, c.maxN = cursor&(1<<scanShardShift-1), max
	for ; sh < len(s.shards); sh, c.cursor = sh+1, 0 {
		if err := s.broadcast(c, opScan, sh, sh+1); err != nil {
			return nil, nil, ScanDone, err
		}
		switch {
		case c.scanNext != ScanDone:
			return c.scanK, c.scanV, uint64(sh)<<scanShardShift | c.scanNext, nil
		case sh+1 == len(s.shards):
			return c.scanK, c.scanV, ScanDone, nil
		case len(c.scanK) > 0:
			return c.scanK, c.scanV, uint64(sh+1) << scanShardShift, nil
		}
		// Empty shard: page the next one, so callers only see an empty
		// page when the whole table is exhausted.
	}
	return nil, nil, ScanDone, nil
}

// Sync is the engine's acknowledgement barrier: it waits for every
// shard to drain the requests queued before it and makes them durable
// without a checkpoint — each durable shard's worker spills its
// write-ahead log and hands the fsync to a goroutine of its own, so
// the per-shard fsyncs overlap each other AND the operations queued
// behind the barrier, which the workers go straight back to applying.
// Once Sync returns nil, every operation submitted before it survives a
// crash. The serving layer group-commits client acks behind this
// barrier.
func (s *Sharded) Sync() error {
	c := s.getCall()
	defer s.putCall(c)
	return s.broadcast(c, opSync, 0, len(s.shards))
}

// Flush is the engine's checkpoint barrier: it waits for every shard to
// drain the requests queued before it, syncs all shards' storage
// backends in parallel (overlapping their syscalls; durable shards
// commit a full checkpoint), and returns the join of their errors.
func (s *Sharded) Flush() error {
	c := s.getCall()
	defer s.putCall(c)
	return s.broadcast(c, opFlush, 0, len(s.shards))
}

// Stats returns the aggregated I/O counters of all shards. It reads the
// counters atomically without entering the pipeline, so it never stalls
// the workers; concurrent mutations may be partially reflected, but the
// snapshot is monotonic.
func (s *Sharded) Stats() Stats {
	var out Stats
	for _, g := range s.shards {
		st := g.Stats()
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.WriteBacks += st.WriteBacks
	}
	return out
}

// MemoryUsed returns the summed memory charge of all shards, read
// atomically without entering the pipeline.
func (s *Sharded) MemoryUsed() int64 {
	var total int64
	for _, g := range s.shards {
		total += g.MemoryUsed()
	}
	return total
}

// Close drains the pipeline (a Flush barrier), stops every worker, and
// releases every shard, returning the join of the shards' flush and
// close errors. Close is idempotent, and safe
// against concurrent operations: anything submitted before the closing
// point (see broadcast) completes normally, anything after it is
// rejected with ErrClosed (or zero results from Lookup/Delete/Len).
// Calls after the first return the first call's error.
func (s *Sharded) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return s.closeErr
	}
	c := s.getCall()
	errs := []error{s.broadcast(c, opClose, 0, len(s.shards))}
	s.putCall(c)
	s.workerWG.Wait()
	s.fsyncWG.Wait()
	for _, g := range s.shards {
		errs = append(errs, g.Close())
	}
	s.closeErr = errors.Join(errs...)
	return s.closeErr
}
