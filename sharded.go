package extbuf

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"extbuf/internal/wal"
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
// The batch entry points (InsertBatch, UpsertBatch, LookupBatch,
// DeleteBatch) split a slice of operations by shard, hand every shard
// its sub-batch in input order, and reassemble results at the original
// positions. The single-operation methods are one-element batches, so
// the per-shard operation order — and therefore the simulated I/O
// counters on the "mem" backend — is identical to a sequential run of
// the same stream. Every batch is a start (partition and enqueue) and a
// wait (join); StartBatch exposes the two halves separately, so a
// caller can keep several batches outstanding and the workers busy,
// with the same per-key order.
//
// Config.FlushPolicy selects the write path: under FlushSync (default)
// a mutation call returns once every shard has applied its share, and
// under FlushAsync Insert/Upsert enqueue and return immediately
// (write-behind), with Flush and Close acting as completion barriers
// that also drive all shards' backend syncs in parallel. Reads always
// queue behind prior writes of their shard, so read-your-writes holds
// under both policies.
//
// The external memory model is per-shard: each shard owns a disk and an
// m-word memory budget (total memory = Shards * Config.MemoryWords),
// which models S independent spindles/workers. Per-shard costs obey the
// paper's bounds with n/S items each; Stats aggregates all shards
// without entering the pipeline (the underlying counters are atomic),
// so monitoring never stalls the workers.
type Sharded struct {
	shards   []Table
	reqs     []chan *shardReq
	deferred [][]error // per-shard async errors; owned by the worker between barriers
	workerWG sync.WaitGroup
	salt     uint64
	bits     uint
	async    bool
	durable  bool

	// committer is the fsync pool every durable shard shares. A Sync
	// barrier's fsyncs run on it, detached from the shard workers;
	// fsyncWG counts the detached ones still in flight, which Close
	// waits out before it closes the logs under them.
	committer *wal.Committer
	fsyncWG   sync.WaitGroup

	// ship is the replication seam (Engine.SetShip): shard workers emit
	// applied mutations to it while they still own the per-shard apply
	// order, so a key's ship order always matches its apply order.
	// shipK/shipV are per-worker gather scratch (indexed by shard,
	// touched only by that shard's worker goroutine).
	ship  ShipFunc
	shipK [][]uint64
	shipV [][]uint64
	shipW [][]uint64 // third gather column (upsert-TTL deadlines)

	// reqPool and scratchPool recycle the per-request and per-batch
	// bookkeeping (request structs, partition index lists, error/length
	// slots), so the steady-state submission path allocates nothing.
	// Sync requests are returned by the submitter after its barrier;
	// write-behind requests (nil wg) are returned by the serving worker.
	reqPool     sync.Pool
	scratchPool sync.Pool

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

// opKind discriminates shard requests.
type opKind uint8

const (
	opInsert opKind = iota
	opUpsert
	opLookup
	opDelete
	opLen
	opSync
	opFlush
	opStats

	// Ship variants of the mutations: apply, then emit the applied
	// records to the ship sink from inside the worker (total-order
	// replication, DESIGN.md §2a). Always synchronous — the caller
	// needs the assigned LSNs back.
	opInsertShip
	opUpsertShip
	opDeleteShip

	// The TTL/CAS/scan surface (DESIGN.md §2b). Expire has ship and
	// non-ship variants — followers replay shipped expires without
	// re-shipping them; CAS and upsert-with-TTL only exist shipped. All
	// run synchronously: callers need found flags or LSNs back.
	opExpire
	opExpireShip
	opUpsertTTLShip
	opCASShip
	opScan
	opSweep
	opExpiryStats
)

// shardReq is one shard's share of a batch: the positions idx of the
// caller's slices that hash to this shard, in input order. Result and
// error slots are shared across the fan-out but written at disjoint
// positions (per-operation slots at idx, per-shard slots at shard), so
// workers never contend. A nil wg marks a write-behind request: the
// worker applies it without signalling and parks any error until the
// next barrier.
//
// Requests are pooled. The trailing inline fields are the operand and
// result storage of pooled single-operation requests (the slice fields
// alias them), so a single op carries no per-call slices at all.
type shardReq struct {
	kind   opKind
	keys   []uint64
	vals   []uint64     // insert/upsert payloads, parallel to keys
	idx    []int        // this shard's positions within keys/vals
	outV   []uint64     // lookup values, parallel to keys
	outOK  []bool       // lookup/delete hits, parallel to keys
	errs   []error      // one slot per shard
	lens   []int64      // one slot per shard
	stores []StoreStats // one slot per shard (opStats)
	lsns   []uint64     // one slot per shard: highest ship LSN (ship kinds)
	shard  int
	wg     *sync.WaitGroup

	// TTL/CAS/scan operands and results.
	vals2    []uint64      // third operand column: CAS new values, upsert-TTL deadlines
	expSt    []ExpiryStats // one slot per shard (opExpiryStats)
	cursor   uint64        // opScan: in-shard bucket cursor
	maxN     int           // opScan page size; opSweep per-shard budget
	scanK    []uint64      // opScan page, written by the worker
	scanV    []uint64
	scanNext uint64

	// Inline storage for single-operation requests.
	wg1   sync.WaitGroup
	k1    [1]uint64
	v1    [1]uint64
	outV1 [1]uint64
	ok1   [1]bool
	e1    [1]error
}

// BatchCall is one fan-out in flight — the handle StartBatch returns and
// Wait joins — and, being pooled, the per-batch bookkeeping of every
// submitting goroutine: partition index lists (backing arrays reused
// across batches), the barrier the shard workers signal, per-shard
// error, LSN and length slots, and the request pointers to recycle once
// the barrier has passed.
type BatchCall struct {
	s      *Sharded
	wg     sync.WaitGroup
	parts  [][]int
	errs   []error
	lens   []int64
	stores []StoreStats
	lsns   []uint64
	expSt  []ExpiryStats
	reqs   []*shardReq
}

// getReq returns a zeroed pooled request.
func (s *Sharded) getReq() *shardReq { return s.reqPool.Get().(*shardReq) }

// putReq recycles a request once no worker can touch it (after the
// submitter's barrier for sync requests, after serve for write-behind
// ones). Fields are cleared individually — the inline WaitGroup must
// not be copied over.
func (s *Sharded) putReq(r *shardReq) {
	r.keys, r.vals, r.idx = nil, nil, nil
	r.outV, r.outOK, r.errs, r.lens = nil, nil, nil, nil
	r.stores, r.lsns = nil, nil
	r.vals2, r.expSt = nil, nil
	r.cursor, r.maxN = 0, 0
	r.scanK, r.scanV, r.scanNext = nil, nil, 0
	r.shard = 0
	r.wg = nil
	// Clear the inline result and error slots: a submission refused at
	// the closed check returns before any worker writes them, and the
	// caller must then read zero values, not a previous op's results.
	r.e1[0] = nil
	r.outV1[0] = 0
	r.ok1[0] = false
	s.reqPool.Put(r)
}

// getScratch returns pooled per-batch bookkeeping with clean error
// slots and empty request list.
func (s *Sharded) getScratch() *BatchCall { return s.scratchPool.Get().(*BatchCall) }

// putScratch recycles sc, clearing the error slots so a stale error
// can never surface in a later batch.
func (s *Sharded) putScratch(sc *BatchCall) {
	for i := range sc.errs {
		sc.errs[i] = nil
	}
	for i := range sc.lsns {
		sc.lsns[i] = 0
	}
	sc.reqs = sc.reqs[:0]
	s.scratchPool.Put(sc)
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
	if cfg.FlushPolicy != FlushSync && cfg.FlushPolicy != FlushAsync {
		return nil, fmt.Errorf("%w %q (want %q or %q)",
			ErrUnknownFlushPolicy, cfg.FlushPolicy, FlushSync, FlushAsync)
	}
	n := 1
	bits := uint(0)
	for n < shards {
		n <<= 1
		bits++
	}
	s := &Sharded{
		shards:   make([]Table, n),
		reqs:     make([]chan *shardReq, n),
		deferred: make([][]error, n),
		salt:     xrand.Mix64(cfg.Seed ^ 0xa5a5a5a5a5a5a5a5),
		bits:     bits,
		async:    cfg.FlushPolicy == FlushAsync,
		durable:  cfg.durable(),
	}
	s.reqPool.New = func() any { return new(shardReq) }
	s.scratchPool.New = func() any {
		return &BatchCall{
			s:      s,
			parts:  make([][]int, n),
			errs:   make([]error, n),
			lens:   make([]int64, n),
			stores: make([]StoreStats, n),
			lsns:   make([]uint64, n),
			expSt:  make([]ExpiryStats, n),
		}
	}
	s.shipK = make([][]uint64, n)
	s.shipV = make([][]uint64, n)
	s.shipW = make([][]uint64, n)
	// One group committer serves every durable shard: a Flush barrier
	// then overlaps all shards' WAL and block-file fsyncs in one pool
	// (two per shard) instead of each worker syncing serially.
	committer := wal.NewCommitter(2 * n)
	s.committer = committer
	// Open the shards concurrently, bounded by RecoveryParallelism:
	// each durable shard's open reads its checkpoint, rebuilds its
	// structure and replays its WAL tail — fully independent work, so
	// the recovery cold path scales near-linearly with the bound until
	// cores (or the device) saturate. Fresh builds parallelize the same
	// way. Errors keep the serial contract: the lowest-index failure is
	// reported, and every shard that did open is closed.
	par := cfg.RecoveryParallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	sem := make(chan struct{}, par)
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
				scfg.committer = committer
			}
			tab, err := Open(structure, scfg)
			if err != nil {
				errs[i] = fmt.Errorf("extbuf: shard %d: %w", i, err)
				return
			}
			s.shards[i] = tab
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
		s.reqs[i] = make(chan *shardReq, shardQueueDepth)
		s.workerWG.Add(1)
		go s.worker(i)
	}
	return s, nil
}

// worker is shard i's dedicated goroutine: it owns the shard table
// exclusively and applies requests in channel order until Close shuts
// the channel.
func (s *Sharded) worker(i int) {
	defer s.workerWG.Done()
	tab := s.shards[i]
	for req := range s.reqs[i] {
		writeBehind := req.wg == nil
		s.serve(i, tab, req)
		if writeBehind {
			// No submitter waits on a write-behind request; the worker
			// owns it after serve and recycles it.
			s.putReq(req)
		}
	}
}

// serve applies one request to shard i's table.
func (s *Sharded) serve(i int, tab Table, req *shardReq) {
	switch req.kind {
	case opInsert, opUpsert:
		var first error
		for _, j := range req.idx {
			var err error
			if req.kind == opInsert {
				err = tab.Insert(req.keys[j], req.vals[j])
			} else {
				err = tab.Upsert(req.keys[j], req.vals[j])
			}
			if err != nil && first == nil {
				first = err
			}
		}
		if req.wg == nil { // write-behind: park the error until a barrier
			if first != nil {
				s.deferred[i] = append(s.deferred[i], first)
			}
			return
		}
		req.errs[req.shard] = first
	case opLookup:
		for _, j := range req.idx {
			req.outV[j], req.outOK[j] = tab.Lookup(req.keys[j])
		}
	case opDelete:
		for _, j := range req.idx {
			req.outOK[j] = tab.Delete(req.keys[j])
		}
	case opLen:
		req.lens[req.shard] = int64(tab.Len())
	case opSync:
		// An acknowledgement barrier must surface every deferred
		// write-behind error — but it reports them WITHOUT consuming
		// them. Concurrent Sync barriers race with write-behind applies
		// in the shard queue, so a barrier cannot know whose operations
		// a parked error belongs to; if the first barrier swallowed it,
		// a later waiter whose own apply failed could be told "durable".
		// Instead every Sync until the next Flush/Close keeps failing —
		// conservative, and sound: after an unacknowledged apply failure
		// no clean ack may cover this shard. Flush remains the consuming
		// barrier.
		//
		// Only the spill half of a durable shard's barrier runs here. The
		// fsync is handed to the committer pool and the worker goes back
		// to its queue: applies (and lookups) queued behind the barrier
		// overlap the fsync instead of waiting out its ~250 µs, and the
		// barrier completes whenever the fsync does.
		var errs []error
		errs = append(errs, s.deferred[i]...)
		fsync, err := tab.(*guard).beginSync()
		if err != nil {
			errs = append(errs, err)
		}
		if fsync != nil {
			s.fsyncWG.Add(1)
			go func() {
				defer s.fsyncWG.Done()
				if err := s.committer.Commit(fsync); err != nil {
					errs = append(errs, err)
				}
				req.errs[req.shard] = errors.Join(errs...)
				req.wg.Done()
			}()
			return
		}
		req.errs[req.shard] = errors.Join(errs...)
	case opFlush:
		errs := s.deferred[i]
		s.deferred[i] = nil
		if err := tab.Flush(); err != nil {
			errs = append(errs, err)
		}
		req.errs[req.shard] = errors.Join(errs...)
	case opStats:
		req.stores[req.shard] = tab.StoreStats()
	case opInsertShip, opUpsertShip:
		// Apply, then ship the applied subset — from this goroutine,
		// which owns the shard's apply order. The sink's own append
		// mutex merges the shards into one contiguous LSN sequence, so
		// per key (a key hashes to exactly one shard) ship order ==
		// apply order: the replication total order. Ship kinds are
		// always synchronous (req.wg non-nil) — callers need the LSN.
		sk, sv := s.shipK[i][:0], s.shipV[i][:0]
		var first error
		for _, j := range req.idx {
			var err error
			if req.kind == opInsertShip {
				err = tab.Insert(req.keys[j], req.vals[j])
			} else {
				err = tab.Upsert(req.keys[j], req.vals[j])
			}
			if err != nil {
				if first == nil {
					first = err
				}
				continue
			}
			sk = append(sk, req.keys[j])
			sv = append(sv, req.vals[j])
		}
		s.shipK[i], s.shipV[i] = sk, sv
		if len(sk) > 0 && s.ship != nil {
			op := ShipInsert
			if req.kind == opUpsertShip {
				op = ShipUpsert
			}
			if lsn, err := s.ship(op, sk, sv); err != nil {
				if first == nil {
					first = err
				}
			} else {
				req.lsns[req.shard] = lsn + uint64(len(sk)) - 1
			}
		}
		req.errs[req.shard] = first
	case opDeleteShip:
		// Every attempted delete ships (a miss replays as an idempotent
		// no-op), so no gather filter is needed — but the ship slice
		// must still be built here, in apply order, for the same
		// total-order reason as above.
		sk := s.shipK[i][:0]
		for _, j := range req.idx {
			req.outOK[j] = tab.Delete(req.keys[j])
			sk = append(sk, req.keys[j])
		}
		s.shipK[i] = sk
		if len(sk) > 0 && s.ship != nil {
			if lsn, err := s.ship(ShipDelete, sk, nil); err != nil {
				req.errs[req.shard] = err
			} else {
				req.lsns[req.shard] = lsn + uint64(len(sk)) - 1
			}
		}
	case opExpire, opExpireShip:
		// Set deadlines on present keys, gathering the hits for the ship
		// variant — same apply-then-ship, same total-order argument as
		// the mutation ship kinds above.
		g := tab.(*guard)
		sk, sv := s.shipK[i][:0], s.shipV[i][:0]
		var first error
		for _, j := range req.idx {
			ok, err := g.expireAt(req.keys[j], req.vals[j])
			if err != nil && first == nil {
				first = err
			}
			req.outOK[j] = ok
			if ok && req.kind == opExpireShip {
				sk = append(sk, req.keys[j])
				sv = append(sv, req.vals[j])
			}
		}
		s.shipK[i], s.shipV[i] = sk, sv
		if req.kind == opExpireShip && len(sk) > 0 && s.ship != nil {
			if lsn, err := s.ship(ShipExpire, sk, sv); err != nil {
				if first == nil {
					first = err
				}
			} else {
				req.lsns[req.shard] = lsn + uint64(len(sk)) - 1
			}
		}
		req.errs[req.shard] = first
	case opUpsertTTLShip:
		// Upsert + deadline per key; ships the value batch before the
		// deadline batch so the covering (higher) LSNs belong to the
		// expires and a follower at the returned LSN has both.
		g := tab.(*guard)
		sk, sv, sd := s.shipK[i][:0], s.shipV[i][:0], s.shipW[i][:0]
		var first error
		for _, j := range req.idx {
			if err := g.upsertTTLOne(req.keys[j], req.vals[j], req.vals2[j]); err != nil {
				if first == nil {
					first = err
				}
				continue
			}
			sk = append(sk, req.keys[j])
			sv = append(sv, req.vals[j])
			sd = append(sd, req.vals2[j])
		}
		s.shipK[i], s.shipV[i], s.shipW[i] = sk, sv, sd
		if len(sk) > 0 && s.ship != nil {
			if _, err := s.ship(ShipUpsert, sk, sv); err != nil {
				if first == nil {
					first = err
				}
			} else if lsn, err := s.ship(ShipExpire, sk, sd); err != nil {
				if first == nil {
					first = err
				}
			} else {
				req.lsns[req.shard] = lsn + uint64(len(sk)) - 1
			}
		}
		req.errs[req.shard] = first
	case opCASShip:
		// Compare-and-swap; swapped keys ship as plain upserts (which
		// clear any TTL on followers, matching the primary's semantics).
		g := tab.(*guard)
		sk, sv := s.shipK[i][:0], s.shipV[i][:0]
		var first error
		for _, j := range req.idx {
			ok, err := g.casOne(req.keys[j], req.vals[j], req.vals2[j])
			if err != nil && first == nil {
				first = err
			}
			req.outOK[j] = ok
			if ok {
				sk = append(sk, req.keys[j])
				sv = append(sv, req.vals2[j])
			}
		}
		s.shipK[i], s.shipV[i] = sk, sv
		if len(sk) > 0 && s.ship != nil {
			if lsn, err := s.ship(ShipUpsert, sk, sv); err != nil {
				if first == nil {
					first = err
				}
			} else {
				req.lsns[req.shard] = lsn + uint64(len(sk)) - 1
			}
		}
		req.errs[req.shard] = first
	case opScan:
		req.scanK, req.scanV, req.scanNext, req.errs[req.shard] =
			tab.(*guard).Scan(req.cursor, req.maxN)
	case opSweep:
		g := tab.(*guard)
		n, lsn, err := g.SweepExpired(req.maxN)
		req.lens[req.shard] = int64(n)
		req.lsns[req.shard] = lsn
		req.errs[req.shard] = err
	case opExpiryStats:
		req.expSt[req.shard] = tab.(*guard).ExpiryStats()
	}
	req.wg.Done()
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Durable reports whether the shards run on the durable file backend —
// i.e. whether Sync buys crash durability. The serving layer skips its
// ack barrier entirely when this is false.
func (s *Sharded) Durable() bool { return s.durable }

func (s *Sharded) shard(key uint64) int {
	if s.bits == 0 {
		return 0
	}
	return int(xrand.Mix64(key^s.salt) >> (64 - s.bits))
}

// partitionInto maps each batch position to its shard, preserving
// input order within every shard's index list. The lists are built in
// parts (from a BatchCall), whose backing arrays are reused across
// batches.
func (s *Sharded) partitionInto(keys []uint64, parts [][]int) {
	for i := range parts {
		parts[i] = parts[i][:0]
	}
	if s.bits == 0 {
		for i := range keys {
			parts[0] = append(parts[0], i)
		}
		return
	}
	for i, k := range keys {
		sh := s.shard(k)
		parts[sh] = append(parts[sh], i)
	}
}

// singleIdx is the shared position list of every one-element batch.
// Workers only read req.idx, so one backing array serves all requests.
var singleIdx = [1]int{0}

// startBatch is the submission half of every multi-operation batch: it
// partitions the batch by shard and enqueues each shard's share, in
// input order, on that shard's FIFO queue. The closed check and the
// channel sends run under the state read-lock, so a send can never hit a
// closed channel; a full shard queue blocks the send (the engine's
// backpressure). It returns without waiting for any worker: the caller
// owns the handle and must pass it to waitBatch exactly once, and must
// leave the operand and result slices alone until that returns.
//
// A goroutine that starts several batches before waiting on the first
// keeps per-key order — every shard queue receives its shares in start
// order — which is what lets a connection keep the workers busy instead
// of idling them behind one fork-join per request.
func (s *Sharded) startBatch(kind opKind, keys, vals, vals2, outV []uint64, outOK []bool) (*BatchCall, error) {
	sc := s.getScratch()
	s.partitionInto(keys, sc.parts)
	s.stateMu.RLock()
	if s.closed {
		s.stateMu.RUnlock()
		s.putScratch(sc)
		return nil, ErrClosed
	}
	for sh, idx := range sc.parts {
		if len(idx) == 0 {
			continue
		}
		req := s.getReq()
		req.kind, req.keys, req.vals, req.vals2, req.idx = kind, keys, vals, vals2, idx
		req.outV, req.outOK = outV, outOK
		req.errs, req.lsns, req.shard, req.wg = sc.errs, sc.lsns, sh, &sc.wg
		sc.reqs = append(sc.reqs, req)
		sc.wg.Add(1)
		s.reqs[sh] <- req
	}
	s.stateMu.RUnlock()
	return sc, nil
}

// waitBatch is the join half: it waits for every shard to finish its
// share of sc, returns the batch's highest ship LSN (the max over
// per-shard maxima; 0 when nothing shipped) and the joined per-shard
// errors, and recycles the requests and the handle. It runs outside the
// state lock: enqueued requests are served even while Close holds the
// write side.
func (s *Sharded) waitBatch(sc *BatchCall) (uint64, error) {
	sc.wg.Wait()
	var last uint64
	for _, lsn := range sc.lsns {
		last = max(last, lsn)
	}
	err := errors.Join(sc.errs...)
	for _, req := range sc.reqs {
		s.putReq(req)
	}
	s.putScratch(sc)
	return last, err
}

// runBatch is a synchronous batch: start, then wait. One-element
// batches route through runOne.
func (s *Sharded) runBatch(kind opKind, keys, vals []uint64, outV []uint64, outOK []bool) error {
	if len(keys) == 1 {
		return s.runOne(kind, keys, vals, outV, outOK)
	}
	sc, err := s.startBatch(kind, keys, vals, nil, outV, outOK)
	if err != nil {
		return err
	}
	_, err = s.waitBatch(sc)
	return err
}

// submitOne is the one synchronous single-operation choreography: the
// pooled request's inline fields carry the operand (k1/v1) and error
// slot, the closed check and send run under the state read-lock, and
// the inline WaitGroup is the barrier. The caller owns req before and
// after the call (reading result slots, then recycling it) — submitOne
// never recycles. Steady state allocates nothing.
func (s *Sharded) submitOne(kind opKind, req *shardReq) error {
	req.kind = kind
	req.keys, req.vals, req.idx = req.k1[:], req.v1[:], singleIdx[:]
	req.errs, req.wg = req.e1[:], &req.wg1
	s.stateMu.RLock()
	if s.closed {
		s.stateMu.RUnlock()
		return ErrClosed
	}
	req.wg1.Add(1)
	s.reqs[s.shard(req.k1[0])] <- req
	s.stateMu.RUnlock()
	req.wg1.Wait()
	return req.e1[0]
}

// runOne adapts submitOne to batch-API callers with one-element
// slices: results land in the caller's outV/outOK.
func (s *Sharded) runOne(kind opKind, keys, vals []uint64, outV []uint64, outOK []bool) error {
	req := s.getReq()
	req.k1[0] = keys[0]
	if vals != nil {
		req.v1[0] = vals[0]
	}
	req.outV, req.outOK = outV, outOK
	err := s.submitOne(kind, req)
	s.putReq(req)
	return err
}

// mutateBatch is the write path: synchronous fan-out under FlushSync,
// copy-and-enqueue under FlushAsync.
func (s *Sharded) mutateBatch(kind opKind, keys, vals []uint64) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("%w: %d keys, %d values", ErrBatchLength, len(keys), len(vals))
	}
	if !s.async {
		return s.runBatch(kind, keys, vals, nil, nil)
	}
	if len(keys) == 1 {
		return s.mutateOneAsync(kind, keys[0], vals[0])
	}
	// Write-behind requests outlive the call, so they need their own
	// copy of the operands: the caller is free to reuse its slices the
	// moment we return. The copy is shared by every shard's request and
	// released by the garbage collector once the last worker is done.
	keys = append([]uint64(nil), keys...)
	vals = append([]uint64(nil), vals...)
	sc := s.getScratch()
	defer s.putScratch(sc)
	s.partitionInto(keys, sc.parts)
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	for sh, idx := range sc.parts {
		if len(idx) == 0 {
			continue
		}
		req := s.getReq()
		req.kind, req.keys, req.vals = kind, keys, vals
		// The index list must outlive this call too: write-behind
		// requests keep it until served, so it cannot come from the
		// recycled scratch backing.
		req.idx = append([]int(nil), idx...)
		s.reqs[sh] <- req
	}
	return nil
}

// mutateOneAsync enqueues a single write-behind mutation with the
// operand inlined in the pooled request — no copies, no slices.
func (s *Sharded) mutateOneAsync(kind opKind, key, val uint64) error {
	req := s.getReq()
	req.kind = kind
	req.k1[0], req.v1[0] = key, val
	req.keys, req.vals, req.idx = req.k1[:], req.v1[:], singleIdx[:]
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		s.putReq(req)
		return ErrClosed
	}
	s.reqs[s.shard(key)] <- req
	return nil
}

// InsertBatch stores (keys[i], vals[i]) for every i, partitioning the
// batch by shard and applying all shards' shares in parallel. The
// fresh-key contract of the buffered structure applies per the Table
// documentation. Under FlushSync it returns the join of the shards'
// first errors; under FlushAsync it returns after enqueueing and any
// application errors surface at the next Flush or Close.
func (s *Sharded) InsertBatch(keys, vals []uint64) error {
	return s.mutateBatch(opInsert, keys, vals)
}

// UpsertBatch stores (keys[i], vals[i]) for every i whether or not the
// keys are present, with the same fan-out and flush-policy semantics as
// InsertBatch.
func (s *Sharded) UpsertBatch(keys, vals []uint64) error {
	return s.mutateBatch(opUpsert, keys, vals)
}

// LookupBatch looks up every key in parallel across shards and returns
// values and presence flags in input order: vals[i], found[i] belong to
// keys[i]. Lookups queue behind previously submitted writes of their
// shard, so a batch observes everything enqueued before it. The error
// is non-nil only when the engine is closed (ErrClosed) — never for
// absent keys — so a miss is distinguishable from use-after-close.
func (s *Sharded) LookupBatch(keys []uint64) (vals []uint64, found []bool, err error) {
	vals = make([]uint64, len(keys))
	found = make([]bool, len(keys))
	err = s.LookupBatchInto(keys, vals, found)
	return vals, found, err
}

// LookupBatchInto is LookupBatch with caller-provided result storage:
// vals[i] and found[i] receive the result for keys[i]. Both slices must
// be at least len(keys) long (ErrBatchLength otherwise). Reusing the
// slices across calls keeps a serving loop allocation-free; the serving
// layer's request pipeline is built on exactly this entry point.
func (s *Sharded) LookupBatchInto(keys, vals []uint64, found []bool) error {
	if len(vals) < len(keys) || len(found) < len(keys) {
		return fmt.Errorf("%w: %d keys, %d value and %d found slots",
			ErrBatchLength, len(keys), len(vals), len(found))
	}
	return s.runBatch(opLookup, keys, nil, vals, found)
}

// DeleteBatch removes every key, reporting per key (in input order)
// whether it was present. Deletes synchronize under both flush
// policies: they must observe the table to report presence. The error
// is non-nil only when the engine is closed (ErrClosed).
func (s *Sharded) DeleteBatch(keys []uint64) ([]bool, error) {
	found := make([]bool, len(keys))
	err := s.DeleteBatchInto(keys, found)
	return found, err
}

// DeleteBatchInto is DeleteBatch with caller-provided result storage:
// found[i] reports whether keys[i] was present. found must be at least
// len(keys) long (ErrBatchLength otherwise).
func (s *Sharded) DeleteBatchInto(keys []uint64, found []bool) error {
	if len(found) < len(keys) {
		return fmt.Errorf("%w: %d keys, %d found slots", ErrBatchLength, len(keys), len(found))
	}
	return s.runBatch(opDelete, keys, nil, nil, found)
}

// SetShip installs (or removes, with nil) the ship sink the shard
// workers emit applied mutations to. Per the Engine contract it must
// be wired before Ship-variant mutations are submitted and never
// toggled concurrently with them; the serving layer installs it once
// at construction. The sink is also installed on every shard guard so
// guard-level shipping paths the workers delegate to (the expiry
// sweep) emit to the same sink; the sink's append mutex merges all
// shards into one LSN sequence either way.
func (s *Sharded) SetShip(fn ShipFunc) {
	s.ship = fn
	for _, tab := range s.shards {
		if g, ok := tab.(*guard); ok {
			g.SetShip(fn)
		}
	}
}

// runBatchShip is the synchronous form of the ship mutation kinds —
// always waited for, even under FlushAsync, since the caller needs the
// assigned LSNs back — with no single-op shortcut: the per-shard LSN
// slots live in the batch handle. Returns the batch's highest ship LSN.
func (s *Sharded) runBatchShip(kind opKind, keys, vals, vals2 []uint64, outOK []bool) (uint64, error) {
	sc, err := s.startBatch(kind, keys, vals, vals2, nil, outOK)
	if err != nil {
		return 0, err
	}
	return s.waitBatch(sc)
}

// BatchOp names the operation of a StartBatch call.
type BatchOp uint8

const (
	BatchInsert BatchOp = iota // InsertBatchShip
	BatchUpsert                // UpsertBatchShip
	BatchDelete                // DeleteBatchShipInto
	BatchLookup                // LookupBatchInto
)

// StartBatch submits the batch the serving layer would otherwise run
// with InsertBatchShip, UpsertBatchShip, DeleteBatchShipInto or
// LookupBatchInto — same length contracts, same shipping — and returns
// once every shard's share is queued, without waiting for the workers.
// vals carries the payloads of BatchInsert/BatchUpsert and receives the
// values of BatchLookup; found receives the hit flags of BatchLookup and
// BatchDelete. The caller must call Wait on the returned handle exactly
// once and must not touch keys, vals or found until it returns.
//
// Batches started by one goroutine apply per key in start order, whether
// or not earlier ones have been waited for: a later batch's share
// queues behind the earlier one's on the same shard. So a caller may
// keep several calls outstanding and wait for them oldest-first; that
// is how the network server pipelines a connection's requests.
func (s *Sharded) StartBatch(op BatchOp, keys, vals []uint64, found []bool) (*BatchCall, error) {
	switch op {
	case BatchInsert, BatchUpsert:
		if len(keys) != len(vals) {
			return nil, fmt.Errorf("%w: %d keys, %d values", ErrBatchLength, len(keys), len(vals))
		}
		kind := opInsertShip
		if op == BatchUpsert {
			kind = opUpsertShip
		}
		return s.startBatch(kind, keys, vals, nil, nil, nil)
	case BatchDelete:
		if len(found) < len(keys) {
			return nil, fmt.Errorf("%w: %d keys, %d found slots", ErrBatchLength, len(keys), len(found))
		}
		return s.startBatch(opDeleteShip, keys, nil, nil, nil, found)
	case BatchLookup:
		if len(vals) < len(keys) || len(found) < len(keys) {
			return nil, fmt.Errorf("%w: %d keys, %d value and %d found slots",
				ErrBatchLength, len(keys), len(vals), len(found))
		}
		return s.startBatch(opLookup, keys, nil, nil, vals, found)
	}
	return nil, fmt.Errorf("extbuf: unknown batch op %d", op)
}

// Wait joins a batch started by StartBatch: it returns once every shard
// has applied its share, with the batch's highest ship LSN (0 when
// nothing shipped) and the joined per-shard errors — what the
// synchronous call would have returned. The handle is recycled; it must
// not be used again.
func (c *BatchCall) Wait() (uint64, error) { return c.s.waitBatch(c) }

// runStarted is StartBatch + Wait: the synchronous form of the batches
// the serving layer can also pipeline, through the same validation.
func (s *Sharded) runStarted(op BatchOp, keys, vals []uint64, found []bool) (uint64, error) {
	c, err := s.StartBatch(op, keys, vals, found)
	if err != nil {
		return 0, err
	}
	return c.Wait()
}

// InsertBatchShip is InsertBatch plus shipping of the applied pairs in
// apply order (Engine.InsertBatchShip). Always synchronous.
func (s *Sharded) InsertBatchShip(keys, vals []uint64) (uint64, error) {
	return s.runStarted(BatchInsert, keys, vals, nil)
}

// UpsertBatchShip is UpsertBatch plus shipping of the applied pairs in
// apply order (Engine.UpsertBatchShip). Always synchronous.
func (s *Sharded) UpsertBatchShip(keys, vals []uint64) (uint64, error) {
	return s.runStarted(BatchUpsert, keys, vals, nil)
}

// DeleteBatchShipInto is DeleteBatchInto plus shipping of every
// attempted delete in apply order (Engine.DeleteBatchShipInto).
func (s *Sharded) DeleteBatchShipInto(keys []uint64, found []bool) (uint64, error) {
	return s.runStarted(BatchDelete, keys, nil, found)
}

// scanShardShift positions the shard index in a Sharded scan cursor:
// shard in the top 16 bits, that shard's own bucket cursor in the low
// 48 (no structure approaches 2^48 buckets).
const scanShardShift = 48

// ExpireBatch sets each present key's expiry deadline without shipping
// (Engine.ExpireBatch); followers replay shipped expire records through
// this path.
func (s *Sharded) ExpireBatch(keys, deadlines []uint64, found []bool) error {
	if len(deadlines) != len(keys) || len(found) < len(keys) {
		return fmt.Errorf("%w: %d keys, %d deadlines and %d found slots",
			ErrBatchLength, len(keys), len(deadlines), len(found))
	}
	if len(keys) == 0 {
		return nil
	}
	return s.runBatch(opExpire, keys, deadlines, nil, found)
}

// ExpireBatchShip is ExpireBatch plus shipping of the found subset in
// apply order (Engine.ExpireBatchShip). Always synchronous.
func (s *Sharded) ExpireBatchShip(keys, deadlines []uint64, found []bool) (uint64, error) {
	if len(deadlines) != len(keys) || len(found) < len(keys) {
		return 0, fmt.Errorf("%w: %d keys, %d deadlines and %d found slots",
			ErrBatchLength, len(keys), len(deadlines), len(found))
	}
	if len(keys) == 0 {
		return 0, nil
	}
	return s.runBatchShip(opExpireShip, keys, deadlines, nil, found)
}

// UpsertTTLBatchShip upserts each pair and installs its deadline in one
// atomic per-key step (Engine.UpsertTTLBatchShip). Always synchronous.
func (s *Sharded) UpsertTTLBatchShip(keys, vals, deadlines []uint64) (uint64, error) {
	if len(vals) != len(keys) || len(deadlines) != len(keys) {
		return 0, fmt.Errorf("%w: %d keys, %d values and %d deadlines",
			ErrBatchLength, len(keys), len(vals), len(deadlines))
	}
	if len(keys) == 0 {
		return 0, nil
	}
	return s.runBatchShip(opUpsertTTLShip, keys, vals, deadlines, nil)
}

// CompareSwapBatchShip atomically replaces each key's value with
// news[i] if it currently reads olds[i] (Engine.CompareSwapBatchShip).
// Each swap runs entirely inside the owning shard worker, so it is
// atomic against every other operation on that key.
func (s *Sharded) CompareSwapBatchShip(keys, olds, news []uint64, swapped []bool) (uint64, error) {
	if len(olds) != len(keys) || len(news) != len(keys) || len(swapped) < len(keys) {
		return 0, fmt.Errorf("%w: %d keys, %d olds, %d news and %d swapped slots",
			ErrBatchLength, len(keys), len(olds), len(news), len(swapped))
	}
	if len(keys) == 0 {
		return 0, nil
	}
	return s.runBatchShip(opCASShip, keys, olds, news, swapped)
}

// Scan reads one page in shard-then-bucket order (Engine.Scan). The
// cursor packs the shard index above the shard's own bucket cursor;
// exhausted shards advance the cursor to the next one, so a client
// paging from 0 to ScanDone visits every shard exactly once.
func (s *Sharded) Scan(cursor uint64, max int) ([]uint64, []uint64, uint64, error) {
	sh := int(cursor >> scanShardShift)
	inner := cursor & (1<<scanShardShift - 1)
	for sh < len(s.shards) {
		keys, vals, next, err := s.scanShard(sh, inner, max)
		if err != nil {
			return nil, nil, ScanDone, err
		}
		if next != ScanDone {
			return keys, vals, uint64(sh)<<scanShardShift | next, nil
		}
		sh, inner = sh+1, 0
		if sh >= len(s.shards) {
			return keys, vals, ScanDone, nil
		}
		if len(keys) > 0 {
			return keys, vals, uint64(sh) << scanShardShift, nil
		}
		// Empty shard: fall through and page the next one, so callers
		// only see an empty page when the whole table is exhausted.
	}
	return nil, nil, ScanDone, nil
}

// scanShard pages one shard through its worker (the worker owns the
// table, so the page is consistent with the shard's apply order).
func (s *Sharded) scanShard(sh int, cursor uint64, max int) ([]uint64, []uint64, uint64, error) {
	req := s.getReq()
	req.kind = opScan
	req.cursor, req.maxN = cursor, max
	req.errs, req.shard, req.wg = req.e1[:], 0, &req.wg1
	s.stateMu.RLock()
	if s.closed {
		s.stateMu.RUnlock()
		s.putReq(req)
		return nil, nil, ScanDone, ErrClosed
	}
	req.wg1.Add(1)
	s.reqs[sh] <- req
	s.stateMu.RUnlock()
	req.wg1.Wait()
	keys, vals, next, err := req.scanK, req.scanV, req.scanNext, req.e1[0]
	s.putReq(req)
	return keys, vals, next, err
}

// SweepExpired physically deletes up to max due keys across the shards
// (Engine.SweepExpired), splitting the budget evenly. The per-shard
// sweeps run in parallel inside the workers and ship their deletes.
func (s *Sharded) SweepExpired(max int) (int, uint64, error) {
	if max <= 0 {
		return 0, 0, nil
	}
	per := (max + len(s.shards) - 1) / len(s.shards)
	var wg sync.WaitGroup
	sc := s.getScratch()
	defer s.putScratch(sc)
	s.stateMu.RLock()
	if s.closed {
		s.stateMu.RUnlock()
		return 0, 0, ErrClosed
	}
	for sh := range s.shards {
		req := s.getReq()
		req.kind, req.maxN = opSweep, per
		req.errs, req.lens, req.lsns, req.shard, req.wg = sc.errs, sc.lens, sc.lsns, sh, &wg
		sc.reqs = append(sc.reqs, req)
		wg.Add(1)
		s.reqs[sh] <- req
	}
	s.stateMu.RUnlock()
	wg.Wait()
	var n int64
	var last uint64
	for sh := range s.shards {
		n += sc.lens[sh]
		if sc.lsns[sh] > last {
			last = sc.lsns[sh]
		}
	}
	err := errors.Join(sc.errs...)
	for _, req := range sc.reqs {
		s.putReq(req)
	}
	return int(n), last, err
}

// ExpiryStats aggregates the shards' TTL counters (Engine.ExpiryStats).
// Like Len it rides the pipeline, reflecting every operation submitted
// before it.
func (s *Sharded) ExpiryStats() ExpiryStats {
	var wg sync.WaitGroup
	sc := s.getScratch()
	defer s.putScratch(sc)
	s.stateMu.RLock()
	if s.closed {
		s.stateMu.RUnlock()
		return ExpiryStats{}
	}
	for sh := range s.shards {
		req := s.getReq()
		req.kind, req.expSt, req.shard, req.wg = opExpiryStats, sc.expSt, sh, &wg
		sc.reqs = append(sc.reqs, req)
		wg.Add(1)
		s.reqs[sh] <- req
	}
	s.stateMu.RUnlock()
	wg.Wait()
	var total ExpiryStats
	for _, st := range sc.expSt {
		total = total.Add(st)
	}
	for _, req := range sc.reqs {
		s.putReq(req)
	}
	return total
}

// one submits a single operation with results in the pooled request's
// inline slots: the per-shard operation order is identical to a
// one-element batch, with no allocation.
func (s *Sharded) one(kind opKind, key, val uint64) (uint64, bool, error) {
	req := s.getReq()
	req.k1[0], req.v1[0] = key, val
	req.outV, req.outOK = req.outV1[:], req.ok1[:]
	err := s.submitOne(kind, req)
	v, ok := req.outV1[0], req.ok1[0]
	s.putReq(req)
	return v, ok, err
}

// Insert stores (key, val) in key's shard, with the semantics of a
// one-element InsertBatch.
func (s *Sharded) Insert(key, val uint64) error {
	if s.async {
		return s.mutateOneAsync(opInsert, key, val)
	}
	_, _, err := s.one(opInsert, key, val)
	return err
}

// Upsert stores (key, val) whether or not key is present.
func (s *Sharded) Upsert(key, val uint64) error {
	if s.async {
		return s.mutateOneAsync(opUpsert, key, val)
	}
	_, _, err := s.one(opUpsert, key, val)
	return err
}

// Lookup returns the value stored for key. On a closed engine it
// reports absence; use LookupBatch for an error-signalled variant.
func (s *Sharded) Lookup(key uint64) (uint64, bool) {
	v, ok, _ := s.one(opLookup, key, 0)
	return v, ok
}

// Delete removes key, reporting whether it was present. On a closed
// engine it reports a miss; use DeleteBatch for an error-signalled
// variant.
func (s *Sharded) Delete(key uint64) bool {
	_, ok, _ := s.one(opDelete, key, 0)
	return ok
}

// Len returns the total number of stored entries across shards. It runs
// through the pipeline, so it reflects every operation submitted before
// it — including write-behind mutations still in the queues.
func (s *Sharded) Len() int {
	var wg sync.WaitGroup
	sc := s.getScratch()
	defer s.putScratch(sc)
	s.stateMu.RLock()
	if s.closed {
		s.stateMu.RUnlock()
		return 0
	}
	for sh := range s.shards {
		req := s.getReq()
		req.kind, req.lens, req.shard, req.wg = opLen, sc.lens, sh, &wg
		sc.reqs = append(sc.reqs, req)
		wg.Add(1)
		s.reqs[sh] <- req
	}
	s.stateMu.RUnlock()
	wg.Wait()
	var total int64
	for _, n := range sc.lens {
		total += n
	}
	for _, req := range sc.reqs {
		s.putReq(req)
	}
	return int(total)
}

// Sync is the engine's acknowledgement barrier: it waits for every
// shard to drain the requests queued before it and makes them durable
// without a checkpoint — each durable shard's worker spills its
// write-ahead log and hands the fsync to the shared committer pool, so
// the per-shard fsyncs overlap each other AND the operations queued
// behind the barrier, which the workers go straight back to applying.
// Once Sync returns nil, every operation submitted before it (including
// write-behind mutations) survives a crash. Errors deferred by write-behind mutations are reported here
// but NOT consumed: every Sync fails until a Flush or Close clears
// them, so concurrent acknowledgement barriers can never race a failed
// apply out of view. The serving layer group-commits client acks
// behind this barrier.
func (s *Sharded) Sync() error { return s.barrier(opSync) }

// Flush is the engine's checkpoint barrier: it waits for every shard to
// drain the requests queued before it, syncs all shards' storage
// backends in parallel (overlapping their syscalls; durable shards
// commit a full checkpoint), and returns the join of any errors
// deferred by write-behind mutations since the last barrier.
func (s *Sharded) Flush() error { return s.barrier(opFlush) }

// barrier broadcasts a drain request (opSync or opFlush) to every shard
// and joins the per-shard errors.
func (s *Sharded) barrier(kind opKind) error {
	var wg sync.WaitGroup
	errs := make([]error, len(s.shards))
	s.stateMu.RLock()
	if s.closed {
		s.stateMu.RUnlock()
		return ErrClosed
	}
	s.sendBarrier(kind, errs, &wg)
	s.stateMu.RUnlock()
	wg.Wait()
	return errors.Join(errs...)
}

// sendBarrier enqueues a barrier request on every shard. Callers hold
// stateMu (either side) so the channels cannot close mid-broadcast.
func (s *Sharded) sendBarrier(kind opKind, errs []error, wg *sync.WaitGroup) {
	for sh := range s.shards {
		wg.Add(1)
		s.reqs[sh] <- &shardReq{kind: kind, errs: errs, shard: sh, wg: wg}
	}
}

// Stats returns the aggregated I/O counters of all shards. It reads the
// counters atomically without entering the pipeline, so it never stalls
// the workers; concurrent mutations may be partially reflected, but the
// snapshot is monotonic.
func (s *Sharded) Stats() Stats {
	var out Stats
	for _, tab := range s.shards {
		st := tab.Stats()
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.WriteBacks += st.WriteBacks
	}
	return out
}

// StoreStats returns the aggregated backend real-cost counters of all
// shards (file-backend syscall/pool counters plus per-shard WAL
// spill/fsync counts; zeros on scratch backends). Unlike Stats the
// backend counters are not atomic, so the snapshot rides through the
// pipeline like Len: it reflects every operation submitted before it
// and briefly occupies each shard worker. A closed engine returns
// zeros.
func (s *Sharded) StoreStats() StoreStats {
	var wg sync.WaitGroup
	sc := s.getScratch()
	defer s.putScratch(sc)
	s.stateMu.RLock()
	if s.closed {
		s.stateMu.RUnlock()
		return StoreStats{}
	}
	for sh := range s.shards {
		req := s.getReq()
		req.kind, req.stores, req.shard, req.wg = opStats, sc.stores, sh, &wg
		sc.reqs = append(sc.reqs, req)
		wg.Add(1)
		s.reqs[sh] <- req
	}
	s.stateMu.RUnlock()
	wg.Wait()
	var total StoreStats
	for _, st := range sc.stores {
		total = total.Add(st)
	}
	for _, req := range sc.reqs {
		s.putReq(req)
	}
	return total
}

// MemoryUsed returns the summed memory charge of all shards, read
// atomically without entering the pipeline.
func (s *Sharded) MemoryUsed() int64 {
	var total int64
	for _, tab := range s.shards {
		total += tab.MemoryUsed()
	}
	return total
}

// Close drains the pipeline (a Flush barrier, so write-behind mutations
// complete and reach the backends), stops every worker, and releases
// every shard, returning the join of deferred write-behind errors and
// the shards' flush and close errors. Close is idempotent, and safe
// against concurrent operations: anything submitted before the closing
// point completes normally, anything after it is rejected with
// ErrClosed (or zero results from Lookup/Delete/Len). Calls after the
// first return the first call's error.
func (s *Sharded) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return s.closeErr
	}
	// The closing point: flip closed and shut the channels under the
	// state write-lock, with the final flush barrier enqueued in the
	// same critical section so it is the last request every worker
	// serves. Submitters hold the read side across their own
	// check-and-send, so they land either wholly before this (served
	// normally) or wholly after (ErrClosed) — never on a closed channel.
	var flushWG sync.WaitGroup
	flushErrs := make([]error, len(s.shards))
	s.stateMu.Lock()
	s.sendBarrier(opFlush, flushErrs, &flushWG)
	s.closed = true
	for i := range s.reqs {
		close(s.reqs[i])
	}
	s.stateMu.Unlock()
	flushWG.Wait()
	s.workerWG.Wait()
	s.fsyncWG.Wait()
	errs := []error{errors.Join(flushErrs...)}
	for _, tab := range s.shards {
		errs = append(errs, tab.Close())
	}
	s.closeErr = errors.Join(errs...)
	return s.closeErr
}
