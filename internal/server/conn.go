package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"extbuf"
	"extbuf/internal/wal"
	"extbuf/internal/wire"
)

// connBufBytes sizes each connection's buffered reader and writer.
const connBufBytes = 64 << 10

// request is one decoded request frame, pooled per connection. keys and
// vals retain capacity across requests, so a steady-state connection
// decodes without allocating.
type request struct {
	op      wire.Op
	id      uint32
	keys    []uint64
	vals    []uint64
	vals2   []uint64 // UPSERTTTL's deadlines / CAS's new values
	lsn     uint64   // LOOKUP's read token / REPL_SUBSCRIBE's start / SCAN's cursor
	maxN    uint32   // SCAN's requested page size
	errText string   // set when the reader rejected the frame (op == wire.OpErr)

	// A follower's replay run (op == wire.OpReplBatch): the engine op it
	// applies as, the op the ship log records, and whether it ends a frame.
	as        extbuf.BatchOp
	rec       wal.Op
	endsFrame bool
}

// ackItem is one encoded response held by the ack stage. A mutation's
// acknowledgement (barrier set) is released only behind a commit that
// covers it; any other response is there only because it must not
// overtake one that is.
type ackItem struct {
	frame   []byte
	id      uint32 // echoed again if the frame has to be rewritten as ERR
	lsn     uint64 // the mutation's highest ship LSN (0: nothing shipped)
	ops     int    // operations the mutation applied
	barrier bool
}

// applyRing is how many engine calls a connection keeps outstanding:
// the applier submits its next batch while the shard workers are still
// applying the previous ones, and waits for the oldest only when this
// many are in flight or it has nothing left to submit. Two already hide
// one shard's stall behind the other's work; eight is where the measured
// gain levels off (EXPERIMENTS.md, "Pipelined apply").
const applyRing = 8

// call is one slot of the applier's ring: one engine batch call and the
// run of same-kind requests it answers. The slot owns the requests, the
// operand slices the engine reads and the result slices it writes from
// start until finish; keyBuf, valBuf, val2Buf and foundBuf are the
// slot's own backing for them, reused across calls.
type call struct {
	op     wire.Op
	reqs   []*request
	vals   []uint64          // lookup results, parallel to the run's keys
	found  []bool            // per-key results: hits, deletes, expiries, swaps
	h      *extbuf.BatchCall // the started call, until wait takes its result
	last   uint64            // the call's highest ship LSN, once waited for
	waited time.Duration     // how long that wait took
	err    error             // why the submission was refused or the call failed

	keyBuf, valBuf, val2Buf []uint64
	foundBuf                []bool
}

// conn is one connection, a four-stage pipeline: a reader decoding
// frames into a bounded apply queue, an applier coalescing queued
// requests into engine batch calls and keeping a ring of them
// outstanding, an ack stage holding mutation acknowledgements back
// until a commit covers them, and a writer streaming the encoded
// responses back. The queue bound is the connection's backpressure (the
// reader simply stops reading). Response order is request order: the
// single applier drains the queue FIFO and finishes its calls oldest
// first, and a response goes around the ack stage only when that stage
// is empty.
//
// A follower's stream from its primary is a conn too: its reader is
// Follower.read, its requests the primary's replay runs, its responses
// the REPL_ACKs of the replay finish step (finishReplay).
type conn struct {
	srv *Server
	nc  net.Conn

	applyCh chan *request
	ackCh   chan ackItem
	writeCh chan []byte

	// ackPending counts the responses inside the ack stage: raised by the
	// applier before it queues one, lowered by the ack stage after the
	// frame is on writeCh. Only the applier raises it, so when the
	// applier reads zero every earlier response has reached the writer
	// and the next may follow directly.
	ackPending atomic.Int32

	// readerDone closes when the reader exits — disconnect or drain —
	// which is what tells a replication streamer parked at the log tail
	// to stop.
	readerDone chan struct{}

	// freelists, all single-producer/single-consumer friendly.
	reqFree chan *request
	bufFree chan []byte

	// The applier's outstanding engine calls, oldest at ringHead.
	ring     [applyRing]call
	ringHead int
	ringLen  int

	// applier scratch: the response payload being encoded.
	pay []byte

	// ack stage scratch: the burst being committed.
	burst []ackItem

	// replication streamer scratch.
	recs  []wal.Record
	wrecs []wire.ReplRec

	// Closed by the goroutine the oldest call's wait was handed to
	// (awaitOldest); non-nil until finishOldest joins it.
	oldestDone chan struct{}

	// The replay finish step's state (finishReplay), owned by the applier.
	replayEnd     error     // why the stream ended: no acks or syncs after it
	replayBroken  bool      // a run failed: no appends after it
	replayInFrame bool      // the last run started does not end its frame
	lastSync      time.Time // the last local sync

	draining atomic.Bool
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:        s,
		nc:         nc,
		applyCh:    make(chan *request, s.pipeline),
		ackCh:      make(chan ackItem, s.pipeline),
		writeCh:    make(chan []byte, s.pipeline),
		readerDone: make(chan struct{}),
		reqFree:    make(chan *request, s.pipeline+1),
		// Frames can sit in the ack stage and in the write queue at once.
		bufFree: make(chan []byte, 2*s.pipeline+1),
	}
}

// beginDrain tells the connection to stop reading new requests; the
// already-queued ones are applied and answered before the connection
// closes. The poked read deadline unblocks a reader parked in Read.
func (c *conn) beginDrain() {
	c.draining.Store(true)
	c.nc.SetReadDeadline(time.Now())
}

// run owns the connection lifecycle: it runs the reader, read, inline
// and the applier, ack stage and writer as goroutines, wired so that
// reader exit closes the apply queue, applier exit closes the ack
// queue, ack-stage exit closes the write queue, and writer exit closes
// the socket. run returns once all four are done.
func (c *conn) run(read func()) {
	writerDone := make(chan struct{})
	go c.applier()
	go c.acker()
	go func() {
		defer close(writerDone)
		c.writer()
	}()
	read()
	close(c.readerDone)
	close(c.applyCh)
	<-writerDone
}

// reader is an accepted connection's read stage: it decodes request
// frames into the apply queue until the client disconnects, a drain
// begins, or the stream turns invalid. Frame-level corruption (bad
// magic or CRC) closes the connection — after it the stream offsets
// cannot be trusted — while a well-framed but invalid batch payload is
// answered with ERR and the stream continues.
func (c *conn) reader() {
	r := wire.NewReader(bufio.NewReaderSize(c.nc, connBufBytes))
	for {
		f, err := r.Next()
		if err != nil {
			switch {
			case err == io.EOF: // clean disconnect at a frame boundary
			case c.draining.Load(): // drain deadline kicked the read loose
			default:
				c.srv.logf("conn %s: read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		req := c.getReq()
		req.op, req.id = f.Op, f.ID
		var derr error
		switch f.Op {
		case wire.OpInsert, wire.OpUpsert, wire.OpExpire:
			// EXPIRE's deadlines ride the value column of the KV codec.
			if derr = c.checkBatch(f.Payload, 0); derr == nil {
				req.keys, req.vals, derr = wire.DecodeKVInto(f.Payload, req.keys, req.vals)
			}
		case wire.OpDelete:
			if derr = c.checkBatch(f.Payload, 0); derr == nil {
				req.keys, derr = wire.DecodeKeysInto(f.Payload, req.keys)
			}
		case wire.OpLookup:
			// The read token leads the key batch.
			if derr = c.checkBatch(f.Payload, 8); derr == nil {
				req.lsn, req.keys, derr = wire.DecodeLookupInto(f.Payload, req.keys)
			}
		case wire.OpUpsertTTL, wire.OpCAS:
			if derr = c.checkBatch(f.Payload, 0); derr == nil {
				req.keys, req.vals, req.vals2, derr = wire.DecodeTriplesInto(f.Payload, req.keys, req.vals, req.vals2)
			}
		case wire.OpScan:
			req.lsn, req.maxN, derr = wire.DecodeScan(f.Payload)
		case wire.OpReplSubscribe:
			req.lsn, derr = wire.DecodeLSN(f.Payload)
		case wire.OpReplAck:
			// Follower progress on a subscribed connection: record it and
			// move on — no response, no apply-queue trip, so the reader
			// stays responsive while the applier streams.
			if lsn, aerr := wire.DecodeLSN(f.Payload); aerr == nil && c.srv.repl != nil {
				c.srv.repl.ackFrom(c, lsn)
			}
			c.putReq(req)
			continue
		case wire.OpLen, wire.OpSync, wire.OpFlush, wire.OpStats, wire.OpPing,
			wire.OpInfo, wire.OpPromote:
			// empty payloads
		default:
			derr = fmt.Errorf("unknown request op %v", f.Op)
		}
		if derr != nil {
			// Mark the request bad before handing it over; the applier
			// answers it with ERR in order, like any other response.
			req.op = wire.OpErr
			req.errText = derr.Error()
			req.keys = req.keys[:0]
			req.vals = req.vals[:0]
			c.srv.logf("conn %s: rejected frame id %d: %v", c.nc.RemoteAddr(), f.ID, derr)
			c.applyCh <- req
			continue
		}
		c.applyCh <- req // bounded: this send is the backpressure point
	}
}

// checkBatch rejects a batch request whose count prefix (at offset off)
// exceeds the server's limit BEFORE any entries are decoded, so the
// per-connection memory bound really is Pipeline x MaxBatch — not
// Pipeline times the protocol's absolute wire.MaxBatch.
func (c *conn) checkBatch(payload []byte, off int) error {
	if len(payload) < off+4 {
		return fmt.Errorf("%w: %d-byte batch payload", wire.ErrFrame, len(payload))
	}
	if n := binary.LittleEndian.Uint32(payload[off:]); int64(n) > int64(c.srv.maxBatch) {
		return fmt.Errorf("batch of %d operations exceeds server limit %d", n, c.srv.maxBatch)
	}
	return nil
}

// applier drains the apply queue, coalescing runs of same-kind keyed
// requests into one engine call each, and emits responses in request
// order. Every keyed request — the seven kinds StartBatch takes, and a
// follower's replay runs — is pipelined: the applier starts the run it
// just aggregated and goes back to the queue, finishing the oldest
// outstanding call only when the ring is full or the queue is empty, so
// the shard workers are handed the next request's share while they are
// still applying this one's. Per-key order is the order of submission:
// this one goroutine enqueues the connection's calls, in request order,
// on the engine's FIFO shard queues. SCAN, the unkeyed requests and exit
// first drain the ring, so they observe every earlier request applied
// and their responses follow theirs.
func (c *conn) applier() {
	defer close(c.ackCh)
	var pending *request
	chOpen := true
	// next returns the request held back, else the queue's next: at once
	// (nil on an empty queue) unless block, in which case it waits for
	// one — or, with done non-nil, until done closes (nil).
	next := func(block bool, done <-chan struct{}) *request {
		if r := pending; r != nil || !chOpen {
			pending = nil
			return r
		}
		var r *request
		ok := true
		if block {
			select {
			case r, ok = <-c.applyCh:
			case <-done:
			}
		} else {
			select {
			case r, ok = <-c.applyCh:
			default:
			}
		}
		chOpen = ok
		return r
	}
	for {
		first := next(c.ringLen == 0, nil)
		if first == nil && c.ringLen > 0 {
			// Calls are outstanding and the queue is empty: wait for the
			// oldest off this goroutine and start whatever arrives first.
			// A replay stream arrives shard by shard, so the oldest run may
			// be applying on one shard while the next frame brings runs for
			// the other; a pipelining client's next request is started the
			// same way.
			first = next(true, c.awaitOldest())
		}
		if first == nil {
			if c.ringLen == 0 {
				return
			}
			// Nothing to submit: answer the oldest call, then look again.
			c.finishOldest()
			continue
		}
		switch first.op {
		case wire.OpInsert, wire.OpUpsert, wire.OpLookup, wire.OpDelete,
			wire.OpExpire, wire.OpUpsertTTL, wire.OpCAS, wire.OpReplBatch:
			if c.ringLen == applyRing {
				c.finishOldest()
			}
			// Aggregate the pipelined run of same-kind requests into one
			// engine batch — this is what maps client pipelining 1:1 onto
			// the engine's shard fan-out. A run is cut where the op or the
			// read token changes, so one wait covers every lookup in it.
			// A replay run is one call as the stream cut it, so a failure
			// ends the ship log right before the run that failed.
			cl := &c.ring[(c.ringHead+c.ringLen)%applyRing]
			cl.op = first.op
			cl.reqs = append(cl.reqs[:0], first)
			ops := len(first.keys)
			for ops < c.srv.maxBatch && first.op != wire.OpReplBatch {
				r2 := next(false, nil)
				if r2 == nil {
					break
				}
				if r2.op != first.op || r2.lsn != first.lsn || ops+len(r2.keys) > c.srv.maxBatch {
					pending = r2
					break
				}
				cl.reqs = append(cl.reqs, r2)
				ops += len(r2.keys)
			}
			c.startCall(cl)
			c.ringLen++
			if cl.err != nil {
				// A refused submission is complete on arrival: nothing to
				// overlap with, and its ERR must keep its place.
				c.drainRing()
			}
			continue
		}
		c.drainRing()
		switch first.op {
		case wire.OpScan:
			c.serveScan(first)
		case wire.OpReplSubscribe:
			c.serveRepl(first)
		default:
			c.serveSingle(first)
		}
	}
}

// startCall submits the run of same-kind requests in cl.reqs as one
// engine call and leaves it outstanding (cl.h). A refused submission —
// the node is not writable or is behind a lookup's read token, the
// engine is closed, a column has the wrong length, a replay stream has
// ended — leaves no handle, its error in cl.err; an empty replay run
// leaves neither.
//
// Replay runs skip the engine's ship seam, which orders a primary's log
// by apply order: a follower's log must be the primary's position by
// position, so finishReplay appends the runs in the order they start
// here. Nor do they check writability: a replica's stream is its one
// writer.
func (c *conn) startCall(cl *call) {
	// Concatenate the requests' operands. A run of one request uses its
	// slices directly — the common case when the client is not
	// pipelining same-kind requests — so aggregation costs nothing when
	// it buys nothing.
	r0 := cl.reqs[0]
	keys, vals, vals2 := r0.keys, r0.vals, r0.vals2
	if len(cl.reqs) > 1 {
		cl.keyBuf, cl.valBuf, cl.val2Buf = cl.keyBuf[:0], cl.valBuf[:0], cl.val2Buf[:0]
		for _, r := range cl.reqs {
			cl.keyBuf = append(cl.keyBuf, r.keys...)
			cl.valBuf = append(cl.valBuf, r.vals...)
			cl.val2Buf = append(cl.val2Buf, r.vals2...)
		}
		keys, vals, vals2 = cl.keyBuf, cl.valBuf, cl.val2Buf
	}
	n := len(keys)
	cl.h, cl.last, cl.waited, cl.err = nil, 0, 0, nil
	cl.foundBuf = growTo(cl.foundBuf, n)
	cl.vals, cl.found = nil, cl.foundBuf[:n]
	ship := cl.op != wire.OpReplBatch
	var op extbuf.BatchOp
	switch cl.op {
	case wire.OpReplBatch:
		op = r0.as // an expiry's deadlines ride the value column
		if c.replayEnd != nil && !c.replayInFrame {
			// The stream has ended: no later run is appended or acked, so
			// after the frame it ended in none is started, and the engine
			// runs ahead of the log by at most the ring and that frame.
			cl.err = c.replayEnd
			return
		}
		if c.replayInFrame = !r0.endsFrame; n == 0 {
			return
		}
	case wire.OpInsert:
		op = extbuf.BatchInsert
	case wire.OpUpsert:
		op = extbuf.BatchUpsert
	case wire.OpDelete:
		op = extbuf.BatchDelete
	case wire.OpExpire:
		op = extbuf.BatchExpire
	case wire.OpUpsertTTL:
		op = extbuf.BatchUpsertTTL
	case wire.OpCAS:
		op = extbuf.BatchCompareSwap
	case wire.OpLookup:
		// LOOKUP requests carry no values, so the slot's value backing is
		// free to receive the results.
		op = extbuf.BatchLookup
		cl.valBuf = growTo(cl.valBuf, n)
		cl.vals = cl.valBuf[:n]
		vals = cl.vals
		// Read-your-writes on a replica: wait (bounded) until this node
		// has applied the run's token. A node without replication serves
		// at once: it cannot be behind a token it (or a primary it
		// follows) never issued.
		if c.srv.repl != nil && r0.lsn > 0 {
			if cl.err = c.srv.repl.waitApplied(r0.lsn, c.srv.repl.tokenWait); cl.err != nil {
				return
			}
		}
	}
	if ship && op != extbuf.BatchLookup && !c.srv.writableNow() {
		cl.err = errNotWritable
		return
	}
	c.srv.countCall(n)
	// The mutations apply AND emit ship-log records from inside the
	// engine's shard workers, so a key's ship order is its apply order
	// even across racing connections (the replication total order,
	// DESIGN.md §2a). With replication off the sink is nil and the LSN
	// stays 0.
	if cl.h, cl.err = c.srv.engine.StartBatch(op, ship, keys, vals, vals2, cl.found); cl.h != nil {
		c.srv.callsOutstanding.Add(1)
	}
}

// drainRing finishes every outstanding call, oldest first.
func (c *conn) drainRing() {
	for c.ringLen > 0 {
		c.finishOldest()
	}
}

// finishOldest waits for the oldest outstanding call (unless its start
// was refused) — joining the goroutine its wait was handed to, if any —
// and answers every request in it, in request order, or hands a replay
// run to its finish step.
// A mutation's ack is encoded here but goes out through the ack stage,
// which holds it until the operations are crash-durable (and, under
// semi-sync, follower-applied) while this goroutine moves on; it is
// queued only now, after the call's wait returned, so the barrier the
// ack stage then starts covers every operation of the call.
//
// Every mutation answers with a read token: the aggregated run's
// highest ship LSN. The shard fan-out interleaves the run's records, so
// a per-request contiguous sub-range no longer exists; a covering LSN
// preserves read-your-writes — waiting for it waits for this request's
// own records too. It is 0 (no constraint) when the node does not
// replicate.
func (c *conn) finishOldest() {
	cl := &c.ring[c.ringHead]
	c.ringHead = (c.ringHead + 1) % applyRing
	c.ringLen--
	if c.oldestDone != nil {
		<-c.oldestDone // the handed-off wait left its result in cl
		c.oldestDone = nil
	}
	c.wait(cl)
	if cl.op == wire.OpReplBatch {
		c.finishReplay(cl)
		return
	}
	last, err := cl.last, cl.err
	epoch := c.srv.epochNow()
	off := 0
	for i, r := range cl.reqs {
		n := len(r.keys)
		if err != nil {
			c.respondErr(r.id, err)
		} else {
			switch cl.op {
			case wire.OpLookup:
				c.pay = wire.AppendValues(c.pay[:0], cl.vals[off:off+n], cl.found[off:off+n])
				c.respond(wire.OpValues, r.id, c.pay)
			case wire.OpInsert, wire.OpUpsert, wire.OpUpsertTTL:
				c.pay = wire.AppendAckT(c.pay[:0], last, epoch)
				c.respondAck(wire.OpAckT, r.id, c.pay, last, n)
			default: // DELETE, EXPIRE, CAS
				c.pay = wire.AppendFoundsT(c.pay[:0], last, epoch, cl.found[off:off+n])
				c.respondAck(wire.OpFoundsT, r.id, c.pay, last, n)
			}
		}
		off += n
		c.putReq(r)
		cl.reqs[i] = nil
	}
}

// wait joins cl's started call, if it has one, leaving its highest ship
// LSN, its error and the wait's duration in cl. It runs on the applier
// or, handed off, on awaitOldest's goroutine.
func (c *conn) wait(cl *call) {
	if cl.h != nil {
		from := time.Now()
		cl.last, cl.err = cl.h.Wait()
		cl.waited, cl.h = time.Since(from), nil
		c.srv.callsOutstanding.Add(-1)
	}
}

// finishReplay is the replay kind's finish step, for a run finishOldest
// waited for: append the run to the ship log with the op the primary
// recorded; at its frame's end, acknowledge the log's end with one
// REPL_ACK and run the periodic local sync.
//
// Apply-then-append: a record enters the ship log only after its run
// and every run started before it applied, in start order, so the
// applied horizon the log advertises (NextLSN()-1) never runs ahead of
// the engine and the log is the primary's position by position. Acks
// name only appended LSNs and leave in order. After a failed run or
// append nothing is appended — the log cannot skip a position — every
// started call is still waited for as the ring drains, and none starts
// after the frame the failure was found in (startCall). The engine is
// then ahead of the log by at most the ring and that frame, as a crash
// between apply and append can leave it, and the next stream's catch-up
// horizon replays that idempotently. Any error ends the stream; no acks
// or syncs follow it.
func (c *conn) finishReplay(cl *call) {
	repl, r, err := c.srv.repl, cl.reqs[0], cl.err // replay runs are never coalesced
	repl.replayWaitNs.Add(int64(cl.waited))
	if len(r.keys) > 0 && !c.replayBroken {
		if err == nil {
			_, err = repl.ship.Append(r.rec, r.keys, r.vals)
		}
		if c.replayBroken = err != nil; !c.replayBroken {
			repl.replayRecords.Add(int64(len(r.keys)))
			if r.endsFrame {
				repl.replayed.Add(1)
			}
		}
	}
	if r.endsFrame {
		repl.replayInflight.Add(-1)
		if c.replayEnd == nil && err == nil {
			c.pay = wire.AppendLSN(c.pay[:0], repl.ship.NextLSN()-1)
			c.respond(wire.OpReplAck, 1, c.pay)
			if c.srv.hasWAL && time.Since(c.lastSync) > repl.syncEvery {
				err = c.srv.syncLocal()
				c.lastSync = time.Now()
			}
		}
	}
	if err != nil && c.replayEnd == nil {
		// Closing the connection stops the read stage.
		c.replayEnd = err
		c.nc.Close()
	}
	c.putReq(r)
	cl.reqs[0] = nil
}

// awaitOldest hands the wait for the oldest call to a goroutine (once)
// and returns the channel it closes when the call is complete. The
// goroutine ends with the call and leaves the result in it; finishOldest
// joins it before reading the call, so none outlives the ring's drain.
func (c *conn) awaitOldest() <-chan struct{} {
	if c.oldestDone == nil {
		cl, done := &c.ring[c.ringHead], make(chan struct{})
		go func() {
			c.wait(cl)
			close(done)
		}()
		c.oldestDone = done
	}
	return c.oldestDone
}

// growTo returns buf with capacity for n elements, reallocating only
// when it is too small.
func growTo[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf
}

// serveScan answers one cursor page. Scans are reads — replicas serve
// them — and the engine may overshoot the requested page by the tail
// of the bucket that crossed it, so the request's max is clamped to
// half the protocol batch bound to keep the response encodable.
func (c *conn) serveScan(r *request) {
	defer c.putReq(r)
	max := int(r.maxN)
	if limit := min(c.srv.maxBatch, wire.MaxBatch/2); max <= 0 || max > limit {
		max = limit
	}
	keys, vals, next, err := c.srv.engine.Scan(r.lsn, max)
	if err != nil {
		c.respondErr(r.id, err)
		return
	}
	c.pay = wire.AppendScanR(c.pay[:0], next, keys, vals)
	c.respond(wire.OpScanR, r.id, c.pay)
}

// replReadBatch is the streamer's ship-log read granularity (records
// per REPLBATCH frame), bounded by wire.MaxReplBatch.
const replReadBatch = 4096

// serveRepl turns the connection into a replication stream: read the
// ship log from the subscriber's requested LSN, send each chunk as a
// REPLBATCH echoing the subscribe id, and at the tail block on the
// log's change channel — sending empty heartbeat batches so the
// follower can distinguish "idle" from "dead". The applier never
// returns to the request loop: a subscribed connection serves nothing
// else (REPL_ACK frames are handled by the reader). Exits when the
// reader does — disconnect or drain — which closes the write queue and
// the socket behind it.
func (c *conn) serveRepl(r *request) {
	id, cur := r.id, r.lsn
	c.putReq(r)
	repl := c.srv.repl
	if repl == nil {
		c.respondErr(id, errors.New("replication is not enabled"))
		return
	}
	repl.subscribe(c)
	defer repl.unsubscribe(c)
	if cap(c.recs) < replReadBatch {
		c.recs = make([]wal.Record, replReadBatch)
	}
	hb := time.NewTicker(repl.heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-c.readerDone:
			return // the subscriber hung up (or the server is draining)
		default:
		}
		n, err := repl.ship.Read(cur, c.recs[:replReadBatch])
		if err != nil {
			// A subscribe below the log's start (or a corrupt log) cannot
			// be served; the follower must re-seed from a checkpoint.
			c.respondErr(id, err)
			return
		}
		if n == 0 {
			ch := repl.ship.Changed()
			if repl.ship.NextLSN() > cur {
				continue // an append raced the channel grab
			}
			select {
			case <-ch:
			case <-hb.C:
				c.pay = wire.AppendReplBatch(c.pay[:0], c.srv.epochNow(), cur, nil)
				c.respond(wire.OpReplBatch, id, c.pay)
			case <-c.readerDone:
				return
			}
			continue
		}
		c.wrecs = c.wrecs[:0]
		for _, rec := range c.recs[:n] {
			c.wrecs = append(c.wrecs, wire.ReplRec{Op: uint8(rec.Op), Key: rec.Key, Val: rec.Val})
		}
		c.pay = wire.AppendReplBatch(c.pay[:0], c.srv.epochNow(), cur, c.wrecs)
		c.respond(wire.OpReplBatch, id, c.pay)
		repl.shipped.Add(1)
		cur += uint64(n)
	}
}

// serveSingle answers the non-batch requests.
func (c *conn) serveSingle(r *request) {
	switch r.op {
	case wire.OpLen:
		c.pay = wire.AppendCount(c.pay[:0], uint64(c.srv.engine.Len()))
		c.respond(wire.OpCount, r.id, c.pay)
	case wire.OpSync:
		if err := c.srv.commit.commit(); err != nil {
			c.respondErr(r.id, err)
		} else {
			c.respond(wire.OpAck, r.id, nil)
		}
	case wire.OpFlush:
		if err := c.srv.engine.Flush(); err != nil {
			c.respondErr(r.id, err)
		} else {
			c.respond(wire.OpAck, r.id, nil)
		}
	case wire.OpStats:
		c.pay = wire.AppendStats(c.pay[:0], wire.Stats{
			Len:        int64(c.srv.engine.Len()),
			MemoryUsed: c.srv.engine.MemoryUsed(),
			Ops:        c.srv.engine.Stats(),
			Store:      c.srv.engine.StoreStats(),
			Repl:       c.srv.replStats(),
			Expiry:     c.srv.engine.ExpiryStats(),
		})
		c.respond(wire.OpStatsR, r.id, c.pay)
	case wire.OpPing:
		c.respond(wire.OpAck, r.id, nil)
	case wire.OpInfo:
		if info, ok := c.srv.Info(); ok {
			c.pay = wire.AppendInfo(c.pay[:0], info)
			c.respond(wire.OpInfoR, r.id, c.pay)
		} else {
			c.respondErr(r.id, errors.New("replication is not enabled"))
		}
	case wire.OpPromote:
		if info, err := c.srv.Promote(); err != nil {
			c.respondErr(r.id, err)
		} else {
			c.pay = wire.AppendInfo(c.pay[:0], info)
			c.respond(wire.OpInfoR, r.id, c.pay)
		}
	case wire.OpErr:
		// A request the reader rejected during decode; answer with its
		// recorded error text.
		c.respondErr(r.id, errors.New(r.errText))
	default:
		c.respondErr(r.id, fmt.Errorf("unknown request op %v", r.op))
	}
	c.putReq(r)
}

// respond queues a response that needs no commit: a read, a control
// reply, an error.
func (c *conn) respond(op wire.Op, id uint32, payload []byte) {
	c.send(ackItem{frame: c.frame(op, id, payload), id: id})
}

// respondAck queues the acknowledgement of a mutation that applied ops
// operations and shipped up to lsn, to be released once they are
// committed.
func (c *conn) respondAck(op wire.Op, id uint32, payload []byte, lsn uint64, ops int) {
	c.send(ackItem{frame: c.frame(op, id, payload), id: id, lsn: lsn, ops: ops, barrier: c.srv.needsBarrier(lsn)})
}

// frame encodes one response frame into a pooled buffer.
func (c *conn) frame(op wire.Op, id uint32, payload []byte) []byte {
	var buf []byte
	select {
	case buf = <-c.bufFree:
		buf = buf[:0]
	default:
	}
	return wire.AppendFrame(buf, op, id, payload)
}

// send passes a response on in request order: straight to the writer
// when it needs no barrier and nothing is held in the ack stage — every
// response of a connection that never mutates a durable or semi-sync
// node — and through the ack stage otherwise.
func (c *conn) send(a ackItem) {
	if !a.barrier && c.ackPending.Load() == 0 {
		c.writeCh <- a.frame
		return
	}
	c.ackPending.Add(1)
	c.ackCh <- a
}

// acker is the ack stage. It takes whatever the applier has finished so
// far as one burst and runs ONE commit barrier for it: the barrier
// starts after every mutation of the burst was applied, so the group
// committer's rule (a Sync that started after the call) and the
// followers' monotone acks (the burst's highest LSN) cover them all.
// Then it releases the burst to the writer in request order — mutation
// acks rewritten as ERR if the barrier failed, the rest as they are.
// Meanwhile the applier is applying the next requests, which is the
// point: apply and commit overlap instead of alternating.
func (c *conn) acker() {
	defer close(c.writeCh)
	for first := range c.ackCh {
		burst := append(c.burst[:0], first)
	drain:
		for {
			select {
			case a, ok := <-c.ackCh:
				if !ok {
					break drain
				}
				burst = append(burst, a)
			default:
				break drain
			}
		}
		var (
			barrier bool
			lsn     uint64
			ops     int
		)
		for _, a := range burst {
			if a.barrier {
				barrier = true
				lsn = max(lsn, a.lsn)
				ops += a.ops
			}
		}
		var err error
		if barrier {
			err = c.srv.commitMutation(lsn, ops)
		}
		for i, a := range burst {
			if a.barrier && err != nil {
				a.frame = wire.AppendFrame(a.frame[:0], wire.OpErr, a.id, []byte(err.Error()))
			}
			c.writeCh <- a.frame
			c.ackPending.Add(-1)
			burst[i].frame = nil // the writer recycles it
		}
		c.burst = burst
	}
}

// respondErr answers a request with an ERR frame carrying err's text.
func (c *conn) respondErr(id uint32, err error) {
	c.pay = append(c.pay[:0], err.Error()...)
	c.respond(wire.OpErr, id, c.pay)
}

// writer streams queued response frames to the socket, flushing
// whenever the queue runs dry (the pipelining flush rule: one syscall
// per burst, not per response). On a write error it keeps draining the
// queue so the applier never blocks, and closes the socket on exit —
// which is what finally unblocks the reader of a half-dead connection.
func (c *conn) writer() {
	defer c.nc.Close()
	bw := bufio.NewWriterSize(c.nc, connBufBytes)
	var werr error
	for buf := range c.writeCh {
		if werr == nil {
			if _, err := bw.Write(buf); err != nil {
				werr = err
			} else if len(c.writeCh) == 0 {
				if err := bw.Flush(); err != nil {
					werr = err
				}
			}
		}
		select {
		case c.bufFree <- buf:
		default:
		}
	}
	if werr == nil {
		bw.Flush()
	}
}

// getReq returns a pooled request with empty operand slices.
func (c *conn) getReq() *request {
	select {
	case r := <-c.reqFree:
		r.keys = r.keys[:0]
		r.vals = r.vals[:0]
		r.vals2 = r.vals2[:0]
		r.lsn = 0
		r.maxN = 0
		r.errText = ""
		return r
	default:
		return &request{}
	}
}

// putReq recycles a request.
func (c *conn) putReq(r *request) {
	select {
	case c.reqFree <- r:
	default:
	}
}
