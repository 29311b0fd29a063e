package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"extbuf"
	"extbuf/internal/wal"
	"extbuf/internal/wire"
)

// Follower is a node's replication apply loop: it dials the primary,
// subscribes to its ship log from this node's own applied horizon, and
// replays every record through the engine's normal batch path — then
// into this node's own ship log, which is what advances the applied
// LSN that read tokens wait on and what lets the node source
// replication itself after a promotion. The loop reconnects on any
// error until Stop (or promotion) ends it.
//
// Replay is a two-stage pipeline, the shape a connection's applier has.
// Stage one, the stream reader (read, start), cuts each REPLBATCH frame
// into runs of same-op records and starts every run on the engine
// without waiting for it; stage two (finish) takes the frames oldest
// first — waits for the runs, appends them to the ship log, acknowledges
// — with at most applyRing frames between the two. So a stream that
// arrives shard by shard (the primary's workers ship their own shares)
// still keeps every shard worker busy. What the overlap may not change
// is stated where the code decides it: start (order), finish
// (apply-then-append, acks, failure), stream (drain). DESIGN.md §2a.
//
// Replay has two regimes, split at the catch-up horizon: the primary's
// applied LSN when this stream connected. Nothing above it can have
// reached this node before, so those records replay exactly as the
// primary ran them — an INSERT as an insert, at the structure's
// buffered o(1) cost. At or below it a record may be one this node
// already applied — a crash can lose the ship log's tail but not the
// engine's, a stream can break with runs started and not yet appended,
// and either way the engine is ahead of the position we subscribe from
// — so there inserts replay as upserts, idempotent by the same rule
// recovery uses (durable.go replayRecords), and converge instead of
// leaving a second copy.
type Follower struct {
	srv  *Server
	addr string
	logf func(string, ...any)

	mu      sync.Mutex
	nc      net.Conn
	stopped bool

	done chan struct{}

	// catchUp is the current stream's catch-up horizon: insert records
	// with an LSN at or below it replay as upserts. Owned by the run
	// goroutine.
	catchUp uint64

	// free holds the applyRing frame slots no stage is using: the reader
	// blocks on it when that many frames are outstanding.
	free chan *replayFrame

	// The reader's scratch, reused across frames.
	recs  []wire.ReplRec
	pay   []byte
	frame []byte
}

// replayRun is one engine call of a frame: a run of consecutive same-op
// records, its operands slices of the frame's backing.
type replayRun struct {
	op         wal.Op
	keys, vals []uint64
	h          *extbuf.BatchCall // the started run, until finish waits for it
	err        error             // why the engine refused the run (h nil)
}

// replayFrame is one slot of the replay ring: one REPLBATCH frame as the
// runs started for it, and the operand and result backing the engine
// uses from start until finish. A heartbeat is a frame without runs.
type replayFrame struct {
	runs       []replayRun
	keys, vals []uint64
	found      []bool
}

// Follow starts replaying from the primary at addr. The server must
// have replication enabled and not already be following.
func (s *Server) Follow(addr string) (*Follower, error) {
	if s.repl == nil {
		return nil, errors.New("server: replication is not enabled")
	}
	f := &Follower{srv: s, addr: addr, logf: s.logf, done: make(chan struct{}),
		free: make(chan *replayFrame, applyRing)}
	for i := 0; i < applyRing; i++ {
		f.free <- new(replayFrame)
	}
	s.mu.Lock()
	if s.follower != nil {
		s.mu.Unlock()
		return nil, errors.New("server: already following")
	}
	s.follower = f
	s.mu.Unlock()
	go f.run()
	return f, nil
}

// Stop ends the loop and waits for it to exit. Idempotent.
func (f *Follower) Stop() {
	f.mu.Lock()
	f.stopped = true
	if f.nc != nil {
		f.nc.Close()
	}
	f.mu.Unlock()
	<-f.done
}

func (f *Follower) isStopped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stopped
}

// setConn publishes the live connection so Stop can sever it.
func (f *Follower) setConn(nc net.Conn) {
	f.mu.Lock()
	f.nc = nc
	f.mu.Unlock()
}

// followReconnect is the pause between stream attempts.
const followReconnect = 300 * time.Millisecond

func (f *Follower) run() {
	defer close(f.done)
	for !f.isStopped() {
		err := f.stream()
		if f.isStopped() {
			return
		}
		f.logf("follower: stream from %s ended: %v; reconnecting", f.addr, err)
		time.Sleep(followReconnect)
	}
}

// primaryInfo asks the node at the other end of a fresh stream for its
// replication identity (an INFO round trip ahead of the subscription).
func (f *Follower) primaryInfo(nc net.Conn, r *wire.Reader) (wire.Info, error) {
	f.frame = wire.AppendFrame(f.frame[:0], wire.OpInfo, 1, nil)
	if _, err := nc.Write(f.frame); err != nil {
		return wire.Info{}, err
	}
	nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	fr, err := r.Next()
	if err != nil {
		return wire.Info{}, err
	}
	switch fr.Op {
	case wire.OpInfoR:
		return wire.DecodeInfo(fr.Payload)
	case wire.OpErr:
		return wire.Info{}, fmt.Errorf("primary rejected INFO: %s", fr.Payload)
	}
	return wire.Info{}, fmt.Errorf("unexpected %v frame in reply to INFO", fr.Op)
}

// stream runs one connection's worth of replication: learn the
// primary's applied LSN (the catch-up horizon), subscribe from our own
// applied horizon, then run the two replay stages until the stream
// breaks.
//
// However it ends — Stop, Promote, CloseRepl, a dead primary, an error in
// either stage — stream returns only after finish has taken every frame
// the reader started: every started run waited for and, unless one
// failed, appended; only the acks are skipped. So when Stop returns the
// ship log covers exactly what replication applied to the engine (a
// promoted node sources its own state) and nothing is still writing the
// log CloseRepl is about to close.
func (f *Follower) stream() error {
	nc, err := net.DialTimeout("tcp", f.addr, 3*time.Second)
	if err != nil {
		return err
	}
	f.setConn(nc)
	defer func() {
		f.setConn(nil)
		nc.Close()
	}()
	repl := f.srv.repl
	r := wire.NewReader(bufio.NewReaderSize(nc, connBufBytes))
	info, err := f.primaryInfo(nc, r)
	if err != nil {
		return err
	}
	from := repl.ship.NextLSN() // no frame outlives its stream: the log's end is where this one starts
	f.catchUp = info.AppliedLSN
	if from-1 > info.AppliedLSN {
		// Our log is longer than the primary's: the two disagree about
		// history (a primary that lost its unshipped tail, or a deposed
		// one — ROADMAP item 4a), and no horizon separates what we may
		// have applied from what we have not. Stay idempotent throughout.
		f.catchUp = math.MaxUint64
		f.logf("follower: applied through lsn %d but %s is at %d; replaying the whole stream as upserts",
			from-1, f.addr, info.AppliedLSN)
	}
	f.pay = wire.AppendLSN(f.pay[:0], from)
	f.frame = wire.AppendFrame(f.frame[:0], wire.OpReplSubscribe, 1, f.pay)
	if _, err := nc.Write(f.frame); err != nil {
		return err
	}
	// Sized to the ring: the reader blocks on a free slot, never here.
	started := make(chan *replayFrame, applyRing)
	finished := make(chan error, 1)
	go func() { finished <- f.finish(nc, started) }()
	err = f.read(nc, r, from, started)
	close(started)
	if ferr := <-finished; ferr != nil {
		err = ferr // finish closed the connection under the reader: the cause
	}
	return err
}

// read is stage one: it decodes REPLBATCH frames, checks each against
// next — the LSN of the first record not yet started; the ship log's end
// trails it by the ring — and starts them, until the stream breaks.
func (f *Follower) read(nc net.Conn, r *wire.Reader, next uint64, started chan<- *replayFrame) error {
	repl := f.srv.repl
	// The primary heartbeats idle streams; a silent connection for many
	// heartbeat intervals means the primary (or the path to it) is dead.
	readTimeout := 10 * repl.heartbeat
	if readTimeout < 5*time.Second {
		readTimeout = 5 * time.Second
	}
	for {
		nc.SetReadDeadline(time.Now().Add(readTimeout))
		fr, err := r.Next()
		if err != nil {
			return err
		}
		switch fr.Op {
		case wire.OpReplBatch:
			epoch, firstLSN, batch, err := wire.DecodeReplBatchInto(fr.Payload, f.recs[:0])
			f.recs = batch[:0]
			if err != nil {
				return err
			}
			if err := repl.adoptEpoch(epoch); err != nil {
				return err
			}
			if firstLSN > next {
				return fmt.Errorf("replication gap: batch starts at lsn %d, applied through %d",
					firstLSN, next-1)
			}
			if skip := next - firstLSN; skip > 0 {
				// A re-delivery overlap (reconnect race): drop what we
				// already applied.
				if skip >= uint64(len(batch)) {
					batch = nil
				} else {
					batch = batch[skip:]
				}
			}
			// Heartbeats take a slot too: their ack tells a primary that just
			// connected us our position, in order behind the frames ahead.
			slot := <-f.free
			f.start(slot, next, batch)
			repl.replayInflight.Add(1)
			started <- slot
			next += uint64(len(batch))
		case wire.OpErr:
			return fmt.Errorf("primary rejected subscription: %s", fr.Payload)
		default:
			return fmt.Errorf("unexpected %v frame on replication stream", fr.Op)
		}
	}
}

// start cuts batch, whose first record has LSN first, into runs of
// consecutive same-op records — so the engine sees batch calls, not
// single ops; a run of inserts is also cut at the catch-up horizon,
// upserts up to it, inserts beyond — and starts each on the engine,
// leaving them outstanding in slot.
//
// This one goroutine starts every run, in stream order, on the engine's
// FIFO shard queues: per key, apply order is the primary's whichever
// runs are in flight together, and a live insert costs what the primary
// paid for it.
//
// The replay deliberately does NOT go through the engine's ship seam
// (the *BatchShip variants, a shipping start): the seam lets shard workers
// interleave a batch's records into the log in apply order, which on the
// PRIMARY is what creates the total order — but a follower must
// reproduce the primary's log POSITION-IDENTICALLY, because LSNs are
// positions: chained subscribers and read tokens both address records
// by LSN. So the runs do not ship, and finish appends them in the order
// they were started here.
func (f *Follower) start(slot *replayFrame, first uint64, batch []wire.ReplRec) {
	repl := f.srv.repl
	n := len(batch)
	slot.keys, slot.vals = growTo(slot.keys, n)[:0], growTo(slot.vals, n)[:0]
	slot.found = growTo(slot.found, n)
	for _, rec := range batch {
		slot.keys = append(slot.keys, rec.Key)
		slot.vals = append(slot.vals, rec.Val)
	}
	slot.runs = slot.runs[:0]
	for i := 0; i < n; {
		op := wal.Op(batch[i].Op)
		j := i + 1
		for j < n && wal.Op(batch[j].Op) == op {
			j++
		}
		lsn := first + uint64(i)
		live := lsn > f.catchUp
		if op == wal.OpInsert && !live {
			// Cut a run that straddles the horizon after its last record
			// at or below it.
			if below := f.catchUp - lsn + 1; below < uint64(j-i) {
				j = i + int(below)
			}
		}
		// Below the horizon an insert replays as an upsert; the ship log
		// still gets the record as the primary wrote it.
		as := op
		if op == wal.OpInsert && !live {
			as = wal.OpUpsert
		}
		switch as {
		case wal.OpInsert:
			repl.replayInserts.Add(int64(j - i))
		case wal.OpUpsert:
			repl.replayUpserts.Add(int64(j - i))
		}
		run := replayRun{op: op, keys: slot.keys[i:j], vals: slot.vals[i:j]}
		run.h, run.err = f.apply(as, run.keys, run.vals, slot.found[i:j])
		slot.runs = append(slot.runs, run)
		i = j
	}
}

// apply starts one run on the engine, replayed as the given op, without
// shipping; an expire record's deadline rides its value field, as
// BatchExpire takes it. A run the engine refuses has no handle, its
// error returned.
func (f *Follower) apply(as wal.Op, keys, vals []uint64, found []bool) (*extbuf.BatchCall, error) {
	var op extbuf.BatchOp
	switch as {
	case wal.OpInsert:
		op = extbuf.BatchInsert
	case wal.OpUpsert:
		op = extbuf.BatchUpsert
	case wal.OpDelete:
		op = extbuf.BatchDelete
	case wal.OpExpire:
		op = extbuf.BatchExpire
	default:
		return nil, fmt.Errorf("replicated record with unknown op %d", as)
	}
	return f.srv.engine.StartBatch(op, false, keys, vals, nil, found)
}

// finish is stage two: it takes the started frames oldest first and, for
// each, waits for every run, appends the runs to the ship log, sends one
// REPL_ACK and runs the periodic local sync, until started is closed and
// drained. It returns the error that ended the stream, if it met it.
//
// Apply-then-append: a record enters the ship log only after its run and
// every run started before it completed, so the applied horizon the log
// advertises (NextLSN()-1: what a tokened LOOKUP waits for and chained
// subscribers read up to) never runs ahead of the engine's state; and
// the appends are made in start order, so the log is the primary's
// position by position. Only the waits overlap. An ack names the log's
// end when it is written and this one goroutine writes them all: acks
// name only appended LSNs and leave in order.
//
// When a run (or an append) fails, nothing at or after it is appended —
// the log cannot skip a position — yet every later handle is still
// waited for, exactly once, as the frames drain. That leaves the engine
// ahead of the log by at most the ring: what a crash between apply and
// append also leaves, and what the next stream's catch-up horizon
// replays idempotently. Any error here ends the stream: finish closes
// the connection, which stops the reader, and from then on sends no acks
// and runs no syncs — but still appends what applied.
func (f *Follower) finish(nc net.Conn, started <-chan *replayFrame) error {
	repl := f.srv.repl
	var (
		broken     error // a run or an append failed: the log ends before it
		ended      error // why the stream is over, once it is
		pay, frame []byte
	)
	lastSync := time.Now()
	for slot := range started {
		waitFrom := time.Now()
		for i := range slot.runs {
			if run := &slot.runs[i]; run.h != nil {
				_, run.err = run.h.Wait()
				run.h = nil
			}
		}
		now := time.Now()
		repl.replayWaitNs.Add(int64(now.Sub(waitFrom)))
		records := 0
		for i := 0; i < len(slot.runs) && broken == nil; i++ {
			run := &slot.runs[i]
			if broken = run.err; broken == nil {
				_, broken = repl.ship.Append(run.op, run.keys, run.vals)
			}
			if broken == nil {
				records += len(run.keys)
			}
		}
		if records > 0 {
			repl.replayRecords.Add(int64(records))
			repl.addReplayed()
		}
		f.free <- slot
		repl.replayInflight.Add(-1)
		if ended != nil {
			continue
		}
		if ended = broken; ended == nil {
			// Acknowledge the applied horizon.
			pay = wire.AppendLSN(pay[:0], repl.ship.NextLSN()-1)
			frame = wire.AppendFrame(frame[:0], wire.OpReplAck, 1, pay)
			_, ended = nc.Write(frame)
		}
		if ended == nil && f.srv.hasWAL && now.Sub(lastSync) > repl.syncEvery {
			ended = f.syncLocal()
			lastSync = time.Now()
		}
		if ended != nil {
			nc.Close()
		}
	}
	return ended
}

// syncLocal is the follower's periodic local durability, off the ack
// path: semi-sync acks promise the follower APPLIED the ops; this bounds
// how much a crashed follower re-replays. The engine's Sync queues behind
// every run started so far — more than the log holds — so engine-durable
// covers what the fsync then makes ship-durable, and with ShipRetain set
// this is the safe point to drop the ship log's prefix.
func (f *Follower) syncLocal() error {
	repl := f.srv.repl
	if err := f.srv.engine.Sync(); err != nil {
		return err
	}
	if err := repl.ship.Fsync(); err != nil {
		return err
	}
	if retain := uint64(repl.shipRetain); retain > 0 {
		if next := repl.ship.NextLSN(); next > retain {
			return repl.ship.TruncateBefore(next - retain)
		}
	}
	return nil
}
