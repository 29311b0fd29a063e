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
// The stream is a conn whose requests are the primary's runs: its read
// stage (read) queues them, and from the queue on the path is an
// accepted connection's — started in the applier's ring, finished
// oldest first by conn.finishReplay (wait, append, acknowledge). What
// the overlap may not change is stated where the code decides it: queue
// (order), finishReplay (apply-then-append, acks, failure), stream
// (drain). DESIGN.md §2a.
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

	// The reader's scratch, reused across frames.
	recs  []wire.ReplRec
	pay   []byte
	frame []byte
}

// Follow starts replaying from the primary at addr. The server must
// have replication enabled and not already be following.
func (s *Server) Follow(addr string) (*Follower, error) {
	if s.repl == nil {
		return nil, errors.New("server: replication is not enabled")
	}
	f := &Follower{srv: s, addr: addr, logf: s.logf, done: make(chan struct{})}
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
// applied horizon, then run the connection's pipeline with read as its
// read stage until the stream breaks.
//
// However it ends — Stop, Promote, CloseRepl, a dead primary, an error
// in any stage — stream returns only after the applier has drained its
// queue and its ring: every started run waited for and, unless one
// failed, appended; only the acks are skipped. So when Stop returns the
// ship log covers exactly what replication applied to the engine, and
// nothing is still writing the log CloseRepl is about to close.
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
	from := repl.ship.NextLSN() // no run outlives its stream: the log's end is where this one starts
	f.catchUp = info.AppliedLSN
	if from-1 > info.AppliedLSN {
		// Our log is longer than the primary's: the two disagree about
		// history (a primary that lost its unshipped tail, or a deposed
		// one — ROADMAP item 10(a)), and no horizon separates what we may
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
	c := newConn(f.srv, nc)
	c.lastSync = time.Now()
	c.run(func() { err = f.read(c, r, from) })
	if c.replayEnd != nil {
		err = c.replayEnd // the finish step closed the connection under the reader: the cause
	}
	return err
}

// read is the stream's read stage, run where an accepted connection
// runs conn.reader: it decodes REPLBATCH frames, checks each against
// next — the LSN of the first record not yet queued — and queues their
// runs until the stream breaks.
func (f *Follower) read(c *conn, r *wire.Reader, next uint64) error {
	repl := f.srv.repl
	// The primary heartbeats idle streams; a silent connection for many
	// heartbeat intervals means the primary (or the path to it) is dead.
	readTimeout := 10 * repl.heartbeat
	if readTimeout < 5*time.Second {
		readTimeout = 5 * time.Second
	}
	for {
		c.nc.SetReadDeadline(time.Now().Add(readTimeout))
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
			if err := f.queue(c, next, batch); err != nil {
				return err
			}
			next += uint64(len(batch))
		case wire.OpErr:
			return fmt.Errorf("primary rejected subscription: %s", fr.Payload)
		default:
			return fmt.Errorf("unexpected %v frame on replication stream", fr.Op)
		}
	}
}

// queue cuts batch, whose first record has LSN first, into runs of
// consecutive same-op records — a run of inserts also at the catch-up
// horizon, upserts up to it, inserts beyond — and puts each on c's
// apply queue as one request, the last one ending the frame. A frame
// without records (a heartbeat, or all re-delivery) is one empty run:
// its ack tells a primary that just connected us our position.
//
// Runs are queued in stream order, and the connection's one applier
// starts them in queue order on the engine's FIFO shard queues: per
// key, apply order is the primary's whichever runs are in flight
// together, and a live insert costs what the primary paid for it.
func (f *Follower) queue(c *conn, first uint64, batch []wire.ReplRec) error {
	repl := f.srv.repl
	n := len(batch)
	for i := 0; ; {
		req := c.getReq()
		req.op = wire.OpReplBatch
		j := i
		if i < n {
			op := wal.Op(batch[i].Op)
			for j++; j < n && wal.Op(batch[j].Op) == op; j++ {
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
			switch {
			case op == wal.OpInsert && live:
				req.as = extbuf.BatchInsert
				repl.replayInserts.Add(int64(j - i))
			case op == wal.OpInsert, op == wal.OpUpsert:
				req.as = extbuf.BatchUpsert
				repl.replayUpserts.Add(int64(j - i))
			case op == wal.OpDelete:
				req.as = extbuf.BatchDelete
			case op == wal.OpExpire:
				req.as = extbuf.BatchExpire
			default:
				c.putReq(req)
				return fmt.Errorf("replicated record with unknown op %d", op)
			}
			req.rec = op
			for _, rec := range batch[i:j] {
				req.keys = append(req.keys, rec.Key)
				req.vals = append(req.vals, rec.Val)
			}
		}
		if req.endsFrame = j == n; req.endsFrame {
			repl.replayInflight.Add(1)
		}
		c.applyCh <- req // bounded: this send is the backpressure point
		if i = j; i == n {
			return nil
		}
	}
}

// syncLocal is the follower's periodic local durability, off the ack
// path: semi-sync acks promise the follower APPLIED the ops; this bounds
// how much a crashed follower re-replays. It runs on the applier, which
// appends a run to the ship log only after its call completed, so every
// record in the log belongs to a call that completed before the engine's
// Sync was called, and Sync covers exactly those: engine-durable covers
// what the fsync then makes ship-durable, and with ShipRetain set this
// is the safe point to drop the ship log's prefix.
func (s *Server) syncLocal() error {
	repl := s.repl
	if err := s.engine.Sync(); err != nil {
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
