package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

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
// Replay has two regimes, split at the catch-up horizon: the primary's
// applied LSN when this stream connected. Nothing above it can have
// reached this node before, so those records replay exactly as the
// primary ran them — an INSERT as an insert, at the structure's
// buffered o(1) cost. At or below it a record may be one this node
// already applied — a crash can lose the ship log's tail but not the
// engine's, and the engine is then ahead of the position we subscribe
// from — so there inserts replay as upserts, idempotent by the same
// rule recovery uses (durable.go replayRecords), and converge instead
// of leaving a second copy.
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

	// replay scratch, reused across batches.
	recs  []wire.ReplRec
	keys  []uint64
	vals  []uint64
	found []bool
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
// applied horizon, then replay batches until the stream breaks.
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
	from := repl.ship.NextLSN()
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
	// The primary heartbeats idle streams; a silent connection for many
	// heartbeat intervals means the primary (or the path to it) is dead.
	readTimeout := 10 * repl.heartbeat
	if readTimeout < 5*time.Second {
		readTimeout = 5 * time.Second
	}
	lastSync := time.Now()
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
			next := repl.ship.NextLSN()
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
			if len(batch) > 0 {
				if err := f.apply(next, batch); err != nil {
					return err
				}
				repl.addReplayed()
			}
			// Acknowledge the applied horizon — heartbeats too, so a
			// primary that just connected us learns our position.
			f.pay = wire.AppendLSN(f.pay[:0], repl.ship.NextLSN()-1)
			f.frame = wire.AppendFrame(f.frame[:0], wire.OpReplAck, 1, f.pay)
			if _, err := nc.Write(f.frame); err != nil {
				return err
			}
			// Periodic local durability, off the ack path: semi-sync acks
			// promise the follower APPLIED the ops; this bounds how much
			// a crashed follower re-replays. With ShipRetain set, the
			// just-synced engine now durably covers everything below the
			// retained window, so this is also the safe point to drop the
			// ship log's prefix and bound the replica's disk footprint.
			if f.srv.durable && time.Since(lastSync) > repl.syncEvery {
				if err := f.srv.engine.Sync(); err != nil {
					return err
				}
				if err := repl.ship.Fsync(); err != nil {
					return err
				}
				if retain := uint64(repl.shipRetain); retain > 0 {
					if next := repl.ship.NextLSN(); next > retain {
						if err := repl.ship.TruncateBefore(next - retain); err != nil {
							return err
						}
					}
				}
				lastSync = time.Now()
			}
		case wire.OpErr:
			return fmt.Errorf("primary rejected subscription: %s", fr.Payload)
		default:
			return fmt.Errorf("unexpected %v frame on replication stream", fr.Op)
		}
	}
}

// apply replays one batch whose first record has LSN first: engine
// first (so the applied horizon the ship log advertises never runs ahead
// of readable state), then the ship log, in runs of consecutive same-op
// records so the engine sees batch calls, not single ops. A run of
// inserts is cut at the catch-up horizon: upserts up to it, inserts
// beyond.
//
// The replay deliberately does NOT go through the engine's ship seam
// (the *BatchShip variants): the seam lets shard workers interleave a
// batch's records into the log in apply order, which on the PRIMARY is
// what creates the total order — but a follower must reproduce the
// primary's log POSITION-IDENTICALLY, because LSNs are positions:
// chained subscribers (a follower serving REPL_SUBSCRIBE from this very
// log) and read tokens both address records by LSN, and a permuted copy
// would hand them different records under the same LSNs. Stream-order
// apply-then-append by this single goroutine preserves both the total
// order (it IS the primary's order) and the positions.
func (f *Follower) apply(first uint64, batch []wire.ReplRec) error {
	repl := f.srv.repl
	for i := 0; i < len(batch); {
		op := wal.Op(batch[i].Op)
		j := i + 1
		for j < len(batch) && wal.Op(batch[j].Op) == op {
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
		run := batch[i:j]
		f.keys = f.keys[:0]
		f.vals = f.vals[:0]
		for _, rec := range run {
			f.keys = append(f.keys, rec.Key)
			f.vals = append(f.vals, rec.Val)
		}
		var err error
		switch op {
		case wal.OpInsert:
			if live {
				err = f.srv.engine.InsertBatch(f.keys, f.vals)
				repl.replayInserts.Add(int64(len(run)))
				break
			}
			fallthrough
		case wal.OpUpsert:
			err = f.srv.engine.UpsertBatch(f.keys, f.vals)
			repl.replayUpserts.Add(int64(len(run)))
		case wal.OpDelete:
			f.found = growTo(f.found, len(f.keys))
			err = f.srv.engine.DeleteBatchInto(f.keys, f.found[:len(f.keys)])
		case wal.OpExpire:
			// Deadlines ride the value field. Non-ship variant: the
			// stream-order append below adds the record to our own ship
			// log at the primary's position; the engine seam must not.
			f.found = growTo(f.found, len(f.keys))
			err = f.srv.engine.ExpireBatch(f.keys, f.vals, f.found[:len(f.keys)])
		default:
			err = fmt.Errorf("replicated record with unknown op %d", op)
		}
		if err != nil {
			return err
		}
		if _, err := repl.ship.Append(op, f.keys, f.vals); err != nil {
			return err
		}
		i = j
	}
	return nil
}
