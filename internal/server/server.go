// Package server implements the serving layer: a TCP server speaking
// the wire protocol (package wire) in front of the sharded pipelined
// engine (extbuf.Sharded). See DESIGN.md, "Serving layer".
//
// Each connection runs four goroutines — reader, applier, ack stage,
// writer — so a client that pipelines requests gets them aggregated:
// the applier coalesces consecutive same-kind requests into single
// engine batch calls, which fan out across the engine's shard workers
// exactly like any other batch. The calls themselves are pipelined too:
// the applier starts each without waiting for it (Engine.StartBatch),
// keeps a small ring of calls outstanding and submits the next run
// while the workers apply the last, so requests that do not aggregate —
// neighbours of different kinds — still keep every shard busy.
// Responses stream back strictly in request order, so the id-matching
// on the client side never reorders.
//
// Durability of acks: a mutation is acknowledged only after an engine
// Sync barrier (write-ahead-log fsync on durable backends) that started
// after it was applied. The applier does not wait for it: it hands the
// encoded ack to the connection's ack stage and applies the next
// request, and the ack stage runs one barrier per burst of finished
// requests. Connections share one group committer, so concurrent
// bursts across all connections ride the same fsync — the serving-layer
// analogue of the WAL group commit inside the checkpoint path. On
// scratch backends without semi-sync replication no barrier exists and
// responses skip the ack stage.
//
// Backpressure: each connection's in-flight requests are bounded by a
// fixed-depth apply queue; when a client pipelines past it the reader
// stops reading and TCP flow control pushes back. Behind the queue, the
// applier's ring holds a fixed number of engine calls and the engine's
// own bounded shard channels bound the batches in flight, so server
// memory is a constant multiple of (connections x pipeline x batch)
// regardless of offered load.
package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"extbuf"
	"extbuf/internal/wal"
	"extbuf/internal/wire"
)

// Engine is the store the server fronts: extbuf's exported engine
// surface, which extbuf.Sharded implements. The alias keeps
// server.Engine as the name this package's API is written in while
// guaranteeing the server and the replication follower program against
// exactly the public interface.
type Engine = extbuf.Engine

var _ Engine = (*extbuf.Sharded)(nil)

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// Config parametrizes a Server.
type Config struct {
	// Engine is the store to serve (required).
	Engine Engine
	// MaxBatch caps the operations in one request frame AND the
	// operations the applier aggregates into one engine call (default
	// 4096; hard-capped by wire.MaxBatch). Oversized request frames are
	// rejected with an ERR response.
	MaxBatch int
	// Pipeline bounds each connection's queued-but-unapplied requests
	// (default 64). Together with MaxBatch it bounds per-connection
	// memory — the applier holds a fixed handful of engine calls of at
	// most MaxBatch operations on top of the queue; past it, TCP
	// backpressure holds the client.
	Pipeline int
	// Logf receives connection-level diagnostics (nil: discard).
	Logf func(format string, args ...any)
	// Repl enables WAL-shipping replication (nil: off). See ReplConfig.
	Repl *ReplConfig
	// SweepEvery runs the background TTL sweeper at this interval
	// (0: no sweeper — expired keys are hidden lazily on read but
	// their space is only reclaimed when the key is written again).
	// Followers skip sweeping and converge via the primary's shipped
	// deletes.
	SweepEvery time.Duration
	// SweepMax caps the keys reclaimed per sweep tick (default 4096),
	// bounding the write burst a sweep injects ahead of client load.
	SweepMax int
}

// DefaultMaxBatch is the per-frame and per-aggregation operation cap
// used when Config.MaxBatch is zero.
const DefaultMaxBatch = 4096

// DefaultPipeline is the per-connection in-flight request bound used
// when Config.Pipeline is zero.
const DefaultPipeline = 64

// Server serves the wire protocol over any net.Listener.
type Server struct {
	engine   Engine
	maxBatch int
	pipeline int
	logf     func(string, ...any)
	durable  bool
	commit   *groupCommitter
	waveOps  atomic.Int64 // operations acknowledged behind commit waves
	repl     *replState   // nil: replication off

	// Engine batch calls the appliers made, the operations in them, and
	// how many are outstanding (started, not yet waited for) right now.
	engineCalls      atomic.Int64
	engineCallOps    atomic.Int64
	callsOutstanding atomic.Int64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	follower  *Follower
	draining  bool

	connWG sync.WaitGroup

	sweepStop chan struct{} // nil: no sweeper configured
	sweepDone chan struct{}
	sweepOnce sync.Once
}

// New returns a server for cfg. It does not listen; pass listeners to
// Serve. It panics on an invalid configuration — use NewServer when
// replication (whose state lives in files that may fail to open) is
// configured.
func New(cfg Config) *Server {
	s, err := NewServer(cfg)
	if err != nil {
		panic("server: " + err.Error())
	}
	return s
}

// NewServer returns a server for cfg, opening the replication state
// (ship log + epoch file) when cfg.Repl is set.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("Config.Engine is required")
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if maxBatch > wire.MaxBatch {
		maxBatch = wire.MaxBatch // the protocol decoders reject anything larger
	}
	pipeline := cfg.Pipeline
	if pipeline <= 0 {
		pipeline = DefaultPipeline
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		engine:    cfg.Engine,
		maxBatch:  maxBatch,
		pipeline:  pipeline,
		logf:      logf,
		durable:   cfg.Engine.Durable(),
		commit:    &groupCommitter{sync: cfg.Engine.Sync},
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
	}
	if cfg.Repl != nil {
		repl, err := openRepl(*cfg.Repl)
		if err != nil {
			return nil, err
		}
		s.repl = repl
		// Wire the engine's ship seam to this node's ship log: shard
		// workers emit applied mutations, the log's append mutex merges
		// them into one contiguous total order (Engine.SetShip). Wired
		// here, before any listener exists, per the seam's contract.
		cfg.Engine.SetShip(func(op uint8, keys, vals []uint64) (uint64, error) {
			return repl.ship.Append(wal.Op(op), keys, vals)
		})
		if s.durable {
			// The ack barrier must also make the ship log durable, or a
			// restarted primary could serve tokens for records its
			// followers can no longer fetch. One group-commit wave fsyncs
			// both fds, together: the wave's ship records were appended
			// during apply, so neither fsync depends on the other.
			engineSync, shipFsync := cfg.Engine.Sync, repl.ship.Fsync
			s.commit.sync = func() error { return wal.SyncAll(engineSync, shipFsync) }
		}
	}
	if cfg.SweepEvery > 0 {
		max := cfg.SweepMax
		if max <= 0 {
			max = DefaultSweepMax
		}
		s.sweepStop = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go s.sweepLoop(cfg.SweepEvery, max)
	}
	return s, nil
}

// DefaultSweepMax is the per-tick reclamation cap used when
// Config.SweepMax is zero.
const DefaultSweepMax = 4096

// stopSweeper ends the sweep loop and waits for it. Idempotent; no-op
// when no sweeper was configured.
func (s *Server) stopSweeper() {
	if s.sweepStop == nil {
		return
	}
	s.sweepOnce.Do(func() { close(s.sweepStop) })
	<-s.sweepDone
}

// sweepLoop periodically reclaims due keys through the engine's normal
// logged-and-shipped delete path, then runs the same commit barrier as
// client mutations so a crash cannot resurrect swept keys after their
// deletes were shipped to followers.
func (s *Server) sweepLoop(every time.Duration, max int) {
	defer close(s.sweepDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-t.C:
		}
		if !s.writableNow() {
			continue // replicas converge via the primary's shipped deletes
		}
		n, last, err := s.engine.SweepExpired(max)
		if err != nil {
			s.logf("ttl sweep: %v", err)
			continue
		}
		if n > 0 {
			if err := s.commitMutation(last, n); err != nil {
				s.logf("ttl sweep commit: %v", err)
			}
		}
	}
}

// countCall records one engine batch call of ops operations made by a
// connection's applier.
func (s *Server) countCall(ops int) {
	s.engineCalls.Add(1)
	s.engineCallOps.Add(int64(ops))
}

// writableNow reports whether the node currently accepts mutations:
// always, unless it is a not-yet-promoted replica.
func (s *Server) writableNow() bool {
	return s.repl == nil || s.repl.isWritable()
}

// needsBarrier reports whether the acknowledgement of a mutation whose
// last ship-log record is lastLSN has to wait for commitMutation: on a
// durable engine always, otherwise only when semi-sync followers must
// confirm records it shipped.
func (s *Server) needsBarrier(lastLSN uint64) bool {
	return s.durable || (s.repl != nil && s.repl.syncN > 0 && lastLSN > 0)
}

// commitMutation is the full acknowledgement barrier for ops applied
// operations whose last ship-log record is lastLSN: the durable group
// commit (engine WAL + ship log fsync), then the semi-synchronous
// follower wait. Either failing withholds the ack.
func (s *Server) commitMutation(lastLSN uint64, ops int) error {
	if s.durable {
		s.waveOps.Add(int64(ops))
		if err := s.commit.commit(); err != nil {
			return err
		}
	}
	// lastLSN 0 means nothing was shipped (replication off, or an empty
	// batch) — there is nothing for a follower to confirm.
	if s.repl != nil && lastLSN > 0 {
		return s.repl.waitFollowers(lastLSN)
	}
	return nil
}

// epochNow returns the replication epoch, 0 with replication off.
func (s *Server) epochNow() uint64 {
	if s.repl == nil {
		return 0
	}
	return s.repl.epochNow()
}

// replStats snapshots the replication counters for STATS.
func (s *Server) replStats() extbuf.ReplStats {
	if s.repl == nil {
		return extbuf.ReplStats{}
	}
	return s.repl.stats()
}

// Info returns the node's replication identity; ok is false when
// replication is off.
func (s *Server) Info() (wire.Info, bool) {
	if s.repl == nil {
		return wire.Info{}, false
	}
	return s.repl.info(), true
}

// Promote makes a follower writable in a fresh epoch: stop replaying
// from the (presumably dead) primary, sync the engine so everything
// replayed so far is durable, bump and persist the epoch, and start
// accepting mutations. Promoting an already-writable node only reports
// its current identity. Safe to call from any goroutine, including a
// connection serving the PROMOTE request.
func (s *Server) Promote() (wire.Info, error) {
	if s.repl == nil {
		return wire.Info{}, errors.New("server: replication is not enabled")
	}
	s.mu.Lock()
	f := s.follower
	s.follower = nil
	s.mu.Unlock()
	if f != nil {
		f.Stop()
	}
	if s.durable {
		if err := s.engine.Sync(); err != nil {
			return wire.Info{}, err
		}
		if err := s.repl.ship.Fsync(); err != nil {
			return wire.Info{}, err
		}
	}
	return s.repl.promote()
}

// CloseRepl stops the follower loop (if running) and closes the ship
// log. Call after Shutdown, before closing the engine.
func (s *Server) CloseRepl() error {
	if s.repl == nil {
		return nil
	}
	s.mu.Lock()
	f := s.follower
	s.follower = nil
	s.mu.Unlock()
	if f != nil {
		f.Stop()
	}
	// Detach the engine's ship sink before closing the log it points at.
	// The caller has already drained the serving layer (Shutdown), so no
	// Ship-variant mutation can be in flight.
	s.engine.SetShip(nil)
	return s.repl.close()
}

// Serve accepts connections on lis until Shutdown. It always returns a
// non-nil error: ErrServerClosed after a Shutdown, the accept error
// otherwise. Multiple Serve calls (distinct listeners) are allowed.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		lis.Close()
		return ErrServerClosed
	}
	s.listeners[lis] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, lis)
		s.mu.Unlock()
	}()
	var backoff time.Duration
	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			// Transient accept failures — a timeout, or fd exhaustion
			// under a connection burst — must not take down a healthy
			// server (established connections keep being served either
			// way). Back off and retry; anything else is fatal.
			if isTransientAccept(err) {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				s.logf("accept: %v; retrying in %v", err, backoff)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		c := newConn(s, nc)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.connWG.Done()
			c.run()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// isTransientAccept reports whether an Accept error is worth retrying:
// a timeout, or the process running out of file descriptors (the
// burst subsides as existing connections close).
func isTransientAccept(err error) bool {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return true
	}
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE)
}

// Shutdown drains the server gracefully: it stops accepting, tells
// every connection to stop reading new requests, lets already-received
// requests complete (applied, committed and responded), then closes the
// connections. If ctx expires first the remaining connections are
// closed forcibly and ctx.Err is returned. The engine is not touched —
// the caller owns its lifecycle and typically runs the checkpoint
// (engine Close) right after a nil return.
func (s *Server) Shutdown(ctx context.Context) error {
	// The sweeper injects mutations; stop it before draining so no sweep
	// races the connections' final commits.
	s.stopSweeper()
	s.mu.Lock()
	s.draining = true
	for lis := range s.listeners {
		lis.Close()
	}
	for c := range s.conns {
		c.beginDrain()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// groupCommitter batches the ack barrier across connections: a commit
// call returns once an engine Sync that STARTED after the call began
// has completed, and at most one Sync runs at a time — every mutation
// applied while one is in flight shares the next one. This is the
// serving-layer group commit: N concurrent connections cost one WAL
// fsync per round, not N.
//
// Errors are tracked per sync wave, not in a single last-error slot: a
// waiter must see the error of ITS covering wave even if a later wave
// completed cleanly in between. A wave's fsync can fail, and a later
// wave's success says nothing about the records only the failed one
// covered: acking them would ack writes that may not survive a crash.
type groupCommitter struct {
	sync func() error

	mu        sync.Mutex
	cond      *sync.Cond
	started   uint64 // syncs started
	completed uint64 // syncs completed
	inFlight  bool
	waves     map[uint64]*commitWave
}

// commitWave is one sync's bookkeeping: its waiters (refs) and, once
// done, its error. Entries are deleted when the last waiter has read
// the result, so the map stays at the handful of in-flight waves.
type commitWave struct {
	refs int
	err  error
	done bool
}

// wavesStarted returns the number of sync waves run so far.
func (g *groupCommitter) wavesStarted() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return int64(g.started)
}

// commit blocks until a covering Sync completes and returns that very
// sync's error.
func (g *groupCommitter) commit() error {
	g.mu.Lock()
	if g.cond == nil {
		g.cond = sync.NewCond(&g.mu)
		g.waves = make(map[uint64]*commitWave)
	}
	// The next sync to start is numbered started+1; it necessarily
	// begins after our mutations were applied, so its completion makes
	// them durable. An in-flight sync (numbered started) may have begun
	// before them and does not count.
	target := g.started + 1
	w := g.waves[target]
	if w == nil {
		w = &commitWave{}
		g.waves[target] = w
	}
	w.refs++
	for !w.done {
		if !g.inFlight {
			// Become the runner of the next wave (which is ours: waves
			// start in order and every earlier one has completed).
			g.inFlight = true
			g.started++
			mine := g.waves[g.started]
			if mine == nil {
				mine = &commitWave{}
				g.waves[g.started] = mine
			}
			num := g.started
			g.mu.Unlock()
			err := g.sync()
			g.mu.Lock()
			mine.err = err
			mine.done = true
			g.completed = num
			g.inFlight = false
			g.cond.Broadcast()
		} else {
			g.cond.Wait()
		}
	}
	err := w.err
	w.refs--
	if w.refs == 0 {
		delete(g.waves, target)
	}
	g.mu.Unlock()
	return err
}
