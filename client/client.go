// Package client is the Go client for hashserved, the wire-protocol
// server in front of the extbuf engine (see DESIGN.md, "Serving
// layer").
//
// A Client multiplexes requests over a small pool of TCP connections.
// Every request is asynchronous at the wire level: the Go* methods
// write a frame and return a Pending whose Wait-style methods block for
// the matching response, so a single goroutine can pipeline many
// requests down one connection and the server aggregates them into
// engine batches. The plain methods (Insert, Lookup, ...) are the
// synchronous wrappers: one Go* plus one wait, honoring the context's
// deadline.
//
// In-flight requests per connection are bounded (Options.Pipeline);
// past the bound, senders block — the client-side half of the
// end-to-end backpressure chain (client bound, server apply queue, TCP
// flow control, engine shard channels).
//
// An acknowledged mutation (a nil error from Insert, Upsert, Delete or a
// Pending.Wait) is durable on the server when it runs
// a durable backend: the server acks behind a group-committed
// write-ahead-log fsync.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"extbuf"
	"extbuf/internal/wire"
)

// ErrClosed is returned for operations on a closed client.
var ErrClosed = errors.New("client: closed")

// ErrTooLarge is returned for batches above the protocol's MaxBatch.
var ErrTooLarge = errors.New("client: batch exceeds wire.MaxBatch")

// ServerError is a failure reported by the server for one request (the
// wire ERR response); connection-level failures are returned as plain
// errors instead.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "server: " + e.Msg }

// IsReadOnly reports whether err is a server rejection of a mutation
// sent to a read-only replica — the signal to re-route writes to the
// primary (or the newly promoted node).
func IsReadOnly(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && strings.HasPrefix(se.Msg, wire.ErrTextReadOnly)
}

// IsBehind reports whether err is a replica's rejection of a
// token-carrying read it could not satisfy in time — the signal to
// retry the read against the primary.
func IsBehind(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && strings.HasPrefix(se.Msg, wire.ErrTextBehind)
}

// ReadToken is the position returned by an acknowledged mutation: the
// last ship-log LSN the mutation occupies, plus the replication epoch
// it was committed in. Passing it to Lookup guarantees read-your-writes
// against any node — a replica that has not yet applied the LSN waits
// (briefly) or answers with a BEHIND error instead of serving stale
// state. The zero ReadToken places no constraint. Tokens combine with
// Max, so one token can cover many writes.
//
// On a server without replication tokens are zero; reads behave as
// before.
type ReadToken struct {
	LSN   uint64
	Epoch uint64
}

// Max returns the later of two tokens — covering both writes.
func (t ReadToken) Max(o ReadToken) ReadToken {
	if o.LSN > t.LSN {
		t.LSN = o.LSN
	}
	if o.Epoch > t.Epoch {
		t.Epoch = o.Epoch
	}
	return t
}

// NodeInfo is a node's replication identity (the INFO reply).
type NodeInfo struct {
	// Epoch counts promotions; clients prefer the node with the highest
	// epoch after a failover.
	Epoch uint64
	// AppliedLSN is the node's applied horizon.
	AppliedLSN uint64
	// Writable reports whether the node accepts mutations.
	Writable bool
	// Role is "primary" or "follower".
	Role string
}

// Options configures Dial.
type Options struct {
	// Conns is the connection pool size (default 1). Requests are
	// spread round-robin.
	Conns int
	// Pipeline bounds the in-flight requests per connection (default
	// 64); senders block past it.
	Pipeline int
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
}

// Stats is the decoded STATS reply: engine length and memory, the
// paper's I/O model counters, and the backend real-cost counters.
type Stats struct {
	Len        int64
	MemoryUsed int64
	Ops        extbuf.Stats
	Store      extbuf.StoreStats
	Repl       extbuf.ReplStats
	Expiry     extbuf.ExpiryStats
}

// Client is a pooled, pipelined hashserved client. It is safe for
// concurrent use.
type Client struct {
	addr     string
	pipeline int
	timeout  time.Duration

	cmu    sync.RWMutex
	conns  []*poolConn
	next   atomic.Uint32
	closed atomic.Bool
}

// Dial connects the pool to addr.
func Dial(addr string, opts Options) (*Client, error) {
	n := opts.Conns
	if n <= 0 {
		n = 1
	}
	pipeline := opts.Pipeline
	if pipeline <= 0 {
		pipeline = 64
	}
	timeout := opts.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	c := &Client{addr: addr, pipeline: pipeline, timeout: timeout}
	for i := 0; i < n; i++ {
		pc, err := c.dialConn()
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, pc)
	}
	return c, nil
}

// dialConn opens one pool connection and starts its reader.
func (c *Client) dialConn() (*poolConn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	pc := &poolConn{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		pending: make(map[uint32]*Pending),
		sem:     make(chan struct{}, c.pipeline),
	}
	go pc.readLoop()
	return pc, nil
}

// Close tears down every connection; outstanding Pendings fail.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.cmu.RLock()
	conns := append([]*poolConn(nil), c.conns...)
	c.cmu.RUnlock()
	for _, pc := range conns {
		pc.fail(ErrClosed)
	}
	return nil
}

// pick returns the next live pool connection round-robin, skipping
// connections that have died. When every connection is dead it redials
// one — so a client outlives server restarts and transient network
// failures instead of being poisoned by the first broken socket.
func (c *Client) pick() (*poolConn, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	// Modulo in uint32 space: converting the wrapping counter to int
	// first would go negative on 32-bit platforms after 2^31 requests.
	start := c.next.Add(1) - 1
	c.cmu.RLock()
	n := uint32(len(c.conns))
	for k := uint32(0); k < n; k++ {
		pc := c.conns[(start+k)%n]
		if !pc.isDead() {
			c.cmu.RUnlock()
			return pc, nil
		}
	}
	c.cmu.RUnlock()

	// Every connection is dead: replace the slot we landed on.
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	i := start % uint32(len(c.conns))
	if !c.conns[i].isDead() { // another goroutine already redialed
		return c.conns[i], nil
	}
	pc, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	c.conns[i] = pc
	return pc, nil
}

// GoInsert pipelines an INSERT batch and returns its Pending; collect
// the ack with Pending.Wait or its read token with Pending.Token. The
// key and value slices are encoded before return; the caller may reuse
// them immediately.
func (c *Client) GoInsert(keys, vals []uint64) (*Pending, error) {
	return c.goKV(wire.OpInsert, keys, vals)
}

// GoUpsert pipelines an UPSERT batch, collected like GoInsert's.
func (c *Client) GoUpsert(keys, vals []uint64) (*Pending, error) {
	return c.goKV(wire.OpUpsert, keys, vals)
}

// GoLookup pipelines an unconstrained LOOKUP batch; collect results with
// Pending.Lookup.
func (c *Client) GoLookup(keys []uint64) (*Pending, error) {
	return c.goLookup(keys, ReadToken{})
}

// GoDelete pipelines a DELETE batch; collect results with
// Pending.Deleted, or with Pending.FoundsT for the read token too.
func (c *Client) GoDelete(keys []uint64) (*Pending, error) {
	if len(keys) > wire.MaxBatch {
		return nil, ErrTooLarge
	}
	pc, err := c.pick()
	if err != nil {
		return nil, err
	}
	return pc.send(wire.OpDelete, func(dst []byte) []byte { return wire.AppendKeys(dst, keys) })
}

// goLookup pipelines a LOOKUP that the serving node answers only once
// it has applied at.LSN.
func (c *Client) goLookup(keys []uint64, at ReadToken) (*Pending, error) {
	if len(keys) > wire.MaxBatch {
		return nil, ErrTooLarge
	}
	pc, err := c.pick()
	if err != nil {
		return nil, err
	}
	return pc.send(wire.OpLookup, func(dst []byte) []byte { return wire.AppendLookup(dst, at.LSN, keys) })
}

func (c *Client) goKV(op wire.Op, keys, vals []uint64) (*Pending, error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("client: %d keys, %d values", len(keys), len(vals))
	}
	if len(keys) > wire.MaxBatch {
		return nil, ErrTooLarge
	}
	pc, err := c.pick()
	if err != nil {
		return nil, err
	}
	return pc.send(op, func(dst []byte) []byte { return wire.AppendKV(dst, keys, vals) })
}

func (c *Client) goEmpty(op wire.Op) (*Pending, error) {
	pc, err := c.pick()
	if err != nil {
		return nil, err
	}
	return pc.send(op, nil)
}

// Insert stores (keys[i], vals[i]) for every i; a nil error means the
// server acked the batch as applied, WAL-durable, and (under semi-sync
// replication) applied by the required followers. The returned token
// makes the batch visible to any Lookup that carries it.
func (c *Client) Insert(ctx context.Context, keys, vals []uint64) (ReadToken, error) {
	p, err := c.GoInsert(keys, vals)
	if err != nil {
		return ReadToken{}, err
	}
	return p.Token(ctx)
}

// Upsert stores (keys[i], vals[i]) whether or not the keys are
// present, returning the batch's read token.
func (c *Client) Upsert(ctx context.Context, keys, vals []uint64) (ReadToken, error) {
	p, err := c.GoUpsert(keys, vals)
	if err != nil {
		return ReadToken{}, err
	}
	return p.Token(ctx)
}

// Delete removes every key, reporting per key whether it was present,
// plus the batch's read token.
func (c *Client) Delete(ctx context.Context, keys []uint64) ([]bool, ReadToken, error) {
	p, err := c.GoDelete(keys)
	if err != nil {
		return nil, ReadToken{}, err
	}
	return p.FoundsT(ctx)
}

// Lookup returns the value and presence of every key, in input order,
// observing at least the state the token stands for: a replica that
// has not applied at.LSN yet waits for it (or fails BEHIND — see
// IsBehind). The zero token reads whatever state the node has.
func (c *Client) Lookup(ctx context.Context, keys []uint64, at ReadToken) ([]uint64, []bool, error) {
	p, err := c.goLookup(keys, at)
	if err != nil {
		return nil, nil, err
	}
	return p.Lookup(ctx)
}

// Info reports the node's replication identity. It fails with a
// ServerError when the server runs without replication.
func (c *Client) Info(ctx context.Context) (NodeInfo, error) {
	p, err := c.goEmpty(wire.OpInfo)
	if err != nil {
		return NodeInfo{}, err
	}
	return p.info(ctx, wire.OpInfoR)
}

// Promote asks the node to become writable in a fresh epoch — the
// failover step after the primary is lost. It returns the node's
// post-promotion identity. Promoting an already-writable node is a
// no-op reporting its current identity.
func (c *Client) Promote(ctx context.Context) (NodeInfo, error) {
	p, err := c.goEmpty(wire.OpPromote)
	if err != nil {
		return NodeInfo{}, err
	}
	return p.info(ctx, wire.OpInfoR)
}

// Len returns the number of entries stored by the server.
func (c *Client) Len(ctx context.Context) (int, error) {
	p, err := c.goEmpty(wire.OpLen)
	if err != nil {
		return 0, err
	}
	n, err := p.count(ctx)
	return int(n), err
}

// Sync asks the server for an explicit acknowledgement barrier (WAL
// fsync). Mutations are already acked durable, so this is only needed
// to force durability of nothing in particular — e.g. as a liveness
// probe of the durable path.
func (c *Client) Sync(ctx context.Context) error {
	p, err := c.goEmpty(wire.OpSync)
	if err != nil {
		return err
	}
	return p.Wait(ctx)
}

// Flush asks the server for a full checkpoint barrier.
func (c *Client) Flush(ctx context.Context) error {
	p, err := c.goEmpty(wire.OpFlush)
	if err != nil {
		return err
	}
	return p.Wait(ctx)
}

// Ping round-trips an empty frame.
func (c *Client) Ping(ctx context.Context) error {
	p, err := c.goEmpty(wire.OpPing)
	if err != nil {
		return err
	}
	return p.Wait(ctx)
}

// Stats fetches the server's engine and backend counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	p, err := c.goEmpty(wire.OpStats)
	if err != nil {
		return Stats{}, err
	}
	return p.stats(ctx)
}

// Pending is one in-flight request. Exactly one wait-style method
// should be called, matching the request kind.
type Pending struct {
	done    chan struct{}
	op      wire.Op
	payload []byte // copied response payload
	err     error  // connection-level failure
}

// Wait blocks for the response of an INSERT, UPSERT, SYNC, FLUSH or
// PING request. A nil return means the server acked it (for mutations
// on a durable backend: applied and WAL-fsynced).
func (p *Pending) Wait(ctx context.Context) error {
	if err := p.wait(ctx); err != nil {
		return err
	}
	if p.op != wire.OpAck && p.op != wire.OpAckT {
		return fmt.Errorf("client: unexpected %v response", p.op)
	}
	return nil
}

// Lookup blocks for a LOOKUP response and decodes it.
func (p *Pending) Lookup(ctx context.Context) ([]uint64, []bool, error) {
	if err := p.wait(ctx); err != nil {
		return nil, nil, err
	}
	if p.op != wire.OpValues {
		return nil, nil, fmt.Errorf("client: unexpected %v response", p.op)
	}
	return wire.DecodeValuesInto(p.payload, nil, nil)
}

// Deleted blocks for a DELETE response and decodes its per-key flags.
func (p *Pending) Deleted(ctx context.Context) ([]bool, error) {
	found, _, err := p.FoundsT(ctx)
	return found, err
}

// Token blocks for the response of an INSERT, UPSERT or UPSERTTTL and
// decodes its ReadToken.
func (p *Pending) Token(ctx context.Context) (ReadToken, error) {
	if err := p.wait(ctx); err != nil {
		return ReadToken{}, err
	}
	if p.op != wire.OpAckT {
		return ReadToken{}, fmt.Errorf("client: unexpected %v response", p.op)
	}
	lsn, epoch, err := wire.DecodeAckT(p.payload)
	return ReadToken{LSN: lsn, Epoch: epoch}, err
}

// info blocks for an INFO-shaped response and decodes it.
func (p *Pending) info(ctx context.Context, want wire.Op) (NodeInfo, error) {
	if err := p.wait(ctx); err != nil {
		return NodeInfo{}, err
	}
	if p.op != want {
		return NodeInfo{}, fmt.Errorf("client: unexpected %v response", p.op)
	}
	wi, err := wire.DecodeInfo(p.payload)
	if err != nil {
		return NodeInfo{}, err
	}
	role := "primary"
	if wi.Role == wire.RoleFollower {
		role = "follower"
	}
	return NodeInfo{
		Epoch:      wi.Epoch,
		AppliedLSN: wi.AppliedLSN,
		Writable:   wi.Writable,
		Role:       role,
	}, nil
}

func (p *Pending) count(ctx context.Context) (uint64, error) {
	if err := p.wait(ctx); err != nil {
		return 0, err
	}
	if p.op != wire.OpCount {
		return 0, fmt.Errorf("client: unexpected %v response", p.op)
	}
	return wire.DecodeCount(p.payload)
}

func (p *Pending) stats(ctx context.Context) (Stats, error) {
	if err := p.wait(ctx); err != nil {
		return Stats{}, err
	}
	if p.op != wire.OpStatsR {
		return Stats{}, fmt.Errorf("client: unexpected %v response", p.op)
	}
	ws, err := wire.DecodeStats(p.payload)
	if err != nil {
		return Stats{}, err
	}
	return Stats{Len: ws.Len, MemoryUsed: ws.MemoryUsed, Ops: ws.Ops, Store: ws.Store,
		Repl: ws.Repl, Expiry: ws.Expiry}, nil
}

// wait blocks for response delivery or ctx expiry. On expiry the
// request stays in flight on the wire; its eventual response is
// discarded by the connection reader.
func (p *Pending) wait(ctx context.Context) error {
	select {
	case <-p.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if p.err != nil {
		return p.err
	}
	if p.op == wire.OpErr {
		return &ServerError{Msg: string(p.payload)}
	}
	return nil
}

// poolConn is one pooled TCP connection: a locked writer, a pending
// table keyed by request id, and a reader goroutine delivering
// responses.
type poolConn struct {
	nc net.Conn

	wmu    sync.Mutex
	bw     *bufio.Writer
	pbuf   []byte // payload scratch, reused under wmu
	fbuf   []byte // frame scratch, reused under wmu
	nextID uint32

	pmu     sync.Mutex
	pending map[uint32]*Pending
	dead    error

	sem chan struct{}
}

// isDead reports whether the connection has failed.
func (pc *poolConn) isDead() bool {
	pc.pmu.Lock()
	defer pc.pmu.Unlock()
	return pc.dead != nil
}

// send encodes one request frame (payload built by appendPayload into
// the connection's scratch) and registers its Pending.
func (pc *poolConn) send(op wire.Op, appendPayload func([]byte) []byte) (*Pending, error) {
	pc.sem <- struct{}{} // pipeline bound; released on response delivery
	p := &Pending{done: make(chan struct{})}

	pc.wmu.Lock()
	id := pc.nextID
	pc.nextID++

	// Register under the same pending-table acquisition that checks for
	// a dead connection: a concurrent fail() either sees our entry (and
	// fails it, releasing our semaphore slot) or we see dead here —
	// never a stranded Pending.
	pc.pmu.Lock()
	if pc.dead != nil {
		err := pc.dead
		pc.pmu.Unlock()
		pc.wmu.Unlock()
		<-pc.sem
		return nil, err
	}
	pc.pending[id] = p
	pc.pmu.Unlock()

	pc.pbuf = pc.pbuf[:0]
	if appendPayload != nil {
		pc.pbuf = appendPayload(pc.pbuf)
	}
	pc.fbuf = wire.AppendFrame(pc.fbuf[:0], op, id, pc.pbuf)
	_, err := pc.bw.Write(pc.fbuf)
	if err == nil {
		err = pc.bw.Flush()
	}
	pc.wmu.Unlock()
	if err != nil {
		pc.fail(fmt.Errorf("client: write: %w", err))
		return nil, err
	}
	return p, nil
}

// readLoop delivers responses to their Pendings until the connection
// dies, then fails everything outstanding.
func (pc *poolConn) readLoop() {
	r := wire.NewReader(bufio.NewReaderSize(pc.nc, 64<<10))
	for {
		f, err := r.Next()
		if err != nil {
			pc.fail(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		pc.pmu.Lock()
		p, ok := pc.pending[f.ID]
		delete(pc.pending, f.ID)
		pc.pmu.Unlock()
		if !ok {
			continue // response to an abandoned request
		}
		p.op = f.Op
		p.payload = append([]byte(nil), f.Payload...)
		close(p.done)
		<-pc.sem
	}
}

// fail marks the connection dead with err, fails every outstanding
// Pending, and closes the socket. Idempotent.
func (pc *poolConn) fail(err error) {
	pc.pmu.Lock()
	if pc.dead == nil {
		pc.dead = err
	}
	outstanding := pc.pending
	pc.pending = make(map[uint32]*Pending)
	pc.pmu.Unlock()
	for _, p := range outstanding {
		p.err = err
		close(p.done)
		<-pc.sem
	}
	pc.nc.Close()
}
