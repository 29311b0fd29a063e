package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extbuf"
	"extbuf/internal/server"
	"extbuf/internal/wire"
)

// serveEngine serves eng on loopback; cleanup drains the server. logf
// receives the server's diagnostics (nil: t.Logf).
func serveEngine(t *testing.T, eng server.Engine, logf func(string, ...any)) (*server.Server, string) {
	t.Helper()
	if logf == nil {
		logf = t.Logf
	}
	srv := newServer(t, server.Config{Engine: eng, Logf: logf})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != server.ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return srv, lis.Addr().String()
}

func newSharded(t *testing.T) *extbuf.Sharded {
	t.Helper()
	eng, err := extbuf.NewSharded("buffered", extbuf.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// pipeFrame is one request of a pipelined script and the serial answer
// it must get.
type pipeFrame struct {
	op      wire.Op
	payload []byte
	wantOp  wire.Op
	vals    []uint64 // VALUES
	found   []bool   // VALUES, FOUNDS, FOUNDST
}

// pipelineScript is rounds of INSERT k, LOOKUP k, UPSERT k, LOOKUP k,
// DELETE k, LOOKUP k over blocks of keys private to the connection —
// each request depends on the one before it — with the other keyed kinds
// pipelined in between: two adjacent CAS requests and a tokened LOOKUP in
// one round, UPSERTTTL and EXPIRE in the next. PING, which drains the
// ring, is the only request that cuts in.
func pipelineScript(conn, rounds, batch int) []pipeFrame {
	all := func(n int, ok bool) []bool {
		f := make([]bool, n)
		for i := range f {
			f[i] = ok
		}
		return f
	}
	lookup := func(token uint64, keys, vals []uint64, found bool) pipeFrame {
		return pipeFrame{op: wire.OpLookup, payload: wire.AppendLookup(nil, token, keys), wantOp: wire.OpValues, vals: vals, found: all(len(keys), found)}
	}
	var script []pipeFrame
	for r := 0; r < rounds; r++ {
		keys, v1, v2, v3 := make([]uint64, batch), make([]uint64, batch), make([]uint64, batch), make([]uint64, batch)
		far := make([]uint64, batch)
		for i := range keys {
			keys[i] = uint64(conn)<<40 | uint64(r)<<16 | uint64(i) + 1
			v1[i], v2[i], v3[i], far[i] = keys[i]*3, keys[i]*5, keys[i]*7, ^uint64(0)
		}
		script = append(script,
			pipeFrame{op: wire.OpInsert, payload: wire.AppendKV(nil, keys, v1), wantOp: wire.OpAckT},
			lookup(0, keys, v1, true),
			pipeFrame{op: wire.OpUpsert, payload: wire.AppendKV(nil, keys, v2), wantOp: wire.OpAckT},
			lookup(0, keys, v2, true),
		)
		switch r % 3 {
		case 0:
			// Two CAS requests against the upserted values (one engine call
			// when they coalesce), then a token lookup (a token cuts the run
			// but, with replication off, never waits): each must see every
			// earlier request of the round applied.
			h := batch / 2
			script = append(script,
				pipeFrame{op: wire.OpCAS, payload: wire.AppendTriples(nil, keys[:h], v2[:h], v3[:h]), wantOp: wire.OpFoundsT, found: all(h, true)},
				pipeFrame{op: wire.OpCAS, payload: wire.AppendTriples(nil, keys[h:], v2[h:], v3[h:]), wantOp: wire.OpFoundsT, found: all(batch-h, true)},
				lookup(uint64(r)+1, keys, v3, true),
			)
		case 1:
			script = append(script,
				pipeFrame{op: wire.OpUpsertTTL, payload: wire.AppendTriples(nil, keys, v3, far), wantOp: wire.OpAckT},
				pipeFrame{op: wire.OpExpire, payload: wire.AppendKV(nil, keys, far), wantOp: wire.OpFoundsT, found: all(batch, true)},
				pipeFrame{op: wire.OpPing, wantOp: wire.OpAck},
				lookup(0, keys, v3, true),
			)
		}
		script = append(script,
			pipeFrame{op: wire.OpDelete, payload: wire.AppendKeys(nil, keys), wantOp: wire.OpFoundsT, found: all(batch, true)},
			lookup(0, keys, make([]uint64, batch), false),
			pipeFrame{op: wire.OpDelete, payload: wire.AppendKeys(nil, keys), wantOp: wire.OpFoundsT, found: all(batch, false)},
		)
	}
	return script
}

// check compares response f against the script's expectation.
func (p *pipeFrame) check(f wire.Frame) error {
	if f.Op != p.wantOp {
		return fmt.Errorf("%v (%q), want %v", f.Op, f.Payload, p.wantOp)
	}
	var (
		vals  []uint64
		found []bool
		err   error
	)
	switch f.Op {
	case wire.OpValues:
		vals, found, err = wire.DecodeValuesInto(f.Payload, nil, nil)
	case wire.OpFoundsT:
		_, _, found, err = wire.DecodeFoundsTInto(f.Payload, nil)
	}
	if err != nil {
		return err
	}
	if !slices.Equal(vals, p.vals) || !slices.Equal(found, p.found) {
		return fmt.Errorf("%v carries %v %v, want %v %v", f.Op, vals, found, p.vals, p.found)
	}
	return nil
}

// TestPipelinedApplySerialAnswers sends each connection's whole script
// without waiting for a single response and requires exactly the
// answers a one-at-a-time execution gives, in request order: the
// applier keeps several engine calls outstanding, but a connection's
// requests still apply per key in the order it sent them.
func TestPipelinedApplySerialAnswers(t *testing.T) {
	_, addr := serveEngine(t, newSharded(t), nil)
	const conns, rounds, batch = 2, 30, 24
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		script := pipelineScript(ci, rounds, batch)
		c := dialRaw(t, addr)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i, p := range script {
				if _, err := c.nc.Write(wire.AppendFrame(nil, p.op, uint32(i+1), p.payload)); err != nil {
					t.Errorf("conn %d: write request %d: %v", ci, i+1, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := range script {
				select {
				case f, ok := <-c.frames:
					if !ok {
						t.Errorf("conn %d: closed before response %d", ci, i+1)
						return
					}
					if f.ID != uint32(i+1) {
						t.Errorf("conn %d: response id %d (%v) where %d is due", ci, f.ID, f.Op, i+1)
						return
					}
					if err := script[i].check(f); err != nil {
						t.Errorf("conn %d: request %d (%v): %v", ci, i+1, script[i].op, err)
						return
					}
				case <-time.After(20 * time.Second):
					t.Errorf("conn %d: no response to request %d", ci, i+1)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// shipGate is a ship sink that admits one call per token: a shard
// worker that applies a mutation blocks inside it until the test lets it
// through, so the calls behind stay outstanding for as long as the test
// likes.
type shipGate struct {
	tokens   chan struct{}
	openOnce sync.Once
	entered  atomic.Int64
	next     atomic.Uint64
}

func (g *shipGate) ship(op uint8, keys, vals []uint64) (uint64, error) {
	g.entered.Add(1)
	<-g.tokens
	return g.next.Add(uint64(len(keys))) - uint64(len(keys)) + 1, nil
}

// release lets exactly n ship calls through, waiting for each to arrive.
func (g *shipGate) release(n int) {
	for ; n > 0; n-- {
		g.tokens <- struct{}{}
	}
}

// open lets this and every later ship call through.
func (g *shipGate) open() { g.openOnce.Do(func() { close(g.tokens) }) }

// serveGated serves a Sharded (wrapped by wrap, if given) whose ship
// sink is a shut gate. Cleanup opens the gate before the server drains:
// a drain waits for the held workers.
func serveGated(t *testing.T, wrap func(*extbuf.Sharded) server.Engine, logf func(string, ...any)) (*extbuf.Sharded, *shipGate, *server.Server, string) {
	t.Helper()
	sharded := newSharded(t)
	g := &shipGate{tokens: make(chan struct{})}
	sharded.SetShip(g.ship)
	var eng server.Engine = sharded
	if wrap != nil {
		eng = wrap(sharded)
	}
	srv, addr := serveEngine(t, eng, logf)
	t.Cleanup(g.open)
	return sharded, g, srv, addr
}

const poisonKey = 0xdead

// refusingStarter is an engine whose StartBatch refuses batches naming
// the poison key: a submission that fails, with calls outstanding ahead
// of it or not.
type refusingStarter struct{ extbuf.Engine }

var errPoison = errors.New("boom: poisoned batch")

func (e refusingStarter) StartBatch(op extbuf.BatchOp, ship bool, keys, vals, vals2 []uint64, found []bool) (*extbuf.BatchCall, error) {
	if len(keys) > 0 && keys[0] == poisonKey {
		return nil, errPoison
	}
	return e.Engine.StartBatch(op, ship, keys, vals, vals2, found)
}

// TestPipelinedApplyErrorInTheMiddle: an engine error answers ERR to the
// request it hit and to no other, and the responses still leave in
// request order — when the failing request arrives while an earlier call
// is held outstanding in its shard worker, and on an engine nothing holds,
// one shard with no gate, where earlier calls may already be done.
func TestPipelinedApplyErrorInTheMiddle(t *testing.T) {
	script := func(t *testing.T, c *rawConn, release func()) {
		c.send(t, wire.OpUpsert, 1, kv(1, 10))
		c.send(t, wire.OpInsert, 2, kv(poisonKey, 20))
		c.send(t, wire.OpUpsert, 3, kv(3, 30))
		c.send(t, wire.OpLookup, 4, wire.AppendLookup(nil, 0, []uint64{1, poisonKey, 3}))
		release()
		c.expect(t, wire.OpAckT, 1)
		if f := c.expect(t, wire.OpErr, 2); !strings.Contains(string(f.Payload), "boom") {
			t.Fatalf("ERR text %q does not carry the engine's error", f.Payload)
		}
		c.expect(t, wire.OpAckT, 3)
		f := c.expect(t, wire.OpValues, 4)
		vals, oks, err := wire.DecodeValuesInto(f.Payload, nil, nil)
		if err != nil || fmt.Sprint(vals) != "[10 0 30]" || fmt.Sprint(oks) != "[true false true]" {
			t.Fatalf("VALUES = %v %v, %v; want [10 0 30] [true false true]", vals, oks, err)
		}
	}
	t.Run("pipelined", func(t *testing.T) {
		_, gate, srv, addr := serveGated(t, func(s *extbuf.Sharded) server.Engine { return refusingStarter{s} }, nil)
		c := dialRaw(t, addr)
		script(t, c, func() {
			// Request 1 is held inside its shard worker; requests 2-4 reach
			// the applier behind it.
			waitUntil(t, "request 1 outstanding", func() bool {
				return gate.entered.Load() == 1 && srv.CallsOutstandingForTest() >= 1
			})
			c.quiet(t, "while the first call is still outstanding")
			gate.open()
		})
	})
	t.Run("synchronous", func(t *testing.T) {
		single, err := extbuf.NewSharded("buffered", extbuf.Config{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { single.Close() })
		_, addr := serveEngine(t, refusingStarter{single}, nil)
		script(t, dialRaw(t, addr), func() {})
	})
}

// TestPipelinedApplyShutdownAnswersOutstanding: a drain that begins with
// the ring full of outstanding calls answers every one of them, and
// every request the reader had taken in behind them, in order, then
// closes the connection.
func TestPipelinedApplyShutdownAnswersOutstanding(t *testing.T) {
	const requests, batch = 24, 16
	logf, waitQueued := burstEnd(t)
	eng, gate, srv, addr := serveGated(t, nil, logf)
	c := dialRaw(t, addr)

	// Hold an UPSERTTTL in its shard worker (it ships twice: the value,
	// then the deadline) and park the applier behind it in a SCAN, which
	// drains the ring; then queue the burst. The kinds alternate, so no
	// two requests share an engine call.
	c.send(t, wire.OpUpsertTTL, 1, wire.AppendTriples(nil, []uint64{1 << 50}, []uint64{1}, []uint64{1 << 60}))
	waitUntil(t, "the UPSERTTTL held in its shard worker", func() bool { return gate.entered.Load() == 1 })
	c.send(t, wire.OpScan, 2, wire.AppendScan(nil, 0, 16))
	keys, vals := make([]uint64, batch), make([]uint64, batch)
	for i := 0; i < requests; i++ {
		for j := range keys {
			keys[j], vals[j] = uint64(i*batch+j+1), uint64(i)
		}
		op := wire.OpInsert
		if i%2 == 1 {
			op = wire.OpUpsert
		}
		c.send(t, op, uint32(i+3), wire.AppendKV(nil, keys, vals))
	}
	waitQueued(c)

	// Let the UPSERTTTL through. The applier answers it and the SCAN, then
	// finds the whole burst queued: it starts calls until its ring is
	// full, and every one of them is held in the shard workers.
	gate.release(2)
	c.expect(t, wire.OpAckT, 1)
	c.expect(t, wire.OpScanR, 2)
	waitUntil(t, "the applier's ring filled behind the held workers", func() bool {
		return srv.CallsOutstandingForTest() == 8
	})
	c.quiet(t, "with every call still outstanding")
	if n := srv.CallsOutstandingForTest(); n != 8 {
		t.Fatalf("%d calls outstanding on one connection, want the ring's 8", n)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	c.quiet(t, "during a drain whose calls are still outstanding")
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) with started calls unanswered", err)
	default:
	}
	gate.open()

	for i := 0; i < requests; i++ {
		c.expect(t, wire.OpAckT, uint32(i+3))
	}
	c.expect(t, wire.OpErr, badID)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if f, ok := <-c.frames; ok {
		t.Fatalf("frame %v id %d after the drain", f.Op, f.ID)
	}
	if n := eng.Len(); n != requests*batch+1 {
		t.Fatalf("engine holds %d keys, want %d", n, requests*batch+1)
	}
	if n := srv.CallsOutstandingForTest(); n != 0 {
		t.Fatalf("%d calls outstanding after the drain", n)
	}
}

// badID is the id of the frame burstEnd's wait sends to end a burst.
const badID = 99

// burstEnd returns a server log function and a wait: the wait sends a
// frame the reader rejects and returns once the reader has logged it, so
// every request sent before it is queued for the applier. The applier
// answers it ERR, in its place.
func burstEnd(t *testing.T) (logf func(string, ...any), wait func(*rawConn)) {
	queued := make(chan struct{})
	var once sync.Once
	mark := fmt.Sprintf("rejected frame id %d", badID)
	logf = func(format string, args ...any) {
		if msg := fmt.Sprintf(format, args...); strings.Contains(msg, mark) {
			once.Do(func() { close(queued) })
		}
	}
	return logf, func(c *rawConn) {
		c.send(t, wire.Op(250), badID, nil)
		select {
		case <-queued:
		case <-time.After(10 * time.Second):
			t.Fatal("the reader never reached the end of the burst")
		}
	}
}

// run is one engine call the applier started: its kind and length.
type run struct {
	op   extbuf.BatchOp
	keys int
}

// runLog is an engine that records every StartBatch as a run and holds
// every Scan until release is closed: a test parks the applier in a
// SCAN, queues a burst behind it, and then reads how the applier cut the
// burst into engine calls.
type runLog struct {
	extbuf.Engine
	release chan struct{}
	mu      sync.Mutex
	runs    []run
}

func newRunLog(e extbuf.Engine) *runLog { return &runLog{Engine: e, release: make(chan struct{})} }

func (e *runLog) StartBatch(op extbuf.BatchOp, ship bool, keys, vals, vals2 []uint64, found []bool) (*extbuf.BatchCall, error) {
	e.mu.Lock()
	e.runs = append(e.runs, run{op, len(keys)})
	e.mu.Unlock()
	return e.Engine.StartBatch(op, ship, keys, vals, vals2, found)
}

func (e *runLog) Scan(cursor uint64, max int) ([]uint64, []uint64, uint64, error) {
	<-e.release
	return e.Engine.Scan(cursor, max)
}

// take returns the runs started so far and forgets them.
func (e *runLog) take() []run {
	e.mu.Lock()
	defer e.mu.Unlock()
	runs := e.runs
	e.runs = nil
	return runs
}

// TestPipelinedApplyCoalescesKeyedKinds: with a burst queued, adjacent
// requests of each keyed kind — CAS, UPSERTTTL and EXPIRE as much as
// LOOKUP and DELETE — share one engine call, and a run is cut where the
// kind or a LOOKUP's read token changes (a token cuts even on a node
// without replication, where it never waits).
func TestPipelinedApplyCoalescesKeyedKinds(t *testing.T) {
	logf, waitQueued := burstEnd(t)
	eng := newRunLog(newSharded(t))
	_, addr := serveEngine(t, eng, logf)
	c := dialRaw(t, addr)
	keys, vals := []uint64{1, 2, 3, 4}, []uint64{10, 20, 30, 40}
	far := slices.Repeat([]uint64{^uint64(0)}, 2)
	c.send(t, wire.OpInsert, 1, wire.AppendKV(nil, keys, vals))
	c.expect(t, wire.OpAckT, 1)
	eng.take()

	c.send(t, wire.OpScan, 2, wire.AppendScan(nil, 0, 8))
	c.send(t, wire.OpCAS, 3, wire.AppendTriples(nil, keys[:2], vals[:2], []uint64{11, 21}))
	c.send(t, wire.OpCAS, 4, wire.AppendTriples(nil, keys[2:], []uint64{0, 40}, []uint64{31, 41}))
	c.send(t, wire.OpUpsertTTL, 5, wire.AppendTriples(nil, keys[:2], []uint64{12, 22}, far))
	c.send(t, wire.OpUpsertTTL, 6, wire.AppendTriples(nil, keys[2:], []uint64{32, 42}, far))
	c.send(t, wire.OpExpire, 7, wire.AppendKV(nil, keys[:2], far))
	c.send(t, wire.OpExpire, 8, wire.AppendKV(nil, []uint64{3, 5}, far))
	c.send(t, wire.OpLookup, 9, wire.AppendLookup(nil, 0, keys[:2]))
	c.send(t, wire.OpLookup, 10, wire.AppendLookup(nil, 0, keys[2:]))
	c.send(t, wire.OpLookup, 11, wire.AppendLookup(nil, 7, keys[:2]))
	c.send(t, wire.OpDelete, 12, wire.AppendKeys(nil, keys[:2]))
	c.send(t, wire.OpDelete, 13, wire.AppendKeys(nil, []uint64{3, 6}))
	waitQueued(c)
	close(eng.release)

	c.expect(t, wire.OpScanR, 2)
	expectFounds := func(id uint32, want string) {
		t.Helper()
		f := c.expect(t, wire.OpFoundsT, id)
		if _, _, found, err := wire.DecodeFoundsTInto(f.Payload, nil); err != nil || fmt.Sprint(found) != want {
			t.Fatalf("FOUNDST id %d = %v, %v; want %s", id, found, err, want)
		}
	}
	expectVals := func(id uint32, want string) {
		t.Helper()
		f := c.expect(t, wire.OpValues, id)
		if got, _, err := wire.DecodeValuesInto(f.Payload, nil, nil); err != nil || fmt.Sprint(got) != want {
			t.Fatalf("VALUES id %d = %v, %v; want %s", id, got, err, want)
		}
	}
	expectFounds(3, "[true true]")
	expectFounds(4, "[false true]")
	c.expect(t, wire.OpAckT, 5)
	c.expect(t, wire.OpAckT, 6)
	expectFounds(7, "[true true]")
	expectFounds(8, "[true false]")
	expectVals(9, "[12 22]")
	expectVals(10, "[32 42]")
	expectVals(11, "[12 22]")
	expectFounds(12, "[true true]")
	expectFounds(13, "[true false]")
	c.expect(t, wire.OpErr, badID)

	want := []run{{extbuf.BatchCompareSwap, 4}, {extbuf.BatchUpsertTTL, 4}, {extbuf.BatchExpire, 4},
		{extbuf.BatchLookup, 4}, {extbuf.BatchLookup, 2}, {extbuf.BatchDelete, 4}}
	if got := eng.take(); !slices.Equal(got, want) {
		t.Fatalf("the burst ran as %v, want %v", got, want)
	}
}

// TestPipelinedApplyTokenLookup: on a follower, LOOKUPs that carry
// different read tokens do not share an engine call, those with the same
// token do, and a token the node cannot reach in time answers BEHIND to
// its own request only, in its place — the requests around it are served.
func TestPipelinedApplyTokenLookup(t *testing.T) {
	primary := startReplNode(t, "", 0, 0)
	defer primary.stop(t)
	logf, waitQueued := burstEnd(t)
	var eng *runLog
	follower := startReplNodeOn(t, primary.addr, func(s *extbuf.Sharded) server.Engine {
		eng = newRunLog(s)
		return eng
	}, func(cfg *server.Config) {
		cfg.Logf = logf
		cfg.Repl.TokenWait = 100 * time.Millisecond
	})
	defer follower.stop(t)
	if _, err := follower.srv.Follow(primary.addr); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	keys, vals := []uint64{1, 2, 3, 4, 5, 6}, []uint64{10, 20, 30, 40, 50, 60}
	tok, err := dialNode(t, primary.addr).Insert(ctx, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dialNode(t, follower.addr).Lookup(ctx, keys, tok); err != nil || tok.LSN != 6 {
		t.Fatalf("follower at token %d: %v", tok.LSN, err)
	}
	eng.take()

	c := dialRaw(t, follower.addr)
	lookups := []struct {
		token uint64
		keys  []uint64
	}{
		{0, keys[:2]}, {0, keys[2:4]}, // one call
		{3, keys[:2]}, {3, keys[4:]}, // one call
		{6, keys[4:]}, // its own call
		{7, keys[:2]}, // past the stream's end: BEHIND, no call
		{6, keys[:2]}, // its own call
	}
	c.send(t, wire.OpScan, 1, wire.AppendScan(nil, 0, 8))
	for i, l := range lookups {
		c.send(t, wire.OpLookup, uint32(i+2), wire.AppendLookup(nil, l.token, l.keys))
	}
	waitQueued(c)
	close(eng.release)

	c.expect(t, wire.OpScanR, 1)
	for i, l := range lookups {
		id := uint32(i + 2)
		if l.token > tok.LSN {
			if f := c.expect(t, wire.OpErr, id); !strings.HasPrefix(string(f.Payload), wire.ErrTextBehind) {
				t.Fatalf("ERR id %d = %q, want BEHIND", id, f.Payload)
			}
			continue
		}
		f := c.expect(t, wire.OpValues, id)
		got, _, err := wire.DecodeValuesInto(f.Payload, nil, nil)
		if want := fmt.Sprint(l.keys[0]*10, l.keys[1]*10); err != nil || fmt.Sprint(got[0], got[1]) != want {
			t.Fatalf("VALUES id %d = %v, %v; want %s", id, got, err, want)
		}
	}
	c.expect(t, wire.OpErr, badID)
	want := []run{{extbuf.BatchLookup, 4}, {extbuf.BatchLookup, 4}, {extbuf.BatchLookup, 2}, {extbuf.BatchLookup, 2}}
	if got := eng.take(); !slices.Equal(got, want) {
		t.Fatalf("the lookups ran as %v, want %v", got, want)
	}
}
