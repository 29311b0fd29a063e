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
	srv := server.New(server.Config{Engine: eng, Logf: logf})
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
// each request depends on the one before it — with the ops the applier
// cannot pipeline (CAS, LOOKUPAT, PING) cutting in between rounds.
func pipelineScript(conn, rounds, batch int) []pipeFrame {
	all := func(ok bool) []bool {
		f := make([]bool, batch)
		for i := range f {
			f[i] = ok
		}
		return f
	}
	var script []pipeFrame
	for r := 0; r < rounds; r++ {
		keys, v1, v2, v3 := make([]uint64, batch), make([]uint64, batch), make([]uint64, batch), make([]uint64, batch)
		for i := range keys {
			keys[i] = uint64(conn)<<40 | uint64(r)<<16 | uint64(i) + 1
			v1[i], v2[i], v3[i] = keys[i]*3, keys[i]*5, keys[i]*7
		}
		zeros := make([]uint64, batch)
		script = append(script,
			pipeFrame{op: wire.OpInsert, payload: wire.AppendKV(nil, keys, v1), wantOp: wire.OpAck},
			pipeFrame{op: wire.OpLookup, payload: wire.AppendKeys(nil, keys), wantOp: wire.OpValues, vals: v1, found: all(true)},
			pipeFrame{op: wire.OpUpsert, payload: wire.AppendKV(nil, keys, v2), wantOp: wire.OpAck},
			pipeFrame{op: wire.OpLookup, payload: wire.AppendKeys(nil, keys), wantOp: wire.OpValues, vals: v2, found: all(true)},
		)
		switch r % 3 {
		case 0:
			// A CAS against the upserted values, then a token lookup:
			// both must see every earlier request of the round applied.
			script = append(script,
				pipeFrame{op: wire.OpCAS, payload: wire.AppendTriples(nil, keys, v2, v3), wantOp: wire.OpFoundsT, found: all(true)},
				pipeFrame{op: wire.OpLookupAt, payload: append(wire.AppendLSN(nil, 0), wire.AppendKeys(nil, keys)...), wantOp: wire.OpValues, vals: v3, found: all(true)},
			)
		case 1:
			script = append(script, pipeFrame{op: wire.OpPing, wantOp: wire.OpAck})
		}
		script = append(script,
			pipeFrame{op: wire.OpDelete, payload: wire.AppendKeys(nil, keys), wantOp: wire.OpFounds, found: all(true)},
			pipeFrame{op: wire.OpLookup, payload: wire.AppendKeys(nil, keys), wantOp: wire.OpValues, vals: zeros, found: all(false)},
			pipeFrame{op: wire.OpDelete, payload: wire.AppendKeys(nil, keys), wantOp: wire.OpFounds, found: all(false)},
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
	case wire.OpFounds:
		found, err = wire.DecodeFoundsInto(f.Payload, nil)
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

func (e refusingStarter) StartBatch(op extbuf.BatchOp, ship bool, keys, vals []uint64, found []bool) (*extbuf.BatchCall, error) {
	if len(keys) > 0 && keys[0] == poisonKey {
		return nil, errPoison
	}
	return e.Engine.StartBatch(op, ship, keys, vals, found)
}

// TestPipelinedApplyErrorInTheMiddle: an engine error answers ERR to the
// request it hit and to no other, and the responses still leave in
// request order — on a Sharded engine, where the failing request arrives
// while an earlier call is outstanding, and on a single table, whose
// calls are complete at submission.
func TestPipelinedApplyErrorInTheMiddle(t *testing.T) {
	script := func(t *testing.T, c *rawConn, release func()) {
		c.send(t, wire.OpUpsert, 1, kv(1, 10))
		c.send(t, wire.OpInsert, 2, kv(poisonKey, 20))
		c.send(t, wire.OpUpsert, 3, kv(3, 30))
		c.send(t, wire.OpLookup, 4, wire.AppendKeys(nil, []uint64{1, poisonKey, 3}))
		release()
		c.expect(t, wire.OpAck, 1)
		if f := c.expect(t, wire.OpErr, 2); !strings.Contains(string(f.Payload), "boom") {
			t.Fatalf("ERR text %q does not carry the engine's error", f.Payload)
		}
		c.expect(t, wire.OpAck, 3)
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
		single, err := extbuf.OpenEngine("buffered", extbuf.Config{})
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
	// The reader logs a frame it rejects as it decodes it; a bad frame at
	// the end of the burst tells the test the whole burst is queued.
	const requests, batch, badID = 24, 16, 99
	queued := make(chan struct{})
	var queuedOnce sync.Once
	logf := func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), fmt.Sprintf("rejected frame id %d", badID)) {
			queuedOnce.Do(func() { close(queued) })
		}
	}
	eng, gate, srv, addr := serveGated(t, nil, logf)
	c := dialRaw(t, addr)

	// Park the applier inside an op it cannot pipeline (UPSERTTTL ships
	// twice: the value, then the deadline), and queue the burst behind
	// it. The kinds alternate, so no two requests share an engine call.
	c.send(t, wire.OpUpsertTTL, 1, wire.AppendTriples(nil, []uint64{1 << 50}, []uint64{1}, []uint64{1 << 60}))
	waitUntil(t, "the applier parked in UPSERTTTL", func() bool { return gate.entered.Load() == 1 })
	keys, vals := make([]uint64, batch), make([]uint64, batch)
	for i := 0; i < requests; i++ {
		for j := range keys {
			keys[j], vals[j] = uint64(i*batch+j+1), uint64(i)
		}
		op := wire.OpInsert
		if i%2 == 1 {
			op = wire.OpUpsert
		}
		c.send(t, op, uint32(i+2), wire.AppendKV(nil, keys, vals))
	}
	c.send(t, wire.Op(250), badID, nil)
	select {
	case <-queued:
	case <-time.After(10 * time.Second):
		t.Fatal("the reader never reached the end of the burst")
	}

	// Let the UPSERTTTL through. The applier now finds the whole burst
	// queued: it starts calls until its ring is full, and every one of
	// them is held in the shard workers.
	gate.release(2)
	c.expect(t, wire.OpAckT, 1)
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
		c.expect(t, wire.OpAck, uint32(i+2))
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
