package server_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extbuf/internal/server"
	"extbuf/internal/wire"
)

// gatedEngine is countingEngine with a Sync the test holds: every call
// blocks until the test hands it a result on gate, or calls open to let
// this and all further ones through. applied counts the mutation calls
// the engine has applied — its ship sink hears each from the shard
// worker that applied it — which is how a test sees apply running ahead
// of the barrier.
type gatedEngine struct {
	countingEngine
	gate     chan error
	openOnce sync.Once
	applied  atomic.Int64
}

func (e *gatedEngine) open() { e.openOnce.Do(func() { close(e.gate) }) }

func (e *gatedEngine) Sync() error {
	e.syncs.Add(1)
	return <-e.gate
}

// rawConn speaks the wire protocol without the client, so a test sees
// exactly which frames have reached the socket and when.
type rawConn struct {
	nc     net.Conn
	frames chan wire.Frame // responses, payloads copied; closed at EOF
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &rawConn{nc: nc, frames: make(chan wire.Frame, 64)}
	t.Cleanup(func() { nc.Close() })
	go func() {
		defer close(c.frames)
		r := wire.NewReader(nc)
		for {
			f, err := r.Next()
			if err != nil {
				return
			}
			f.Payload = append([]byte(nil), f.Payload...)
			c.frames <- f
		}
	}()
	return c
}

func (c *rawConn) send(t *testing.T, op wire.Op, id uint32, payload []byte) {
	t.Helper()
	if _, err := c.nc.Write(wire.AppendFrame(nil, op, id, payload)); err != nil {
		t.Fatal(err)
	}
}

// expect reads the next response and checks its op and id.
func (c *rawConn) expect(t *testing.T, op wire.Op, id uint32) wire.Frame {
	t.Helper()
	select {
	case f, ok := <-c.frames:
		if !ok {
			t.Fatalf("connection closed, want %v id %d", op, id)
		}
		if f.Op != op || f.ID != id {
			t.Fatalf("response %v id %d (%q), want %v id %d", f.Op, f.ID, f.Payload, op, id)
		}
		return f
	case <-time.After(10 * time.Second):
		t.Fatalf("no response, want %v id %d", op, id)
	}
	panic("unreachable")
}

// quiet checks that nothing reaches the socket for a while.
func (c *rawConn) quiet(t *testing.T, why string) {
	t.Helper()
	select {
	case f, ok := <-c.frames:
		if ok {
			t.Fatalf("response %v id %d reached the socket %s", f.Op, f.ID, why)
		}
		t.Fatalf("connection closed %s", why)
	case <-time.After(50 * time.Millisecond):
	}
}

func kv(key, val uint64) []byte { return wire.AppendKV(nil, []uint64{key}, []uint64{val}) }
func keyOf(key uint64) []byte   { return wire.AppendKeys(nil, []uint64{key}) }

// lookupOf is the payload of a plain (token 0) one-key LOOKUP.
func lookupOf(key uint64) []byte { return wire.AppendLookup(nil, 0, []uint64{key}) }

// expectValue checks a one-key VALUES response.
func (c *rawConn) expectValue(t *testing.T, id uint32, val uint64, found bool) {
	t.Helper()
	f := c.expect(t, wire.OpValues, id)
	vals, oks, err := wire.DecodeValuesInto(f.Payload, nil, nil)
	if err != nil || len(vals) != 1 || vals[0] != val || oks[0] != found {
		t.Fatalf("VALUES id %d = %v %v, %v; want [%d] [%v]", id, vals, oks, err, val, found)
	}
}

// startGated serves a gatedEngine on loopback; the test's cleanup opens
// the gate and drains the server.
func startGated(t *testing.T) (*gatedEngine, *server.Server, string) {
	t.Helper()
	eng := &gatedEngine{countingEngine: countingEngine{Sharded: newSharded(t)}, gate: make(chan error)}
	// The tests' mutations name one key each: one shard, one sink call.
	eng.Sharded.SetShip(func(op uint8, keys, vals []uint64) (uint64, error) {
		eng.applied.Add(1)
		return 0, nil
	})
	srv := newServer(t, server.Config{Engine: eng, Logf: t.Logf})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	t.Cleanup(func() {
		eng.open()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != server.ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return eng, srv, lis.Addr().String()
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestAckStageOverlapsApplyWithSync pins the two invariants the ack
// stage lives by, and the overlap it exists for: (a) no mutation
// response reaches the socket before its covering Sync returns — nor
// does anything queued behind it, since responses keep request order —
// and (b) request N+1 is applied while N's Sync is still blocked.
func TestAckStageOverlapsApplyWithSync(t *testing.T) {
	eng, _, addr := startGated(t)
	c := dialRaw(t, addr)

	c.send(t, wire.OpInsert, 1, kv(1, 10))
	waitUntil(t, "Sync for request 1 started", func() bool { return eng.syncs.Load() == 1 })

	// (b) Request 2 is a different kind, so it is its own engine call:
	// it must complete with request 1's Sync still held.
	c.send(t, wire.OpUpsert, 2, kv(2, 20))
	c.send(t, wire.OpLookup, 3, lookupOf(2))
	waitUntil(t, "request 2 applied during request 1's Sync", func() bool { return eng.applied.Load() == 2 })
	if n := eng.syncs.Load(); n != 1 {
		t.Fatalf("%d Syncs started while the first is held, want 1", n)
	}

	// (a) Nothing is on the socket: not ack 1, whose Sync has not
	// returned; not ack 2, whose Sync has not started; not the lookup,
	// which must not overtake them.
	c.quiet(t, "before the covering Sync returned")

	eng.gate <- nil // wave 1 covers request 1 only: request 2 was applied after it started
	c.expect(t, wire.OpAckT, 1)
	waitUntil(t, "Sync for request 2 started", func() bool { return eng.syncs.Load() == 2 })
	c.quiet(t, "before request 2's covering Sync returned")
	eng.gate <- nil
	c.expect(t, wire.OpAckT, 2)
	c.expectValue(t, 3, 20, true)
}

// TestAckStageFailedWave checks (c): a failing wave answers ERR to
// exactly the mutations it covered — not to the wave before, not to
// the wave after, not to the lookups interleaved with them — and every
// response still leaves in request order.
func TestAckStageFailedWave(t *testing.T) {
	boom := errors.New("boom: wal fsync failed")

	t.Run("later waves unaffected", func(t *testing.T) {
		eng, _, addr := startGated(t)
		c := dialRaw(t, addr)
		// Wave 1 covers request 1 and fails; requests 2-5 are applied
		// during it and ride later waves, which succeed.
		c.send(t, wire.OpInsert, 1, kv(1, 10))
		waitUntil(t, "wave 1 started", func() bool { return eng.syncs.Load() == 1 })
		c.send(t, wire.OpLookup, 2, lookupOf(1))
		c.send(t, wire.OpUpsert, 3, kv(3, 30))
		c.send(t, wire.OpLookup, 4, lookupOf(3))
		c.send(t, wire.OpDelete, 5, keyOf(1))
		waitUntil(t, "requests 3 and 5 applied", func() bool { return eng.applied.Load() == 3 })
		eng.gate <- boom
		eng.open()
		if f := c.expect(t, wire.OpErr, 1); !strings.Contains(string(f.Payload), "boom") {
			t.Fatalf("ERR text %q does not carry the wave's error", f.Payload)
		}
		c.expectValue(t, 2, 10, true) // a refused ack leaves the insert applied
		c.expect(t, wire.OpAckT, 3)
		c.expectValue(t, 4, 30, true)
		c.expect(t, wire.OpFoundsT, 5)
	})

	t.Run("lookups inside the failed wave", func(t *testing.T) {
		eng, _, addr := startGated(t)
		c := dialRaw(t, addr)
		c.send(t, wire.OpUpsert, 6, kv(6, 60))
		waitUntil(t, "wave 1 started", func() bool { return eng.syncs.Load() == 1 })
		c.send(t, wire.OpLookup, 7, lookupOf(6))
		c.send(t, wire.OpInsert, 8, kv(8, 80))
		c.send(t, wire.OpLookup, 9, lookupOf(8))
		waitUntil(t, "request 8 applied", func() bool { return eng.applied.Load() == 2 })
		eng.gate <- nil
		c.expect(t, wire.OpAckT, 6)
		// The next Sync is request 8's, wherever the burst boundaries fell:
		// a burst of lookups alone runs no barrier.
		eng.gate <- boom
		c.expectValue(t, 7, 60, true)
		c.expect(t, wire.OpErr, 8)
		c.expectValue(t, 9, 80, true)
		if n := eng.syncs.Load(); n != 2 {
			t.Fatalf("%d Syncs, want 2: one per wave with a mutation in it", n)
		}
	})
}

// TestAckStageShutdownAnswersApplied checks (d): a drain answers every
// request that was applied, however far its ack was from committed.
func TestAckStageShutdownAnswersApplied(t *testing.T) {
	eng, srv, addr := startGated(t)
	c := dialRaw(t, addr)

	c.send(t, wire.OpInsert, 1, kv(1, 10))
	waitUntil(t, "Sync for request 1 started", func() bool { return eng.syncs.Load() == 1 })
	c.send(t, wire.OpUpsert, 2, kv(2, 20))
	c.send(t, wire.OpDelete, 3, keyOf(1))
	waitUntil(t, "all three requests applied", func() bool { return eng.applied.Load() == 3 })

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	c.quiet(t, "during a drain whose Sync is still held")
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) with applied requests unanswered", err)
	default:
	}
	eng.open()
	c.expect(t, wire.OpAckT, 1)
	c.expect(t, wire.OpAckT, 2)
	c.expect(t, wire.OpFoundsT, 3)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if f, ok := <-c.frames; ok {
		t.Fatalf("frame %v id %d after the drain", f.Op, f.ID)
	}
}

// TestAckStageSemiSyncTimeout checks (e): with semi-sync on and no
// follower to confirm, the ack is withheld for the whole timeout — and
// so is the read behind it — then the mutation is answered ERR and the
// read as usual.
func TestAckStageSemiSyncTimeout(t *testing.T) {
	primary := startReplNode(t, "", 1, 300*time.Millisecond)
	defer primary.stop(t)
	c := dialRaw(t, primary.addr)

	c.send(t, wire.OpInsert, 1, kv(1, 10))
	c.send(t, wire.OpLookup, 2, lookupOf(1))
	c.quiet(t, "before any follower confirmed the write")
	if f := c.expect(t, wire.OpErr, 1); !strings.Contains(string(f.Payload), "follower") {
		t.Fatalf("ERR text %q, want the semi-sync timeout", f.Payload)
	}
	c.expectValue(t, 2, 10, true)

	// A connection that only reads is not held up by anyone's barrier.
	c.send(t, wire.OpLookup, 3, lookupOf(1))
	c.expectValue(t, 3, 10, true)
}
