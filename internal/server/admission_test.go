package server_test

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"extbuf/internal/wal"
	"extbuf/internal/wire"
)

// TestReplBatchOnClientConnRejected: a REPLBATCH frame is what a
// follower's own stream reads, never a request. Sent on an ordinary
// client connection — to a primary or to a follower, shaped as the
// primary's next frame would be — it is answered with ERR in its place,
// the connection keeps serving, and neither the engine nor the ship log
// changes.
func TestReplBatchOnClientConnRejected(t *testing.T) {
	primary := startReplNode(t, "", 0, 0)
	defer primary.stop(t)
	follower := startReplNode(t, primary.addr, 0, 0)
	defer follower.stop(t)
	if _, err := follower.srv.Follow(primary.addr); err != nil {
		t.Fatal(err)
	}
	cl := dialNode(t, primary.addr)
	if _, err := cl.Upsert(context.Background(), []uint64{1}, []uint64{10}); err != nil {
		t.Fatal(err)
	}
	pinfo, _ := primary.srv.Info()
	waitUntil(t, "the follower catching up", func() bool {
		info, _ := follower.srv.Info()
		return info.AppliedLSN == pinfo.AppliedLSN
	})

	for name, n := range map[string]*replNode{"primary": primary, "follower": follower} {
		before, _ := n.srv.Info()
		nc, err := net.Dial("tcp", n.addr)
		if err != nil {
			t.Fatal(err)
		}
		recs := []wire.ReplRec{
			{Op: uint8(wal.OpInsert), Key: 2, Val: 20},
			{Op: uint8(wal.OpUpsert), Key: 1, Val: 11},
		}
		frames := wire.AppendFrame(nil, wire.OpReplBatch, 7,
			wire.AppendReplBatch(nil, before.Epoch, before.AppliedLSN+1, recs))
		frames = wire.AppendFrame(frames, wire.OpLen, 8, nil)
		if _, err := nc.Write(frames); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		r := wire.NewReader(bufio.NewReader(nc))
		f, err := r.Next()
		if err != nil || f.Op != wire.OpErr || f.ID != 7 {
			t.Fatalf("%s: REPLBATCH answered with %v id %d (%v), want ERR id 7", name, f.Op, f.ID, err)
		}
		f, err = r.Next()
		if err != nil || f.Op != wire.OpCount || f.ID != 8 {
			t.Fatalf("%s: LEN behind it answered with %v id %d (%v), want COUNT id 8", name, f.Op, f.ID, err)
		}
		if got, err := wire.DecodeCount(f.Payload); err != nil || got != 1 {
			t.Fatalf("%s: LEN = %d (%v), want 1", name, got, err)
		}
		nc.Close()

		if after, _ := n.srv.Info(); after.AppliedLSN != before.AppliedLSN {
			t.Fatalf("%s: applied lsn %d after the frame, %d before", name, after.AppliedLSN, before.AppliedLSN)
		}
		if got := n.eng.Len(); got != 1 {
			t.Fatalf("%s: %d keys after the frame, want 1", name, got)
		}
		if v, ok := n.eng.Lookup(1); !ok || v != 10 {
			t.Fatalf("%s: key 1 = %d, %v after the frame, want 10", name, v, ok)
		}
		if _, ok := n.eng.Lookup(2); ok {
			t.Fatalf("%s: key 2, named only by the frame, exists", name)
		}
	}
}
