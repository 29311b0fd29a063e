package server_test

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"extbuf"
	"extbuf/client"
	"extbuf/internal/server"
	"extbuf/internal/wal"
	"extbuf/internal/wire"
)

// orderNode is a replication node whose state directory is known, so a
// test can inspect its ship log file after a clean stop.
type orderNode struct {
	*replNode
	dir string
}

// startOrderNode is startReplNode with the state directory exposed, an
// optional durable engine, and a ReplConfig hook for retention knobs.
func startOrderNode(t *testing.T, follow string, durable bool, mut func(*server.ReplConfig)) *orderNode {
	t.Helper()
	dir := t.TempDir()
	cfg := extbuf.Config{}
	if durable {
		cfg = extbuf.Config{
			BlockSize: 16, MemoryWords: 512, ExpectedItems: 4096,
			Backend: "file", Path: filepath.Join(dir, "db"), CacheBlocks: 8,
		}
	}
	eng, err := extbuf.NewSharded("buffered", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	rc := &server.ReplConfig{
		ShipPath:  filepath.Join(dir, "ship.log"),
		StatePath: filepath.Join(dir, "repl.state"),
		Follow:    follow,
		Heartbeat: 50 * time.Millisecond,
		TokenWait: 2 * time.Second,
	}
	if mut != nil {
		mut(rc)
	}
	srv, err := server.NewServer(server.Config{Engine: eng, Logf: t.Logf, Repl: rc})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &replNode{srv: srv, eng: eng, addr: lis.Addr().String(), serveErr: make(chan error, 1)}
	go func() { n.serveErr <- srv.Serve(lis) }()
	return &orderNode{replNode: n, dir: dir}
}

// readShipRecords reads a closed ship log file in full.
func readShipRecords(t *testing.T, path string) []wal.Record {
	t.Helper()
	s, err := wal.OpenShip(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var out []wal.Record
	recs := make([]wal.Record, 512)
	cur := s.StartLSN()
	for {
		n, err := s.Read(cur, recs)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		out = append(out, recs[:n]...)
		cur += uint64(n)
	}
}

// TestOneKeyHammerOrderIdentical is the §2a regression at the server
// level: N connections race upserts on one hot key (plus fan-out
// traffic on others) while a follower tails. The shard-sequenced ship
// path must make the ship log a total order of applied mutations, so
// after quiescing (1) the primary's engine value for the hot key equals
// the value of the LAST ship-log record for that key — apply order ==
// ship order — and (2) the follower's log is record-identical to the
// primary's and its engine converged to the same value. Run with -race.
func TestOneKeyHammerOrderIdentical(t *testing.T) {
	primary := startOrderNode(t, "", false, nil)
	follower := startOrderNode(t, primary.addr, false, nil)
	if _, err := follower.srv.Follow(primary.addr); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const (
		hotKey  = uint64(77)
		writers = 8
		rounds  = 300
	)
	var mu sync.Mutex
	var maxTok client.ReadToken
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(primary.addr, client.Options{Conns: 1})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			var last client.ReadToken
			for i := 0; i < rounds; i++ {
				val := uint64(w)<<32 | uint64(i+1)
				// The hot key plus a writer-private key: the batch fans
				// out across shards, so the ship merge is really racing.
				tok, err := cl.Upsert(ctx,
					[]uint64{hotKey, uint64(1000 + w)},
					[]uint64{val, val})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				last = last.Max(tok)
			}
			mu.Lock()
			maxTok = maxTok.Max(last)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	pc := dialNode(t, primary.addr)
	fc := dialNode(t, follower.addr)
	pv, pfound, err := pc.Lookup(ctx, []uint64{hotKey}, client.ReadToken{})
	if err != nil || !pfound[0] {
		t.Fatalf("primary hot-key lookup: %v %v", pfound, err)
	}
	// The token forces the follower to the primary's horizon first.
	fv, ffound, err := fc.Lookup(ctx, []uint64{hotKey}, maxTok)
	if err != nil || !ffound[0] {
		t.Fatalf("follower hot-key lookup: %v %v", ffound, err)
	}
	if fv[0] != pv[0] {
		t.Fatalf("§2a divergence: hot key = %#x on primary, %#x on follower", pv[0], fv[0])
	}

	primary.stop(t)
	follower.stop(t)

	precs := readShipRecords(t, filepath.Join(primary.dir, "ship.log"))
	frecs := readShipRecords(t, filepath.Join(follower.dir, "ship.log"))
	if len(precs) != writers*rounds*2 {
		t.Fatalf("primary shipped %d records, want %d", len(precs), writers*rounds*2)
	}
	if len(frecs) != len(precs) {
		t.Fatalf("follower log has %d records, primary %d", len(frecs), len(precs))
	}
	var lastHot uint64
	for i := range precs {
		if precs[i] != frecs[i] {
			t.Fatalf("logs diverge at lsn %d: primary %+v, follower %+v",
				precs[i].LSN, precs[i], frecs[i])
		}
		if precs[i].Key == hotKey {
			lastHot = precs[i].Val
		}
	}
	if lastHot != pv[0] {
		t.Fatalf("total-order violation: engine settled on %#x but the ship log's last record for the hot key is %#x",
			pv[0], lastHot)
	}
}

// TestChainedReplication stands up primary -> F1 -> F2: F2 subscribes
// to F1's own ship log, so the chain needs exactly one stream from the
// primary. Writes reach F2 through the chain (read tokens ride it),
// and after the primary dies and F1 is promoted, F2 keeps following F1
// and adopts the bumped epoch from the stream.
func TestChainedReplication(t *testing.T) {
	p := startOrderNode(t, "", false, nil)
	f1 := startOrderNode(t, p.addr, false, nil)
	defer f1.stop(t)
	if _, err := f1.srv.Follow(p.addr); err != nil {
		t.Fatal(err)
	}
	f2 := startOrderNode(t, f1.addr, false, nil)
	defer f2.stop(t)
	if _, err := f2.srv.Follow(f1.addr); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	pc := dialNode(t, p.addr)
	keys := make([]uint64, 300)
	vals := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = uint64(i) * 11
	}
	tok, err := pc.Insert(ctx, keys, vals)
	if err != nil {
		t.Fatal(err)
	}

	// Read-your-writes at the end of the chain.
	f2c := dialNode(t, f2.addr)
	got, found, err := f2c.Lookup(ctx, keys, tok)
	if err != nil {
		t.Fatalf("chain-end Lookup: %v", err)
	}
	for i := range keys {
		if !found[i] || got[i] != vals[i] {
			t.Fatalf("key %d at chain end: (%d,%v), want (%d,true)", keys[i], got[i], found[i], vals[i])
		}
	}

	// Failover: kill the primary, promote F1. F2's subscription to F1
	// is untouched — the chain keeps replicating in the new epoch.
	p.kill(t)
	f1c := dialNode(t, f1.addr)
	info, err := f1c.Promote(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 1 || !info.Writable {
		t.Fatalf("promoted F1 info = %+v", info)
	}
	tok2, err := f1c.Upsert(ctx, []uint64{9999}, []uint64{123})
	if err != nil {
		t.Fatalf("post-promotion Upsert on F1: %v", err)
	}
	got2, found2, err := f2c.Lookup(ctx, []uint64{9999}, tok2)
	if err != nil || !found2[0] || got2[0] != 123 {
		t.Fatalf("chained write after promotion: (%v,%v) %v", got2, found2, err)
	}
	fi, err := f2c.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Epoch != 1 {
		t.Fatalf("F2 did not adopt the promotion epoch: %+v", fi)
	}
}

// TestSemiSyncTwoFollowers checks SyncFollowers=2 without primary
// fan-out: with one caught-up follower commits time out; with two they
// are acked, and both followers' applied horizons then cover the token.
func TestSemiSyncTwoFollowers(t *testing.T) {
	p := startOrderNode(t, "", false, func(rc *server.ReplConfig) {
		rc.SyncFollowers = 2
		rc.SyncTimeout = 300 * time.Millisecond
	})
	defer p.stop(t)
	ctx := context.Background()
	pc := dialNode(t, p.addr)

	fa := startOrderNode(t, p.addr, false, nil)
	defer fa.stop(t)
	if _, err := fa.srv.Follow(p.addr); err != nil {
		t.Fatal(err)
	}
	// One follower cannot satisfy a 2-follower barrier.
	if _, err := pc.Insert(ctx, []uint64{1}, []uint64{10}); err == nil {
		t.Fatal("semi-sync-2 Insert with one follower succeeded")
	}

	fb := startOrderNode(t, p.addr, false, nil)
	defer fb.stop(t)
	if _, err := fb.srv.Follow(p.addr); err != nil {
		t.Fatal(err)
	}
	var tok client.ReadToken
	deadline := time.Now().Add(10 * time.Second)
	for {
		var err error
		tok, err = pc.Upsert(ctx, []uint64{2}, []uint64{20})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("semi-sync-2 Upsert never succeeded: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, f := range []*orderNode{fa, fb} {
		fi, err := dialNode(t, f.addr).Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fi.AppliedLSN < tok.LSN {
			t.Fatalf("follower %s applied %d behind semi-sync-2 acked token %d",
				f.addr, fi.AppliedLSN, tok.LSN)
		}
	}
}

// TestFreshSubscriberSemiSync pins the audited fresh-subscriber
// semantics: a newly subscribed follower that never acks (1) cannot
// satisfy a semi-sync barrier — commits still time out when it is the
// only subscriber — and (2) cannot stall one — commits still succeed
// promptly once a caught-up follower acks, with concurrent writers
// racing the subscription under -race.
func TestFreshSubscriberSemiSync(t *testing.T) {
	p := startOrderNode(t, "", false, func(rc *server.ReplConfig) {
		rc.SyncFollowers = 1
		rc.SyncTimeout = 400 * time.Millisecond
	})
	defer p.stop(t)
	ctx := context.Background()
	pc := dialNode(t, p.addr)

	// A raw REPL_SUBSCRIBE that never acks: the freshest possible
	// subscriber, permanently at acked LSN 0.
	silent, err := net.Dial("tcp", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	frame := wire.AppendFrame(nil, wire.OpReplSubscribe, 1, wire.AppendLSN(nil, 1))
	if _, err := silent.Write(frame); err != nil {
		t.Fatal(err)
	}
	// Wait until the subscription registered (the lag gauge sees it).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := pc.Insert(ctx, []uint64{1}, []uint64{10}); err != nil {
			// Expected: the silent subscriber must not satisfy the
			// barrier. The mutation applied locally, so the lag gauge now
			// shows the silent subscriber behind — proof it was counted
			// as subscribed when it failed to satisfy.
			st, serr := pc.Stats(ctx)
			if serr == nil && st.Repl.FollowerLag > 0 {
				break
			}
		} else {
			t.Fatal("semi-sync Insert satisfied by a never-acking fresh subscriber")
		}
		if time.Now().After(deadline) {
			t.Fatal("silent subscription never registered")
		}
	}

	// A real follower catches up and acks; the silent subscriber must
	// not stall the barrier either. Concurrent writers race the
	// subscription handshake — the -race half of the pin.
	f := startOrderNode(t, p.addr, false, nil)
	defer f.stop(t)
	if _, err := f.srv.Follow(p.addr); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(p.addr, client.Options{Conns: 1})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			deadline := time.Now().Add(10 * time.Second)
			ok := 0
			for ok < 20 {
				if _, err := cl.Upsert(ctx, []uint64{uint64(100 + w)}, []uint64{uint64(ok)}); err == nil {
					ok++
					continue
				}
				if time.Now().After(deadline) {
					t.Errorf("writer %d: commits never unblocked with a caught-up follower present", w)
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
}

// TestFollowerShipLogTruncation is the bounded-replica regression: with
// ShipRetain set, the follower's periodic durability sync truncates its
// ship log prefix, so the file shrinks instead of growing forever, and
// STATS exposes the retained window's start.
func TestFollowerShipLogTruncation(t *testing.T) {
	const retain = 200
	p := startOrderNode(t, "", false, nil)
	defer p.stop(t)
	f := startOrderNode(t, p.addr, true, func(rc *server.ReplConfig) {
		rc.ShipRetain = retain
		rc.SyncEvery = 30 * time.Millisecond
	})
	stopped := false
	defer func() {
		if !stopped {
			f.stop(t)
		}
	}()
	if _, err := f.srv.Follow(p.addr); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	pc := dialNode(t, p.addr)
	const total = 3000
	keys := make([]uint64, 100)
	vals := make([]uint64, 100)
	for base := 0; base < total; base += len(keys) {
		for i := range keys {
			keys[i] = uint64(base + i + 1)
			vals[i] = uint64(base+i) * 3
		}
		if _, err := pc.Insert(ctx, keys, vals); err != nil {
			t.Fatal(err)
		}
	}

	// Heartbeats keep driving the follower's sync cadence after the
	// writes stop, so the final truncation lands without more traffic.
	fc := dialNode(t, f.addr)
	wantStart := int64(total + 1 - retain)
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := fc.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Repl.CurrentLSN == total && st.Repl.ShipStartLSN >= wantStart {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never truncated: current=%d shipStart=%d, want start >= %d",
				st.Repl.CurrentLSN, st.Repl.ShipStartLSN, wantStart)
		}
		time.Sleep(30 * time.Millisecond)
	}
	// The primary, with no retention configured, still holds everything.
	st, err := pc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repl.ShipStartLSN != 1 {
		t.Fatalf("primary ship start = %d, want 1", st.Repl.ShipStartLSN)
	}
	// An open ship log carries its zero-filled reserve; a clean stop
	// trims it to its records. 21 bytes per record: the retained window
	// plus header is a small fraction of the 3000-record stream the log
	// would otherwise hold.
	f.stop(t)
	stopped = true
	info, err := os.Stat(filepath.Join(f.dir, "ship.log"))
	if err != nil {
		t.Fatal(err)
	}
	if max := int64(21 * total / 2); info.Size() > max {
		t.Fatalf("follower ship log is %d bytes after truncation, want <= %d", info.Size(), max)
	}
}
