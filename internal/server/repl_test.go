package server_test

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"extbuf"
	"extbuf/client"
	"extbuf/internal/server"
)

// replNode is one replication-enabled server over a mem-backend engine.
type replNode struct {
	srv      *server.Server
	eng      *extbuf.Sharded
	addr     string
	serveErr chan error
}

// startReplNode boots a replication-enabled node. follow="" makes a
// primary; otherwise the node starts as a read-only follower of that
// address (call node.srv.Follow to begin replaying). Short intervals
// throughout so tests run fast.
func startReplNode(t testing.TB, follow string, syncFollowers int, syncTimeout time.Duration) *replNode {
	t.Helper()
	return startReplNodeOn(t, follow, nil, func(cfg *server.Config) {
		cfg.Repl.SyncFollowers, cfg.Repl.SyncTimeout = syncFollowers, syncTimeout
	})
}

// startReplNodeOn is startReplNode serving wrap's engine around the
// node's Sharded (nil: the Sharded itself), with mut's changes to the
// server config (whose Repl is set).
func startReplNodeOn(t testing.TB, follow string, wrap func(*extbuf.Sharded) server.Engine, mut func(*server.Config)) *replNode {
	t.Helper()
	dir := t.TempDir()
	eng, err := extbuf.NewSharded("buffered", extbuf.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var served server.Engine = eng
	if wrap != nil {
		served = wrap(eng)
	}
	cfg := server.Config{Engine: served, Logf: t.Logf, Repl: &server.ReplConfig{
		ShipPath:  filepath.Join(dir, "ship.log"),
		StatePath: filepath.Join(dir, "repl.state"),
		Follow:    follow,
		Heartbeat: 50 * time.Millisecond,
		TokenWait: 300 * time.Millisecond,
	}}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := server.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &replNode{srv: srv, eng: eng, addr: lis.Addr().String(), serveErr: make(chan error, 1)}
	go func() { n.serveErr <- srv.Serve(lis) }()
	return n
}

// stop drains the node gracefully.
func (n *replNode) stop(t testing.TB) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	<-n.serveErr
	if err := n.srv.CloseRepl(); err != nil {
		t.Errorf("close repl: %v", err)
	}
	if err := n.eng.Close(); err != nil {
		t.Errorf("engine close: %v", err)
	}
}

// kill tears the node down ungracefully — connections are severed with
// requests in flight, like a process death (minus losing memory, which
// the e2e harness covers with a real kill -9).
func (n *replNode) kill(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = n.srv.Shutdown(ctx) // expired ctx: forcible close
	<-n.serveErr
	_ = n.srv.CloseRepl()
	_ = n.eng.Close()
}

func dialNode(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, client.Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestReplicationReadYourWrites stands up a primary/follower pair and
// checks the tentpole path end to end: mutations on the primary return
// tokens, token-carrying lookups on the follower see those writes, the
// follower rejects mutations, and both INFO and the STATS replication
// counters reflect the topology.
func TestReplicationReadYourWrites(t *testing.T) {
	primary := startReplNode(t, "", 0, 0)
	defer primary.stop(t)
	follower := startReplNode(t, primary.addr, 0, 0)
	defer follower.stop(t)
	if _, err := follower.srv.Follow(primary.addr); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	pc := dialNode(t, primary.addr)
	fc := dialNode(t, follower.addr)

	keys := make([]uint64, 500)
	vals := make([]uint64, 500)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = uint64(i) * 3
	}
	tok, err := pc.Insert(ctx, keys, vals)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if tok.LSN != 500 {
		t.Fatalf("insert token LSN = %d, want 500", tok.LSN)
	}
	founds, dtok, err := pc.Delete(ctx, keys[:20])
	if err != nil {
		t.Fatalf("Delete: %v", err)
	}
	for i, ok := range founds {
		if !ok {
			t.Fatalf("delete %d missed", i)
		}
	}
	if dtok.LSN != 520 {
		t.Fatalf("delete token LSN = %d, want 520", dtok.LSN)
	}
	tok = tok.Max(dtok)

	// Read-your-writes on the replica: the token forces it to catch up.
	got, found, err := fc.Lookup(ctx, keys, tok)
	if err != nil {
		t.Fatalf("follower Lookup: %v", err)
	}
	for i := range keys {
		if i < 20 {
			if found[i] {
				t.Fatalf("deleted key %d found on follower", keys[i])
			}
			continue
		}
		if !found[i] || got[i] != vals[i] {
			t.Fatalf("key %d on follower: (%d,%v), want (%d,true)", keys[i], got[i], found[i], vals[i])
		}
	}

	// The follower rejects writes with the routable READONLY error.
	if _, err := fc.Insert(ctx, keys[:1], vals[:1]); !client.IsReadOnly(err) {
		t.Fatalf("follower Insert error = %v, want READONLY", err)
	}

	// Roles and positions.
	pi, err := pc.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !pi.Writable || pi.Role != "primary" || pi.AppliedLSN != 520 {
		t.Fatalf("primary info = %+v", pi)
	}
	fi, err := fc.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Writable || fi.Role != "follower" || fi.AppliedLSN != 520 {
		t.Fatalf("follower info = %+v", fi)
	}

	// Replication counters ride the existing STATS payload.
	ps, err := pc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Repl.CurrentLSN != 520 || ps.Repl.FramesShipped == 0 {
		t.Fatalf("primary repl stats = %+v", ps.Repl)
	}
	fs, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Repl.CurrentLSN != 520 || fs.Repl.FramesReplayed == 0 {
		t.Fatalf("follower repl stats = %+v", fs.Repl)
	}
}

// TestReadTokenBehind checks the replica-lag rejection: a follower that
// cannot reach a token's LSN within the bounded wait answers BEHIND
// (for the client to re-route), while a deadline the client sets is
// reported as the context error — the two failure modes that must stay
// distinguishable.
func TestReadTokenBehind(t *testing.T) {
	// A follower of an unreachable primary never applies anything.
	node := startReplNode(t, "127.0.0.1:1", 0, 0)
	defer node.stop(t)
	cl := dialNode(t, node.addr)
	ctx := context.Background()

	_, _, err := cl.Lookup(ctx, []uint64{42}, client.ReadToken{LSN: 10})
	if !client.IsBehind(err) {
		t.Fatalf("stale replica Lookup error = %v, want BEHIND", err)
	}
	var se *client.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("BEHIND should be a ServerError, got %T", err)
	}

	// The same read under a client deadline shorter than the server's
	// token wait fails with the context error, not a ServerError.
	dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	_, _, err = cl.Lookup(dctx, []uint64{42}, client.ReadToken{LSN: 10})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline Lookup error = %v, want DeadlineExceeded", err)
	}
	if errors.As(err, &se) {
		t.Fatalf("deadline error misreported as ServerError: %v", err)
	}

	// A zero token never waits.
	if _, _, err := cl.Lookup(ctx, []uint64{42}, client.ReadToken{}); err != nil {
		t.Fatalf("zero-token Lookup: %v", err)
	}
}

// TestSemiSyncCommit checks the semi-synchronous ack rule: with
// SyncFollowers=1 and no follower, mutations fail after SyncTimeout;
// once a follower subscribes, they are acked again — and only after the
// follower applied them, so its applied horizon covers every ack.
func TestSemiSyncCommit(t *testing.T) {
	primary := startReplNode(t, "", 1, 200*time.Millisecond)
	defer primary.stop(t)
	ctx := context.Background()
	pc := dialNode(t, primary.addr)

	if _, err := pc.Insert(ctx, []uint64{1}, []uint64{10}); err == nil {
		t.Fatal("semi-sync Insert with no follower succeeded")
	} else if client.IsReadOnly(err) || client.IsBehind(err) {
		t.Fatalf("semi-sync timeout mislabeled: %v", err)
	}

	follower := startReplNode(t, primary.addr, 0, 0)
	defer follower.stop(t)
	if _, err := follower.srv.Follow(primary.addr); err != nil {
		t.Fatal(err)
	}

	// The first acked write may race the subscription; retry with
	// upserts (idempotent) until the follower is counted.
	var tok client.ReadToken
	deadline := time.Now().Add(10 * time.Second)
	for {
		var err error
		tok, err = pc.Upsert(ctx, []uint64{2}, []uint64{20})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("semi-sync Upsert never succeeded: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Semi-sync acked means the follower applied it: its horizon must
	// already cover the token, with no waiting.
	fi, err := dialNode(t, follower.addr).Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fi.AppliedLSN < tok.LSN {
		t.Fatalf("follower applied %d behind semi-sync acked token %d", fi.AppliedLSN, tok.LSN)
	}
}

// TestPromotionFailover kills the primary, promotes the follower, and
// checks the promoted node is writable in a bumped epoch with every
// semi-sync-acked write intact.
func TestPromotionFailover(t *testing.T) {
	primary := startReplNode(t, "", 1, 5*time.Second)
	follower := startReplNode(t, primary.addr, 0, 0)
	defer follower.stop(t)
	if _, err := follower.srv.Follow(primary.addr); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	pc := dialNode(t, primary.addr)
	keys := make([]uint64, 200)
	vals := make([]uint64, 200)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = uint64(i) * 7
	}
	// Semi-sync: a nil error means the follower applied it.
	tok, err := pc.Insert(ctx, keys, vals)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}

	primary.kill(t)

	fc := dialNode(t, follower.addr)
	info, err := fc.Promote(ctx)
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if !info.Writable || info.Role != "primary" {
		t.Fatalf("post-promotion info = %+v", info)
	}
	if info.Epoch != 1 {
		t.Fatalf("post-promotion epoch = %d, want 1", info.Epoch)
	}
	if info.AppliedLSN < tok.LSN {
		t.Fatalf("promoted node applied %d, token %d lost", info.AppliedLSN, tok.LSN)
	}

	// Every acked write survived, and the node accepts new ones.
	got, found, err := fc.Lookup(ctx, keys, tok)
	if err != nil {
		t.Fatalf("post-promotion Lookup: %v", err)
	}
	for i := range keys {
		if !found[i] || got[i] != vals[i] {
			t.Fatalf("key %d after failover: (%d,%v), want (%d,true)", keys[i], got[i], found[i], vals[i])
		}
	}
	tok2, err := fc.Upsert(ctx, []uint64{9999}, []uint64{1})
	if err != nil {
		t.Fatalf("post-promotion Upsert: %v", err)
	}
	if tok2.Epoch != 1 {
		t.Fatalf("post-promotion token epoch = %d, want 1", tok2.Epoch)
	}
	if tok2.LSN <= tok.LSN {
		t.Fatalf("post-promotion token LSN %d did not advance past %d", tok2.LSN, tok.LSN)
	}

	// Idempotent: promoting again only reports the identity.
	again, err := fc.Promote(ctx)
	if err != nil || again.Epoch != 1 {
		t.Fatalf("re-promotion = %+v, %v", again, err)
	}
}

// TestClusterFailover drives the failover-aware cluster client: writes
// route to the primary, survive its death once the follower is
// promoted, and the epoch ratchet moves forward.
func TestClusterFailover(t *testing.T) {
	primary := startReplNode(t, "", 1, 5*time.Second)
	follower := startReplNode(t, primary.addr, 0, 0)
	defer follower.stop(t)
	if _, err := follower.srv.Follow(primary.addr); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	cc, err := client.DialCluster([]string{primary.addr, follower.addr}, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if cc.Addr() != primary.addr {
		t.Fatalf("cluster picked %s, want primary %s", cc.Addr(), primary.addr)
	}

	tok, err := cc.Insert(ctx, []uint64{1, 2, 3}, []uint64{10, 20, 30})
	if err != nil {
		t.Fatalf("cluster Insert: %v", err)
	}

	primary.kill(t)
	if _, err := dialNode(t, follower.addr).Promote(ctx); err != nil {
		t.Fatalf("Promote: %v", err)
	}

	// The next write fails over to the promoted follower.
	tok2, err := cc.Upsert(ctx, []uint64{4}, []uint64{40})
	if err != nil {
		t.Fatalf("cluster Upsert after failover: %v", err)
	}
	if cc.Addr() != follower.addr {
		t.Fatalf("cluster still routed at %s after failover", cc.Addr())
	}
	if cc.Epoch() != 1 || tok2.Epoch != 1 {
		t.Fatalf("cluster epoch = %d, token epoch = %d, want 1", cc.Epoch(), tok2.Epoch)
	}

	got, found, err := cc.Lookup(ctx, []uint64{1, 2, 3, 4}, tok.Max(tok2))
	if err != nil {
		t.Fatalf("cluster Lookup after failover: %v", err)
	}
	want := []uint64{10, 20, 30, 40}
	for i, w := range want {
		if !found[i] || got[i] != w {
			t.Fatalf("key %d after failover: (%d,%v), want (%d,true)", i+1, got[i], found[i], w)
		}
	}
}

// TestClientReconnect checks the single-address client heals from a
// server restart: the pool's dead connections are skipped and redialed
// instead of poisoning the client.
func TestClientReconnect(t *testing.T) {
	eng, err := extbuf.NewSharded("buffered", extbuf.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, server.Config{Engine: eng, Logf: t.Logf})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	cl := dialNode(t, addr)
	ctx := context.Background()
	if _, err := cl.Insert(ctx, []uint64{1}, []uint64{10}); err != nil {
		t.Fatal(err)
	}

	// Restart the server on the same address.
	ctxCancel, cancel := context.WithCancel(context.Background())
	cancel()
	_ = srv.Shutdown(ctxCancel)
	<-serveErr
	_ = eng.Close()

	eng2, err := extbuf.NewSharded("buffered", extbuf.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	srv2 := newServer(t, server.Config{Engine: eng2, Logf: t.Logf})
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	go func() { serveErr <- srv2.Serve(lis2) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv2.Shutdown(ctx)
		<-serveErr
	}()

	// The old sockets are dead; the client must redial, not fail forever.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := cl.Upsert(ctx, []uint64{2}, []uint64{20})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n, err := cl.Len(ctx); err != nil || n != 1 {
		t.Fatalf("Len after reconnect = %d, %v; want 1", n, err)
	}
}

// BenchmarkFollowerApply is insert-heavy replay through a real
// follower: a client keeps 16 requests of 128 fresh inserts in flight
// against a primary while a follower tails its ship log over loopback,
// and the clock stops when the follower has applied the last record.
// One iteration is one request; ios/op is the model I/Os the FOLLOWER's
// table spent per request, which is where replaying an insert as an
// insert (the buffered structure's o(1) each) and as an upsert (an
// existence probe first) differ.
func BenchmarkFollowerApply(b *testing.B) {
	primary := startReplNode(b, "", 0, 0)
	defer primary.stop(b)
	follower := startReplNode(b, primary.addr, 0, 0)
	defer follower.stop(b)
	if _, err := follower.srv.Follow(primary.addr); err != nil {
		b.Fatal(err)
	}
	cl, err := client.Dial(primary.addr, client.Options{Conns: 1, Pipeline: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	caughtUp := func() {
		info, _ := primary.srv.Info()
		for {
			if f, _ := follower.srv.Info(); f.AppliedLSN >= info.AppliedLSN {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	// One record to bring the stream up, so every timed one is replayed
	// in the live region.
	if _, err := cl.Insert(ctx, []uint64{1}, []uint64{1}); err != nil {
		b.Fatal(err)
	}
	caughtUp()

	const batch, depth = 128, 16
	var keys, vals [depth][]uint64
	for i := range keys {
		keys[i], vals[i] = make([]uint64, batch), make([]uint64, batch)
	}
	var pendings [depth]*client.Pending
	base := follower.eng.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % depth
		if p := pendings[slot]; p != nil {
			if err := p.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
		for j := range keys[slot] {
			keys[slot][j] = uint64(i+1)*batch + uint64(j) + 1
			vals[slot][j] = uint64(i)
		}
		if pendings[slot], err = cl.GoInsert(keys[slot], vals[slot]); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pendings {
		if p != nil {
			if err := p.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	caughtUp()
	b.StopTimer()
	b.ReportMetric(float64(follower.eng.Stats().IOs()-base.IOs())/float64(b.N), "ios/op")
}

// BenchmarkFollowerApplyMixed is replay of the end-to-end benchmark's
// write stream: two connections each keep 8 requests of 128 operations
// in flight against a primary, cycling INSERT a fresh block, UPSERT it,
// DELETE it, while a follower tails the ship log over loopback; the
// clock stops when the follower has applied the last record. The
// primary's shard workers ship their own shares, so the stream reaches
// the follower as short runs of alternating kinds that mostly name one
// shard each — the shape replay has to keep both of its shards busy on.
// One iteration is one request; records/s is what the follower replayed
// per second and ios/op the model I/Os its table spent per request.
func BenchmarkFollowerApplyMixed(b *testing.B) {
	primary := startReplNode(b, "", 0, 0)
	defer primary.stop(b)
	follower := startReplNode(b, primary.addr, 0, 0)
	defer follower.stop(b)
	if _, err := follower.srv.Follow(primary.addr); err != nil {
		b.Fatal(err)
	}
	const conns, batch, depth = 2, 128, 8
	ctx := context.Background()
	var cls [conns]*client.Client
	for w := range cls {
		cl, err := client.Dial(primary.addr, client.Options{Conns: 1, Pipeline: depth})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		cls[w] = cl
	}
	// One record to bring the stream up, so every timed one is replayed
	// in the live region.
	if _, err := cls[0].Insert(ctx, []uint64{1}, []uint64{1}); err != nil {
		b.Fatal(err)
	}
	caughtUp := func() {
		info, _ := primary.srv.Info()
		for {
			if f, _ := follower.srv.Info(); f.AppliedLSN >= info.AppliedLSN {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	caughtUp()

	base := follower.eng.Stats()
	before, _ := follower.srv.Info()
	b.ReportAllocs()
	b.ResetTimer()
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		go func(w int) {
			cl := cls[w]
			var keys, vals [depth][]uint64
			for i := range keys {
				keys[i], vals[i] = make([]uint64, batch), make([]uint64, batch)
			}
			var pendings [depth]*client.Pending
			// A DELETE is answered with FOUNDS, the others with ACK.
			var deletes [depth]bool
			wait := func(slot int) error {
				switch p := pendings[slot]; {
				case p == nil:
					return nil
				case deletes[slot]:
					_, err := p.Deleted(ctx)
					return err
				default:
					return p.Wait(ctx)
				}
			}
			var err error
			// Connection w sends requests w, w+conns, ...: its i-th is step
			// i%3 of the cycle on its block i/3.
			for i := 0; w+i*conns < b.N && err == nil; i++ {
				slot := i % depth
				if err = wait(slot); err != nil {
					break
				}
				for j := range keys[slot] {
					keys[slot][j] = uint64(w+1)<<40 | uint64(i/3*batch+j)
					vals[slot][j] = uint64(i)
				}
				deletes[slot] = i%3 == 2
				switch i % 3 {
				case 0:
					pendings[slot], err = cl.GoInsert(keys[slot], vals[slot])
				case 1:
					pendings[slot], err = cl.GoUpsert(keys[slot], vals[slot])
				case 2:
					pendings[slot], err = cl.GoDelete(keys[slot])
				}
			}
			for slot := range pendings {
				if err == nil {
					err = wait(slot)
				}
			}
			errs <- err
		}(w)
	}
	for w := 0; w < conns; w++ {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	caughtUp()
	b.StopTimer()
	after, _ := follower.srv.Info()
	b.ReportMetric(float64(after.AppliedLSN-before.AppliedLSN)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(follower.eng.Stats().IOs()-base.IOs())/float64(b.N), "ios/op")
}
