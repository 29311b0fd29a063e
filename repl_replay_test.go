package extbuf_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extbuf"
	"extbuf/client"
	"extbuf/internal/server"
	"extbuf/internal/wal"
)

// replayNode is one replication-enabled server over a two-shard
// buffered engine, with its state in dir so a test can restart it.
type replayNode struct {
	srv      *server.Server
	eng      *extbuf.Sharded
	addr     string
	serveErr chan error

	logMu sync.Mutex
	logs  []string // every line the server logged
}

// logf is the node's server log: passed on to the test's, and kept for
// waitLogged.
func (n *replayNode) logf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) {
		t.Logf(format, args...)
		n.logMu.Lock()
		n.logs = append(n.logs, fmt.Sprintf(format, args...))
		n.logMu.Unlock()
	}
}

// waitLogged waits until the node has logged a line containing substr.
func (n *replayNode) waitLogged(t *testing.T, substr string) {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(time.Millisecond) {
		n.logMu.Lock()
		for _, line := range n.logs {
			if strings.Contains(line, substr) {
				n.logMu.Unlock()
				return
			}
		}
		n.logMu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("node never logged %q", substr)
		}
	}
}

// startReplayNode boots a node on dir: a primary when follow is empty,
// otherwise a follower replaying from that address. A durable node keeps
// its engine under dir too.
func startReplayNode(t *testing.T, dir, follow string, durable bool) *replayNode {
	t.Helper()
	return startReplayNodeOn(t, dir, follow, durable, nil)
}

// startReplayNodeOn is startReplayNode serving wrap's engine around the
// node's Sharded (nil: the Sharded itself).
func startReplayNodeOn(t *testing.T, dir, follow string, durable bool, wrap func(*extbuf.Sharded) server.Engine) *replayNode {
	t.Helper()
	cfg := extbuf.Config{BlockSize: 16, MemoryWords: 512, ExpectedItems: 1 << 14}
	if durable {
		cfg.Backend, cfg.Path, cfg.CacheBlocks = "file", filepath.Join(dir, "db"), 64
	}
	eng, err := extbuf.NewSharded("buffered", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := &replayNode{eng: eng, serveErr: make(chan error, 1)}
	var served server.Engine = eng
	if wrap != nil {
		served = wrap(eng)
	}
	srv, err := server.NewServer(server.Config{
		Engine: served,
		Logf:   n.logf(t),
		Repl: &server.ReplConfig{
			ShipPath:  filepath.Join(dir, "ship.log"),
			StatePath: filepath.Join(dir, "repl.state"),
			Follow:    follow,
			Heartbeat: 50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.srv, n.addr = srv, lis.Addr().String()
	go func() { n.serveErr <- srv.Serve(lis) }()
	if follow != "" {
		if _, err := srv.Follow(follow); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// stop drains the node, checkpoints and closes its engine.
func (n *replayNode) stop(t *testing.T) {
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

// applied is the node's applied LSN.
func (n *replayNode) applied() uint64 {
	info, _ := n.srv.Info()
	return info.AppliedLSN
}

// metric scrapes one sample off the node's /metrics handler.
func (n *replayNode) metric(t *testing.T, name string) int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	n.srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("metric %s missing", name)
	return 0
}

// insertBlocks inserts count fresh keys starting at base on the node at
// addr, 128 per request, and returns them.
func insertBlocks(t *testing.T, addr string, base uint64, count int) []uint64 {
	t.Helper()
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	return writeBlocks(t, cl.Insert, base, count)
}

// writeBlocks sends count keys starting at base through write (a
// client's Insert or Upsert), 128 per request, and returns them.
func writeBlocks(t *testing.T, write func(context.Context, []uint64, []uint64) (client.ReadToken, error), base uint64, count int) []uint64 {
	t.Helper()
	keys := make([]uint64, count)
	vals := make([]uint64, count)
	for i := range keys {
		keys[i], vals[i] = base+uint64(i), uint64(i)+1
	}
	for off := 0; off < count; off += 128 {
		end := min(off+128, count)
		if _, err := write(context.Background(), keys[off:end], vals[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// waitCaughtUp waits until the follower has applied everything the
// primary has.
func waitCaughtUp(t *testing.T, primary, follower *replayNode) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for follower.applied() < primary.applied() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at lsn %d, primary at %d", follower.applied(), primary.applied())
		}
		time.Sleep(time.Millisecond)
	}
}

// auditOneCopy requires every key to be present on the node exactly
// once: one live copy in the Theorem 2 structure, and a Len that counts
// no key twice.
func auditOneCopy(t *testing.T, n *replayNode, keys []uint64, wantLen int) {
	t.Helper()
	for _, k := range keys {
		if c, ok := extbuf.CopiesForTest(n.eng, k); !ok || c != 1 {
			t.Fatalf("key %d has %d copies on the follower (audited: %v), want 1", k, c, ok)
		}
	}
	if got := n.eng.Len(); got != wantLen {
		t.Fatalf("follower Len = %d, want %d", got, wantLen)
	}
}

// severableProxy forwards TCP connections to target until the test cuts
// them, which a follower behind it sees as a broken stream.
type severableProxy struct {
	lis    net.Listener
	target string
	mu     sync.Mutex
	conns  []net.Conn
}

func startProxy(t *testing.T, target string) *severableProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &severableProxy{lis: lis, target: target}
	t.Cleanup(func() { lis.Close(); p.sever() })
	go func() {
		for {
			in, err := lis.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, in, out)
			p.mu.Unlock()
			go func() { io.Copy(out, in); out.Close() }()
			go func() { io.Copy(in, out); in.Close() }()
		}
	}()
	return p
}

// sever cuts every connection made so far; later ones go through.
func (p *severableProxy) sever() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// TestReplayCatchUpThenLive walks a follower through both replay
// regimes across a reconnect. Records the primary applied before the
// stream connected — the ones a previous stream may already have
// delivered — replay as upserts; records applied after it replay as
// inserts; and either way every key ends up on the follower once.
func TestReplayCatchUpThenLive(t *testing.T) {
	primary := startReplayNode(t, t.TempDir(), "", false)
	defer primary.stop(t)
	proxy := startProxy(t, primary.addr)

	// Applied before the follower exists: catch-up.
	a := insertBlocks(t, primary.addr, 1<<20, 1000)
	follower := startReplayNode(t, t.TempDir(), proxy.lis.Addr().String(), false)
	defer follower.stop(t)
	waitCaughtUp(t, primary, follower)
	if ins, ups := follower.metric(t, "extbuf_repl_replay_inserts_total"), follower.metric(t, "extbuf_repl_replay_upserts_total"); ins != 0 || ups != 1000 {
		t.Fatalf("catch-up replayed %d inserts and %d upserts, want 0 and 1000", ins, ups)
	}

	// Applied while the stream is up: live.
	b := insertBlocks(t, primary.addr, 2<<20, 1000)
	waitCaughtUp(t, primary, follower)
	if ins, ups := follower.metric(t, "extbuf_repl_replay_inserts_total"), follower.metric(t, "extbuf_repl_replay_upserts_total"); ins != 1000 || ups != 1000 {
		t.Fatalf("live region replayed %d inserts and %d upserts in total, want 1000 and 1000", ins, ups)
	}

	// Cut the stream. What the primary applies before the follower is
	// back lies below the new stream's horizon: upserts again. The
	// follower's own position decides where the new stream starts, so
	// nothing already applied is applied twice.
	proxy.sever()
	c := insertBlocks(t, primary.addr, 3<<20, 1000)
	waitCaughtUp(t, primary, follower)
	d := insertBlocks(t, primary.addr, 4<<20, 1000)
	waitCaughtUp(t, primary, follower)
	ins, ups := follower.metric(t, "extbuf_repl_replay_inserts_total"), follower.metric(t, "extbuf_repl_replay_upserts_total")
	if ins+ups != 4000 || ins < 1000 || ins > 3000 {
		// The reconnect lands somewhere inside c or d; only the sum and
		// the bounds are fixed.
		t.Fatalf("replayed %d inserts and %d upserts, want 4000 in all and 1000..3000 inserts", ins, ups)
	}
	var all []uint64
	for _, ks := range [][]uint64{a, b, c, d} {
		all = append(all, ks...)
	}
	auditOneCopy(t, follower, all, len(all))
}

// TestReplayAfterFollowerLostItsShipLog is the crash the catch-up rule
// exists for: a follower whose engine kept what its ship log lost
// subscribes from the shorter log's position and is handed records its
// engine already holds. Below the horizon they replay as upserts and
// land on the copy that is there; replayed as inserts each would leave
// a second copy that no later delete sweeps up.
func TestReplayAfterFollowerLostItsShipLog(t *testing.T) {
	primary := startReplayNode(t, t.TempDir(), "", false)
	defer primary.stop(t)
	keys := insertBlocks(t, primary.addr, 1<<20, 1500)

	dir := t.TempDir()
	follower := startReplayNode(t, dir, primary.addr, true)
	waitCaughtUp(t, primary, follower)
	follower.stop(t) // the engine checkpoints all 1500 keys
	if err := os.Remove(filepath.Join(dir, "ship.log")); err != nil {
		t.Fatal(err)
	}

	follower = startReplayNode(t, dir, primary.addr, true)
	defer follower.stop(t)
	if n := follower.eng.Len(); n != len(keys) {
		t.Fatalf("restarted follower's engine holds %d keys, want %d", n, len(keys))
	}
	waitCaughtUp(t, primary, follower)
	if ins, ups := follower.metric(t, "extbuf_repl_replay_inserts_total"), follower.metric(t, "extbuf_repl_replay_upserts_total"); ins != 0 || ups != int64(len(keys)) {
		t.Fatalf("re-delivery replayed %d inserts and %d upserts, want 0 and %d", ins, ups, len(keys))
	}
	auditOneCopy(t, follower, keys, len(keys))

	// And the stream is live from here on.
	more := insertBlocks(t, primary.addr, 2<<20, 500)
	waitCaughtUp(t, primary, follower)
	if ins := follower.metric(t, "extbuf_repl_replay_inserts_total"); ins != 500 {
		t.Fatalf("%d records replayed as inserts after the catch-up, want 500", ins)
	}
	auditOneCopy(t, follower, append(keys, more...), len(keys)+500)
}

// TestReplayLiveInsertsCostWhatThePrimaryPaid: above the horizon the
// follower runs the primary's operations, not upserts in their place, so
// N fresh inserts cost its table what they cost the primary's — the
// buffered structure's o(1) I/Os each, not an existence probe of every
// level per key.
func TestReplayLiveInsertsCostWhatThePrimaryPaid(t *testing.T) {
	primary := startReplayNode(t, t.TempDir(), "", false)
	defer primary.stop(t)
	follower := startReplayNode(t, t.TempDir(), primary.addr, false)
	defer follower.stop(t)
	// One record to bring the stream up: once the follower has it, the
	// stream's horizon is fixed at or below it and the rest is live.
	insertBlocks(t, primary.addr, 1<<20, 1)
	waitCaughtUp(t, primary, follower)
	ins0 := follower.metric(t, "extbuf_repl_replay_inserts_total")
	p0, f0 := primary.eng.Stats().IOs(), follower.eng.Stats().IOs()

	const n = 20000
	keys := insertBlocks(t, primary.addr, 2<<20, n)
	waitCaughtUp(t, primary, follower)
	if ins := follower.metric(t, "extbuf_repl_replay_inserts_total") - ins0; ins != n {
		t.Fatalf("%d records replayed as inserts, want %d", ins, n)
	}
	pIOs, fIOs := primary.eng.Stats().IOs()-p0, follower.eng.Stats().IOs()-f0
	t.Logf("%d fresh inserts: primary %d model I/Os, follower %d", n, pIOs, fIOs)
	if diff := float64(fIOs-pIOs) / float64(pIOs); diff > 0.05 || diff < -0.05 {
		t.Fatalf("follower spent %d model I/Os on %d replayed inserts, primary %d: %.1f%% apart, want within 5%%",
			fIOs, n, pIOs, 100*diff)
	}
	auditOneCopy(t, follower, keys, n+1)
}

// TestReplayFollowerAheadOfPrimaryStaysIdempotent: a follower whose log
// is longer than the primary's cannot tell which of the primary's
// records it has seen, so the whole stream replays as upserts, and the
// node says so.
func TestReplayFollowerAheadOfPrimaryStaysIdempotent(t *testing.T) {
	dir := t.TempDir()
	old := startReplayNode(t, t.TempDir(), "", false)
	follower := startReplayNode(t, dir, old.addr, true)
	insertBlocks(t, old.addr, 1<<20, 300)
	waitCaughtUp(t, old, follower)
	follower.stop(t)
	old.stop(t)

	// A primary with an empty log: the follower, at lsn 300, is ahead.
	fresh := startReplayNode(t, t.TempDir(), "", false)
	defer fresh.stop(t)
	follower = startReplayNode(t, dir, fresh.addr, true)
	defer follower.stop(t)
	// The follower judges itself ahead from the primary's applied LSN at
	// the moment its stream starts. Hold the primary at lsn 0 until it
	// has: were the dial to land after the primary passed lsn 300, the
	// records above that would rightly replay as inserts.
	follower.waitLogged(t, "replaying the whole stream as upserts")
	insertBlocks(t, fresh.addr, 2<<20, 800)
	waitCaughtUp(t, fresh, follower)
	// The follower takes the primary's records from its own position on
	// (log matching is ROADMAP item 10(a)): 500 of them, none as an insert.
	if ins, ups := follower.metric(t, "extbuf_repl_replay_inserts_total"), follower.metric(t, "extbuf_repl_replay_upserts_total"); ins != 0 || ups != 500 {
		t.Fatalf("replayed %d inserts and %d upserts, want 0 and 500", ins, ups)
	}
}

// poisonKey is the key poisonedStarter refuses while it is broken.
const poisonKey = uint64(0xdead) << 40

// poisonedStarter is a follower's engine that, while broken, refuses to
// start a batch naming poisonKey: an engine call that fails in the
// middle of the replay ring, with calls outstanding ahead of it and more
// started behind it.
type poisonedStarter struct {
	*extbuf.Sharded
	broken  atomic.Bool
	refused atomic.Int64
}

func (e *poisonedStarter) StartBatch(op extbuf.BatchOp, ship bool, keys, vals, vals2 []uint64, found []bool) (*extbuf.BatchCall, error) {
	if e.broken.Load() && slices.Contains(keys, poisonKey) {
		e.refused.Add(1)
		return nil, errors.New("boom: poisoned batch")
	}
	return e.Sharded.StartBatch(op, ship, keys, vals, vals2, found)
}

// TestReplayEngineErrorMidRing: when an engine call of the replay ring
// fails, the stream ends with that error and the ship log ends right
// before the failing run — nothing at or after it is appended, though
// the runs started behind it did apply — and stays there through every
// reconnect that fails the same way. Once the engine heals, the
// re-delivery lands below the new stream's catch-up horizon, so what was
// applied twice is there once.
func TestReplayEngineErrorMidRing(t *testing.T) {
	primary := startReplayNode(t, t.TempDir(), "", false)
	defer primary.stop(t)
	eng := new(poisonedStarter)
	eng.broken.Store(true)
	follower := startReplayNodeOn(t, t.TempDir(), primary.addr, false, func(s *extbuf.Sharded) server.Engine {
		eng.Sharded = s
		return eng
	})
	defer follower.stop(t)

	cl, err := client.Dial(primary.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Upserts, the poison as an insert, then upserts again: the insert is a
	// run of its own, the failing call.
	before := writeBlocks(t, cl.Upsert, 1<<20, 256)
	poisoned := []uint64{poisonKey}
	if _, err := cl.Insert(context.Background(), poisoned, poisoned); err != nil {
		t.Fatal(err)
	}
	after := writeBlocks(t, cl.Upsert, 2<<20, 1024)

	// Two refusals: the first stream's, and a reconnect's.
	follower.waitLogged(t, "boom: poisoned batch")
	for deadline := time.Now().Add(15 * time.Second); eng.refused.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower never retried the poisoned stream")
		}
	}
	if got := follower.applied(); got != uint64(len(before)) {
		t.Fatalf("applied lsn %d with the run at lsn %d failing, want exactly the %d records before it",
			got, len(before)+1, len(before))
	}
	// The runs behind the failing one were started, and waited for: they
	// are in the engine, ahead of the log.
	for _, k := range []uint64{after[0], after[len(after)-1]} {
		waitForKey(t, follower, k)
	}
	if _, ok := follower.eng.Lookup(poisonKey); ok {
		t.Fatal("the refused run is in the engine")
	}

	eng.broken.Store(false)
	waitCaughtUp(t, primary, follower)
	all := append(append(before, poisoned...), after...)
	auditOneCopy(t, follower, all, len(all))
	if n := follower.metric(t, "extbuf_repl_replay_inflight_frames"); n != 0 {
		t.Fatalf("%d frames in flight on a caught-up follower", n)
	}
}

// waitForKey waits until key is in the node's engine.
func waitForKey(t *testing.T, n *replayNode, key uint64) {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := n.eng.Lookup(key); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %d never reached the engine", key)
		}
	}
}

// scanAll pages through the whole engine.
func scanAll(t *testing.T, eng extbuf.Engine) map[uint64]uint64 {
	t.Helper()
	out := make(map[uint64]uint64)
	for cur := uint64(0); cur != extbuf.ScanDone; {
		keys, vals, next, err := eng.Scan(cur, 1024)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			out[k] = vals[i]
		}
		cur = next
	}
	return out
}

// TestReplayPromoteMidStreamLogCoversEngine promotes a follower in the
// middle of a hammered stream — runs started on its engine, frames not
// yet appended — and checks what Stop promises a promotion: the node's
// ship log covers exactly what replication applied to its engine.
// Replaying that log from LSN 1 into a fresh engine reproduces the
// promoted node's contents, and no key is there twice. A replay that
// dropped the started-but-unappended runs would leave the engine ahead
// of the log the node now serves to its own followers.
func TestReplayPromoteMidStreamLogCoversEngine(t *testing.T) {
	primary := startReplayNode(t, t.TempDir(), "", false)
	defer primary.stop(t)
	dir := t.TempDir()
	follower := startReplayNode(t, dir, primary.addr, false)

	const (
		hotKey  = uint64(77)
		writers = 8
	)
	ctx := context.Background()
	stop := make(chan struct{})
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
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// The hot key and a writer-private one, upserted; then a
				// fresh key, inserted: both replay regimes' operations, on
				// both shards, racing in the primary's ship order.
				val := uint64(w)<<32 | i
				if _, err := cl.Upsert(ctx, []uint64{hotKey, uint64(1000 + w)}, []uint64{val, val}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if _, err := cl.Insert(ctx, []uint64{uint64(w+1)<<40 | i}, []uint64{i}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for deadline := time.Now().Add(15 * time.Second); follower.applied() < 2000; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at lsn %d", follower.applied())
		}
	}
	info, err := follower.srv.Promote()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	got := scanAll(t, follower.eng)
	for k := range got {
		if c, ok := extbuf.CopiesForTest(follower.eng, k); !ok || c != 1 {
			t.Fatalf("key %d has %d copies on the promoted node (audited: %v), want 1", k, c, ok)
		}
	}
	follower.stop(t)

	ship, err := wal.OpenShip(filepath.Join(dir, "ship.log"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ship.Close()
	if ship.StartLSN() != 1 || ship.NextLSN()-1 != info.AppliedLSN {
		t.Fatalf("the promoted node's log spans lsn %d..%d, promotion reported %d", ship.StartLSN(), ship.NextLSN()-1, info.AppliedLSN)
	}
	fresh, err := extbuf.NewSharded("buffered", extbuf.Config{BlockSize: 16, MemoryWords: 512, ExpectedItems: 1 << 14}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	recs := make([]wal.Record, 512)
	for cur := uint64(1); ; {
		n, err := ship.Read(cur, recs)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for _, rec := range recs[:n] {
			switch rec.Op {
			case wal.OpInsert:
				err = fresh.Insert(rec.Key, rec.Val)
			case wal.OpUpsert:
				err = fresh.Upsert(rec.Key, rec.Val)
			default:
				t.Fatalf("unexpected %v record at lsn %d", rec.Op, rec.LSN)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		cur += uint64(n)
	}
	if want := scanAll(t, fresh); !maps.Equal(got, want) {
		for k, v := range got {
			if w, ok := want[k]; !ok || w != v {
				t.Errorf("key %d = %d in the promoted engine, %d (present: %v) replaying its log", k, v, w, ok)
				break
			}
		}
		t.Fatalf("the promoted engine holds %d keys, its log replays to %d: they differ", len(got), len(want))
	}
}
