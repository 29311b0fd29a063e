package server_test

import (
	"context"
	"maps"
	"sync/atomic"
	"testing"
	"time"

	"extbuf"
	"extbuf/client"
	"extbuf/internal/server"
)

// holdKey is a key no test writes: heldStarter parks a shard worker on a
// delete of it.
const holdKey = uint64(1)<<63 | 0xb10c

// heldStarter is a follower's engine for the replay tests: a Sharded
// that counts the runs started through it and can hold the worker of
// holdKey's shard, so that whatever replay starts on that shard stays
// outstanding for as long as the test likes.
type heldStarter struct {
	*extbuf.Sharded
	started atomic.Int64
	gate    chan struct{}
}

func newHeldStarter(s *extbuf.Sharded) *heldStarter {
	return &heldStarter{Sharded: s, gate: make(chan struct{})}
}

func (e *heldStarter) StartBatch(op extbuf.BatchOp, ship bool, keys, vals, vals2 []uint64, found []bool) (*extbuf.BatchCall, error) {
	e.started.Add(1)
	return e.Sharded.StartBatch(op, ship, keys, vals, vals2, found)
}

// SetShip wires the server's sink behind a gate for holdKey: a shipping
// call naming it blocks inside its shard worker and ships nothing.
func (e *heldStarter) SetShip(fn extbuf.ShipFunc) {
	if fn == nil {
		e.Sharded.SetShip(nil)
		return
	}
	e.Sharded.SetShip(func(op uint8, keys, vals []uint64) (uint64, error) {
		if len(keys) == 1 && keys[0] == holdKey {
			<-e.gate
			return 0, nil
		}
		return fn(op, keys, vals)
	})
}

// hold parks the worker of holdKey's shard (a shipped delete of an
// absent key changes nothing and still reaches the sink). release lets
// it go.
func (e *heldStarter) hold(t *testing.T) (release func()) {
	t.Helper()
	h, err := e.Sharded.StartBatch(extbuf.BatchDelete, true, []uint64{holdKey}, nil, nil, make([]bool, 1))
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		close(e.gate)
		if _, err := h.Wait(); err != nil {
			t.Errorf("the holding delete: %v", err)
		}
	}
}

// keysOnShards splits keys 1..n by the shard a two-shard engine of the
// tests' configuration puts them on, held being holdKey's shard. A scan
// page never crosses a shard, so the first page of a scan with room for
// everything is one shard's keys exactly.
func keysOnShards(t *testing.T, n int) (held, free []uint64) {
	t.Helper()
	eng := newSharded(t)
	keys := make([]uint64, 0, n+1)
	for k := 1; k <= n; k++ {
		keys = append(keys, uint64(k))
	}
	keys = append(keys, holdKey)
	if err := eng.UpsertBatch(keys, keys); err != nil {
		t.Fatal(err)
	}
	page, _, _, err := eng.Scan(0, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	first := make(map[uint64]bool, len(page))
	for _, k := range page {
		first[k] = true
	}
	for _, k := range keys[:n] {
		if first[k] == first[holdKey] {
			held = append(held, k)
		} else {
			free = append(free, k)
		}
	}
	if len(held) < n/4 || len(free) < n/4 {
		t.Fatalf("keys 1..%d split %d/%d over the shards", n, len(held), len(free))
	}
	return held, free
}

// followerAcked is the highest LSN the primary has heard acknowledged.
func followerAcked(t *testing.T, cl *client.Client) uint64 {
	t.Helper()
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return uint64(st.Repl.CurrentLSN - st.Repl.FollowerLag)
}

// TestReplayPipelineOverlapsShards: replay keeps engine calls outstanding
// across frames, and what overlaps is only the applying. The stream
// alternates runs that name one shard each; the follower's worker for one
// of the shards is held. Runs on the other shard — started behind the
// held one, in later frames — complete in the engine while it is held,
// yet the applied horizon stays below the held run's first LSN and no
// ack above it reaches the primary: records enter the ship log in stream
// order, after everything before them applied.
func TestReplayPipelineOverlapsShards(t *testing.T) {
	heldKeys, freeKeys := keysOnShards(t, 64)
	// One heartbeat in the test's lifetime: the frames in flight are the
	// runs'.
	slowBeat := func(cfg *server.Config) { cfg.Repl.Heartbeat = 2 * time.Second }
	primary := startReplNodeOn(t, "", nil, slowBeat)
	defer primary.stop(t)
	var eng *heldStarter
	follower := startReplNodeOn(t, primary.addr, func(s *extbuf.Sharded) server.Engine {
		eng = newHeldStarter(s)
		return eng
	}, nil)
	defer follower.stop(t)
	if _, err := follower.srv.Follow(primary.addr); err != nil {
		t.Fatal(err)
	}
	release := eng.hold(t)
	released := false
	defer func() {
		if !released {
			release()
		}
	}()

	cl := dialNode(t, primary.addr)
	ctx := context.Background()
	applied := func() uint64 {
		info, _ := follower.srv.Info()
		return info.AppliedLSN
	}
	// onFollower waits until the follower's engine — not its log — holds
	// val for key; ok false waits for its absence.
	onFollower := func(key, val uint64, ok bool) {
		t.Helper()
		waitUntil(t, "the follower's engine applying a run on the free shard", func() bool {
			v, found := eng.Lookup(key)
			return found == ok && (!ok || v == val)
		})
	}

	// Run 1, free shard: applies and is appended.
	ones := make([]uint64, len(freeKeys))
	for i := range ones {
		ones[i] = 1
	}
	if _, err := cl.Upsert(ctx, freeKeys, ones); err != nil {
		t.Fatal(err)
	}
	onFollower(freeKeys[0], 1, true)
	// Run 2, held shard: started, and stuck behind the held worker.
	heldFirst := uint64(len(freeKeys)) + 1
	if _, err := cl.Insert(ctx, heldKeys, heldKeys); err != nil {
		t.Fatal(err)
	}
	// Runs 3 and 4, free shard again, each sent once the one before is in
	// the follower's engine: they arrive in frames of their own, behind the
	// held run's.
	twos := make([]uint64, len(freeKeys))
	for i := range twos {
		twos[i] = 2
	}
	if _, err := cl.Upsert(ctx, freeKeys, twos); err != nil {
		t.Fatal(err)
	}
	onFollower(freeKeys[0], 2, true)
	if _, _, err := cl.Delete(ctx, freeKeys[:1]); err != nil {
		t.Fatal(err)
	}
	onFollower(freeKeys[0], 0, false)

	if n := follower.srv.ReplayInflightForTest(); n < 2 {
		t.Fatalf("%d frames in flight with a run held and two frames started behind it, want >= 2", n)
	}
	if n := eng.started.Load(); n < 4 {
		t.Fatalf("%d runs started, want all 4", n)
	}
	// Later runs are in the engine; the log, the horizon and the acks are
	// not past the held one.
	time.Sleep(50 * time.Millisecond)
	if got := applied(); got >= heldFirst {
		t.Fatalf("applied lsn %d with the run starting at lsn %d still held", got, heldFirst)
	}
	if got := followerAcked(t, cl); got >= heldFirst {
		t.Fatalf("the primary heard lsn %d acknowledged with the run starting at lsn %d still held", got, heldFirst)
	}

	release()
	released = true
	pinfo, _ := primary.srv.Info()
	waitUntil(t, "the follower catching up once the shard is released", func() bool {
		return applied() == pinfo.AppliedLSN && follower.srv.ReplayInflightForTest() == 0
	})
	if v, ok := eng.Lookup(heldKeys[0]); !ok || v != heldKeys[0] {
		t.Fatalf("held-shard key %d = %d, %v on the follower", heldKeys[0], v, ok)
	}
	if _, ok := eng.Lookup(holdKey); ok {
		t.Fatal("the holding key exists")
	}
	waitUntil(t, "the ack for the whole stream", func() bool { return followerAcked(t, cl) == pinfo.AppliedLSN })
}

// contents pages through the whole engine.
func contents(t *testing.T, eng extbuf.Engine) map[uint64]uint64 {
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

// TestReplayThroughDecorator: a Sharded behind a decorator showing only
// extbuf.Engine — the shape of the benchmark's trace decorator — starts
// its runs through the promoted StartBatch, expiries included, and
// reaches the state, the deadlines and the log position of a follower
// serving the Sharded itself.
func TestReplayThroughDecorator(t *testing.T) {
	primary := startReplNode(t, "", 0, 0)
	defer primary.stop(t)
	direct := startReplNode(t, primary.addr, 0, 0)
	defer direct.stop(t)
	// The decorator wraps a counting Sharded: a run replayed by anything
	// but StartBatch would go uncounted.
	var counted *heldStarter
	decorated := startReplNodeOn(t, primary.addr, func(s *extbuf.Sharded) server.Engine {
		counted = newHeldStarter(s)
		return struct{ extbuf.Engine }{counted}
	}, nil)
	defer decorated.stop(t)
	for _, n := range []*replNode{direct, decorated} {
		if _, err := n.srv.Follow(primary.addr); err != nil {
			t.Fatal(err)
		}
	}

	cl := dialNode(t, primary.addr)
	ctx := context.Background()
	const rounds, batch = 40, 32
	keys, vals := make([]uint64, batch), make([]uint64, batch)
	for r := uint64(0); r < rounds; r++ {
		for j := range keys {
			keys[j], vals[j] = 1+r*batch+uint64(j), r
		}
		if _, err := cl.Insert(ctx, keys, vals); err != nil {
			t.Fatal(err)
		}
		for j := range vals {
			vals[j] = r + 100
		}
		if _, err := cl.Upsert(ctx, keys[:batch/2], vals[:batch/2]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Delete(ctx, keys[batch/2:batch/2+4]); err != nil {
			t.Fatal(err)
		}
		if r%8 == 0 {
			if _, _, err := cl.Expire(ctx, keys[:1], []uint64{1 << 62}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pinfo, _ := primary.srv.Info()
	for _, n := range []*replNode{direct, decorated} {
		waitUntil(t, "a follower catching up", func() bool {
			info, _ := n.srv.Info()
			return info.AppliedLSN == pinfo.AppliedLSN
		})
	}
	want := contents(t, primary.eng)
	if len(want) != rounds*(batch-4) {
		t.Fatalf("primary holds %d keys, want %d", len(want), rounds*(batch-4))
	}
	for name, n := range map[string]*replNode{"direct": direct, "decorated": decorated} {
		if got := contents(t, n.eng); !maps.Equal(got, want) {
			t.Fatalf("the %s follower holds %d keys that differ from the primary's %d", name, len(got), len(want))
		}
		if got, want := n.eng.ExpiryStats().Tracked, primary.eng.ExpiryStats().Tracked; got != want {
			t.Fatalf("the %s follower tracks %d deadlines, the primary %d", name, got, want)
		}
	}
	pm, nm := scrape(t, direct.srv), scrape(t, decorated.srv)
	if nm["extbuf_repl_replay_records_total"] != pm["extbuf_repl_replay_records_total"] {
		t.Fatalf("the decorated follower replayed %s records, the direct one %s",
			nm["extbuf_repl_replay_records_total"], pm["extbuf_repl_replay_records_total"])
	}
	// Every round replays as at least three runs — insert, upsert, delete,
	// each between records of other kinds — however frames cut the stream.
	if n := counted.started.Load(); n < 3*rounds {
		t.Fatalf("the decorated follower started %d runs for %d rounds of three kinds", n, rounds)
	}
}

// TestReplayExpireBetweenRuns: an expiry is started like every other
// run, between started runs — and applies in stream order. One frame
// carries upsert K∪J, expire K∪J, upsert K: the last upsert makes K
// persistent again, so exactly J keep a deadline. An expiry applied
// ahead of the first upsert would track nothing, one applied behind the
// second would track K too.
func TestReplayExpireBetweenRuns(t *testing.T) {
	primary := startReplNode(t, "", 0, 0)
	defer primary.stop(t)
	cl := dialNode(t, primary.addr)
	ctx := context.Background()
	const each = 32
	all := make([]uint64, 2*each)
	vals, deadlines := make([]uint64, 2*each), make([]uint64, 2*each)
	for i := range all {
		all[i], vals[i], deadlines[i] = uint64(i+1), 1, 1<<62
	}
	k := all[:each]
	if _, err := cl.Upsert(ctx, all, vals); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Expire(ctx, all, deadlines); err != nil {
		t.Fatal(err)
	}
	twos := make([]uint64, each)
	for i := range twos {
		twos[i] = 2
	}
	if _, err := cl.Upsert(ctx, k, twos); err != nil {
		t.Fatal(err)
	}
	if got := primary.eng.ExpiryStats().Tracked; got != each {
		t.Fatalf("the primary tracks %d deadlines, want %d", got, each)
	}

	// A follower that connects now is sent the whole log as one frame.
	follower := startReplNode(t, primary.addr, 0, 0)
	defer follower.stop(t)
	if _, err := follower.srv.Follow(primary.addr); err != nil {
		t.Fatal(err)
	}
	// AppliedLSN moves inside the ship log's Append, before the frame
	// counter does; the in-flight gauge drops only after the counter.
	waitUntil(t, "the follower catching up", func() bool {
		info, _ := follower.srv.Info()
		return info.AppliedLSN == 5*each && follower.srv.ReplayInflightForTest() == 0
	})
	if got := scrape(t, follower.srv)["extbuf_repl_frames_replayed_total"]; got != "1" {
		t.Fatalf("the stream arrived as %s frames, want 1", got)
	}
	if got := follower.eng.ExpiryStats().Tracked; got != each {
		t.Fatalf("the follower tracks %d deadlines, want the %d of the keys not written again", got, each)
	}
	for _, key := range []uint64{k[0], all[each]} {
		want := uint64(1)
		if key == k[0] {
			want = 2
		}
		if v, ok := follower.eng.Lookup(key); !ok || v != want {
			t.Fatalf("key %d = %d, %v on the follower, want %d", key, v, ok, want)
		}
	}
}
