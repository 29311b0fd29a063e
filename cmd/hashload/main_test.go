package main

import (
	"context"
	"fmt"
	"maps"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"extbuf"
	"extbuf/client"
	"extbuf/internal/server"
)

// writeAckLog writes lines to a fresh acked-write log and returns its path.
func writeAckLog(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ack.log")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseAckLogPrecedence: later lines win. An "i" line (re)sets a
// key's checked value, a "k" line marks it present with any value, and
// a "d" line removes it from both sets until a later line brings it back.
func TestParseAckLogPrecedence(t *testing.T) {
	path := writeAckLog(t,
		"i 1 10", "i 1 11", // the later value is the checked one
		"i 2 20",
		"k 3",
		"i 4 40", "d 4", // deleted: in neither set
		"k 5", "d 5",
		"i 6 60", "k 6", // in both: verify checks it presence-only
		"d 7", "i 7 70", // a delete does not shadow a later insert
		"k 8", "d 8", "k 8",
	)
	live, present, err := parseAckLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[uint64]uint64{1: 11, 2: 20, 6: 60, 7: 70}; !maps.Equal(live, want) {
		t.Fatalf("live = %v, want %v", live, want)
	}
	if want := map[uint64]bool{3: true, 6: true, 8: true}; !maps.Equal(present, want) {
		t.Fatalf("present = %v, want %v", present, want)
	}
}

// TestParseAckLogMalformed: a line that is not one of the three record
// shapes fails the parse, naming its line number.
func TestParseAckLogMalformed(t *testing.T) {
	for _, bad := range []string{"i 1", "i 1 2 3", "i x 2", "i 1 -2", "k", "k 1 2", "d y", "x 1 2", ""} {
		path := writeAckLog(t, "i 1 10", "k 2", bad, "d 1")
		_, _, err := parseAckLog(path)
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Fatalf("line %q: err %v, want a failure naming line 3", bad, err)
		}
	}
	if _, _, err := parseAckLog(filepath.Join(t.TempDir(), "absent.log")); err == nil {
		t.Fatal("a missing log parsed")
	}
}

// node is a replication-enabled server over a mem-backend engine, like
// the ones internal/server's replication tests stand up.
type node struct {
	eng     *extbuf.Sharded
	counted *countingEngine // eng as the server sees it
	addr    string
	srv     *server.Server
	cl      *client.Client
}

// countingEngine is a served engine that counts the keys each batch kind
// reached it with and the entries its scans returned: the keys a load
// run sent, counted on the server's side of the wire.
type countingEngine struct {
	*extbuf.Sharded
	keys    [extbuf.BatchCompareSwap + 1]atomic.Int64
	scanned atomic.Int64
	maxPage atomic.Int64 // a page may pass the asked size by a bucket
}

func (e *countingEngine) StartBatch(op extbuf.BatchOp, ship bool, keys, vals, vals2 []uint64, found []bool) (*extbuf.BatchCall, error) {
	e.keys[op].Add(int64(len(keys)))
	return e.Sharded.StartBatch(op, ship, keys, vals, vals2, found)
}

func (e *countingEngine) Scan(cursor uint64, max int) ([]uint64, []uint64, uint64, error) {
	keys, vals, next, err := e.Sharded.Scan(cursor, max)
	n := int64(len(keys))
	e.scanned.Add(n)
	for m := e.maxPage.Load(); n > m && !e.maxPage.CompareAndSwap(m, n); m = e.maxPage.Load() {
	}
	return keys, vals, next, err
}

// startNode boots a primary (follow "") or a follower replaying follow.
func startNode(t *testing.T, follow string) *node {
	t.Helper()
	eng, err := extbuf.NewSharded("buffered", extbuf.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	counted := &countingEngine{Sharded: eng}
	srv, err := server.NewServer(server.Config{Engine: counted, Logf: t.Logf, Repl: &server.ReplConfig{
		ShipPath:  filepath.Join(dir, "ship.log"),
		StatePath: filepath.Join(dir, "repl.state"),
		Follow:    follow,
		Heartbeat: 50 * time.Millisecond,
		TokenWait: 300 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	n := &node{eng: eng, counted: counted, addr: lis.Addr().String(), srv: srv}
	if follow != "" {
		if _, err := srv.Follow(follow); err != nil {
			t.Fatal(err)
		}
	}
	if n.cl, err = client.Dial(n.addr, client.Options{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-served
		srv.CloseRepl()
		eng.Close()
	})
	return n
}

// load inserts keys 1..n with value 10*key and returns the acked-write
// log lines hashload writes for them.
func load(t *testing.T, cl *client.Client, n int) []string {
	t.Helper()
	keys, vals := make([]uint64, n), make([]uint64, n)
	lines := make([]string, n)
	for i := range keys {
		keys[i], vals[i] = uint64(i+1), uint64(10*(i+1))
		lines[i] = fmt.Sprintf("i %d %d", keys[i], vals[i])
	}
	if _, err := cl.Insert(context.Background(), keys, vals); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestVerify: a log the server holds passes; a log naming a key the
// server lost, or a value it does not hold, fails.
func TestVerify(t *testing.T) {
	n := startNode(t, "")
	lines := load(t, n.cl, 40)
	const batch = 16 // several lookup batches per set
	if err := verify(n.cl, writeAckLog(t, append(lines, "k 5", "d 41", "k 7", "i 7 999")...), batch); err != nil {
		t.Fatalf("clean log: %v", err)
	}
	for name, planted := range map[string]string{
		"missing key":    "i 1000 1",
		"missing key, k": "k 1000",
		"wrong value":    "i 12 121",
	} {
		err := verify(n.cl, writeAckLog(t, append(lines, planted)...), batch)
		if err == nil || !strings.Contains(err.Error(), "acked-write loss") {
			t.Fatalf("%s: err %v, want acked-write loss", name, err)
		}
	}
}

// TestDiffConverged: a primary and a follower that applied the same
// stream pass the diff; one key changed behind the follower's stream —
// both nodes still report the same applied LSN — fails it.
func TestDiffConverged(t *testing.T) {
	primary := startNode(t, "")
	follower := startNode(t, primary.addr)
	path := writeAckLog(t, append(load(t, primary.cl, 40), "k 41", "d 3")...)
	if err := diffConverged(primary.cl, follower.cl, path, 16); err != nil {
		t.Fatalf("converged pair: %v", err)
	}
	if err := follower.eng.Upsert(17, 1); err != nil {
		t.Fatal(err)
	}
	if err := diffConverged(primary.cl, follower.cl, path, 16); err == nil || !strings.Contains(err.Error(), "1 of 40 keys differ") {
		t.Fatalf("diverged pair: err %v, want 1 of 40 keys differing", err)
	}
	if err := follower.eng.Upsert(17, 170); err != nil {
		t.Fatal(err)
	}
	if err := primary.eng.Upsert(41, 1); err != nil {
		t.Fatal(err)
	}
	if err := diffConverged(primary.cl, follower.cl, path, 16); err == nil || !strings.Contains(err.Error(), "1 of 40 keys differ") {
		t.Fatalf("a key present on one node only: err %v, want 1 of 40 keys differing", err)
	}
}

// modeRun is one mode of the load loop: the flags that select its mix,
// as main reads them.
type modeRun struct {
	ycsb                            string
	overlap                         int
	lookupFrac, deleteFrac, casFrac float64
	ttlFrac                         float64
	zipf, replica, acklog           bool
}

// drive runs m for about a second against a fresh primary (and, with
// m.replica, a follower of it), failing the test unless the run ended
// with no errors and its connection up. It returns the result, the
// nodes and the acked-write log's path ("" without m.acklog).
func drive(t *testing.T, m modeRun) (res result, primary, follower *node, ackPath string) {
	t.Helper()
	primary = startNode(t, "")
	var rcl *client.Client
	if m.replica {
		follower = startNode(t, primary.addr)
		rcl = follower.cl
	}
	if m.acklog {
		ackPath = filepath.Join(t.TempDir(), "ack.log")
	}
	mix, err := newMix(m.ycsb, modeRecords, m.overlap, m.lookupFrac, m.deleteFrac, m.casFrac)
	if err != nil {
		t.Fatal(err)
	}
	res, _ = run(primary.cl, rcl, config{
		workers:  modeWorkers,
		batch:    modeBatch,
		duration: time.Second,
		seed:     1,
		mix:      mix,
		zipf:     m.zipf || m.ycsb != "",
		ttlFrac:  m.ttlFrac,
		ackPath:  ackPath,
	})
	if res.fatal != nil || res.errors != 0 {
		t.Fatalf("run: %d errors, connection error %v", res.errors, res.fatal)
	}
	return res, primary, follower, ackPath
}

const (
	modeWorkers = 4
	modeBatch   = 32
	modeRecords = 2000 // YCSB preload
)

// checkOps fails unless the run's ops count the key operations the
// primary served: every keyed request's keys and every scan page's
// entries, less the preload and the compare-swap half of each
// read-modify-write (which counts its keys once, at its read). Each
// worker may have had one request in flight when the deadline abandoned
// it, and the server may still have applied that one.
func checkOps(t *testing.T, res result, primary *node, preload int64, rmw bool) {
	t.Helper()
	var ops int64
	for _, n := range res.ops {
		ops += n
	}
	e := primary.counted
	sent := e.scanned.Load()
	for op := range e.keys {
		if !rmw || extbuf.BatchOp(op) != extbuf.BatchCompareSwap {
			sent += e.keys[op].Load()
		}
	}
	sent -= preload
	slack := modeWorkers * max(modeBatch, e.maxPage.Load())
	if ops == 0 || ops > sent || sent > ops+slack {
		t.Fatalf("ops = %d, want the %d key operations sent (less up to %d in flight at the deadline)", ops, sent, slack)
	}
}

// TestModes drives the load loop in each of its modes and checks the
// claims each makes: the owned mix's acked-write log verifies, the
// contended mode's replica honours every token and converges, and the
// YCSB mixes run clean. In every mode ops counts key operations.
func TestModes(t *testing.T) {
	t.Run("owned", func(t *testing.T) {
		res, primary, _, ackPath := drive(t, modeRun{
			lookupFrac: 0.3, deleteFrac: 0.1, casFrac: 0.1, ttlFrac: 0.25,
			zipf: true, replica: true, acklog: true,
		})
		checkOps(t, res, primary, 0, false)
		if res.tokenChecks == 0 || res.tokenViols != 0 {
			t.Fatalf("%d token checks, %d violations; want some, none", res.tokenChecks, res.tokenViols)
		}
		if err := verify(primary.cl, ackPath, modeBatch); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("overlap", func(t *testing.T) {
		res, primary, follower, ackPath := drive(t, modeRun{overlap: 512, zipf: true, replica: true, acklog: true})
		checkOps(t, res, primary, 0, false)
		if res.tokenChecks == 0 || res.tokenViols != 0 {
			t.Fatalf("%d token checks, %d violations; want some, none", res.tokenChecks, res.tokenViols)
		}
		if err := diffConverged(primary.cl, follower.cl, ackPath, modeBatch); err != nil {
			t.Fatal(err)
		}
	})
	for _, w := range []string{"A", "B", "C", "D", "E", "F"} {
		t.Run("ycsb-"+w, func(t *testing.T) {
			res, primary, _, _ := drive(t, modeRun{ycsb: w})
			checkOps(t, res, primary, modeRecords, w == "F")
		})
	}
}
