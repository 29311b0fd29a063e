// Command hashserved serves an extbuf sharded engine over TCP with the
// repository's wire protocol (internal/wire), turning the library into
// a network key/value service.
//
// The engine configuration mirrors hashbench: structure, block size,
// memory budget, backend, shard count and flush policy. With
// -backend file and a named -path the store is durable — mutations are
// only acked to clients after a group-committed write-ahead-log fsync,
// and restarting the server on the same path recovers every
// acknowledged write.
//
// Shutdown: SIGTERM or SIGINT drains gracefully — stop accepting,
// answer everything already received, then run the checkpoint (engine
// Close), so a clean restart replays no log. kill -9 skips all of that
// and exercises recovery instead; acked writes survive either way.
//
// Usage:
//
//	hashserved -addr 127.0.0.1:4090 -structure buffered -shards 4
//	           [-backend mem|file|latency] [-path FILE] [-b 64] [-m 1024]
//	           [-cache 512] [-flush sync|async] [-maxbatch 4096]
//	           [-pipeline 64] [-addrfile FILE] [-drain 30s] [-leakcheck]
//	           [-repl] [-follow ADDR] [-syncfollowers N] [-synctimeout 5s]
//	           [-shipretain N] [-metrics HOST:PORT] [-sweep 1s] [-sweepmax N]
//
// -metrics serves Prometheus text-format counters over HTTP at
// /metrics on a side listener, never the data port. -sweep is the TTL
// sweeper interval: expired keys disappear from reads at their deadline
// regardless, the sweeper is what physically reclaims them (through the
// logged, replicated delete path; followers never sweep).
//
// -addrfile writes the bound address (useful with -addr :0) to a file
// once listening, for scripts. -leakcheck verifies at shutdown that no
// goroutines outlive the drain — the soak CI job runs with it under
// the race detector.
//
// Replication (-repl, implied by -follow or -syncfollowers): the node
// keeps a ship log next to -path and either sources it to followers
// (primary) or, with -follow, starts as a read-only replica streaming
// from that address. -syncfollowers N withholds mutation acks until N
// followers confirm applying them — the semi-synchronous commit that
// makes failover lossless for acked writes. A follower is promoted at
// runtime with the client's Promote call (hashload -promote).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"extbuf"
	"extbuf/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hashserved: ")
	var (
		addr      = flag.String("addr", "127.0.0.1:4090", "TCP listen address")
		addrFile  = flag.String("addrfile", "", "write the bound address to this file once listening")
		structure = flag.String("structure", "buffered", "structure to serve (see extbuf.Structures)")
		shards    = flag.Int("shards", 4, "shard worker count")
		b         = flag.Int("b", 64, "block size in items")
		mWords    = flag.Int64("m", 1024, "per-shard memory budget in words")
		backend   = flag.String("backend", "mem", "block store: mem, file or latency")
		path      = flag.String("path", "", "file backend: backing path (named path = durable)")
		cache     = flag.Int("cache", 0, "file backend: page-cache capacity in blocks (0 = default)")
		fpolicy   = flag.String("flush", extbuf.FlushSync, "engine flush policy (sync or async)")
		walPath   = flag.String("walpath", "", "durable mode: dedicated WAL device path (default: -path plus .wal)")
		recovPar  = flag.Int("recoverypar", 0, "startup recovery parallelism across shards and WAL replay (0 = GOMAXPROCS)")
		expected  = flag.Int("expected", 1<<20, "expected items (pre-sizes fixed-capacity structures)")
		seed      = flag.Uint64("seed", 1, "hash seed")
		maxBatch  = flag.Int("maxbatch", server.DefaultMaxBatch, "max operations per request frame / aggregation")
		pipeline  = flag.Int("pipeline", server.DefaultPipeline, "per-connection in-flight request bound")
		drain     = flag.Duration("drain", 30*time.Second, "graceful drain budget at shutdown")
		leakCheck = flag.Bool("leakcheck", false, "fail shutdown if goroutines outlive the drain")
		quiet     = flag.Bool("quiet", false, "suppress per-connection diagnostics")
		repl      = flag.Bool("repl", false, "enable WAL-shipping replication (implied by -follow / -syncfollowers)")
		follow    = flag.String("follow", "", "start as a read-only follower replaying from this primary address")
		syncFoll  = flag.Int("syncfollowers", 0, "withhold mutation acks until this many followers confirm applying")
		syncTmo   = flag.Duration("synctimeout", 5*time.Second, "semi-sync: bound on the follower-ack wait")
		shipKeep  = flag.Int("shipretain", 0, "follower: truncate the ship log to its newest N records at each durability sync (0: keep all)")
		metrics   = flag.String("metrics", "", "serve Prometheus /metrics on this HTTP address (e.g. 127.0.0.1:9090)")
		sweep     = flag.Duration("sweep", time.Second, "TTL sweep interval (0: lazy expiry only, no space reclamation)")
		sweepMax  = flag.Int("sweepmax", server.DefaultSweepMax, "max expired keys reclaimed per sweep tick")
	)
	flag.Parse()
	if *follow != "" || *syncFoll > 0 {
		*repl = true
	}

	baseline := runtime.NumGoroutine()

	eng, err := extbuf.NewSharded(*structure, extbuf.Config{
		BlockSize:           *b,
		MemoryWords:         *mWords,
		ExpectedItems:       *expected,
		Seed:                *seed,
		Backend:             *backend,
		Path:                *path,
		WALPath:             *walPath,
		CacheBlocks:         *cache,
		FlushPolicy:         *fpolicy,
		RecoveryParallelism: *recovPar,
	}, *shards)
	if err != nil {
		log.Fatalf("open engine: %v", err)
	}
	log.Printf("engine: structure=%s shards=%d backend=%s path=%q recovered_len=%d",
		*structure, eng.NumShards(), *backend, *path, eng.Len())

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	scfg := server.Config{
		Engine:     eng,
		MaxBatch:   *maxBatch,
		Pipeline:   *pipeline,
		Logf:       logf,
		SweepEvery: *sweep,
		SweepMax:   *sweepMax,
	}
	if *repl {
		// The ship log and epoch state live next to the store; a mem
		// backend (no -path) keeps them in a scratch dir — replication
		// still works, it is just not crash-durable, like the engine.
		base := *path
		if base == "" {
			dir, err := os.MkdirTemp("", "hashserved-repl-")
			if err != nil {
				log.Fatalf("repl scratch dir: %v", err)
			}
			defer os.RemoveAll(dir)
			base = dir + "/node"
		}
		scfg.Repl = &server.ReplConfig{
			ShipPath:      base + ".ship",
			StatePath:     base + ".replstate",
			Follow:        *follow,
			SyncFollowers: *syncFoll,
			SyncTimeout:   *syncTmo,
			ShipRetain:    *shipKeep,
		}
	}
	srv, err := server.NewServer(scfg)
	if err != nil {
		log.Fatalf("server: %v", err)
	}
	if *repl {
		role := "primary"
		if *follow != "" {
			role = "follower of " + *follow
		}
		info, _ := srv.Info()
		log.Printf("replication: role=%s epoch=%d applied_lsn=%d syncfollowers=%d",
			role, info.Epoch, info.AppliedLSN, *syncFoll)
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	log.Printf("listening on %s", lis.Addr())
	if *follow != "" {
		if _, err := srv.Follow(*follow); err != nil {
			log.Fatalf("follow %s: %v", *follow, err)
		}
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(lis.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatalf("addrfile: %v", err)
		}
	}

	var msrv *http.Server
	if *metrics != "" {
		mlis, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatalf("metrics listen %s: %v", *metrics, err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		msrv = &http.Server{Handler: mux}
		go msrv.Serve(mlis)
		log.Printf("metrics on http://%s/metrics", mlis.Addr())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	select {
	case sig := <-sigCh:
		log.Printf("%v: draining (budget %v)", sig, *drain)
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if msrv != nil {
		msrv.Shutdown(ctx)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := srv.CloseRepl(); err != nil {
		log.Printf("close repl: %v", err)
	}
	// The PR 3/4 checkpoint: Close flushes every shard's WAL and blocks,
	// commits superblocks and truncates the logs, so the next open
	// replays nothing.
	ckptStart := time.Now()
	if err := eng.Close(); err != nil {
		log.Fatalf("close engine: %v", err)
	}
	log.Printf("checkpointed in %v", time.Since(ckptStart).Round(time.Millisecond))

	if *leakCheck {
		if err := checkGoroutines(baseline); err != nil {
			log.Print(err)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			os.Exit(3)
		}
		log.Printf("leakcheck ok: %d goroutines", runtime.NumGoroutine())
	}
}

// checkGoroutines waits for the goroutine count to settle back to the
// pre-engine baseline (plus the signal handler's helper), reporting an
// error if anything the server or engine started outlives shutdown.
func checkGoroutines(baseline int) error {
	// signal.Notify keeps one helper goroutine alive; allow it.
	limit := baseline + 1
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= limit {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leakcheck: %d goroutines alive, want <= %d", n, limit)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
