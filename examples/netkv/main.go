// netkv: the serving layer end to end, in one process. Boots a
// hashserved-equivalent server (internal/server) over a durable
// 4-shard engine on a loopback listener, drives it with the pooled
// pipelined client the way a remote application would, prints the
// engine and buffer-pool counters fetched over the wire (STATS), then
// drains the server gracefully — the SIGTERM path of cmd/hashserved —
// and reopens the engine to show the checkpoint took.
//
// The one line to notice: an insert's Wait returning nil MEANS the batch
// is WAL-durable on disk (the server group-commits the ack behind an
// engine Sync), which is why the reopened engine must report every
// acked key.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"extbuf"
	"extbuf/client"
	"extbuf/internal/server"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "netkv-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "kv")

	// Server side: a durable sharded engine behind the wire protocol.
	eng, err := extbuf.NewSharded("buffered", extbuf.Config{
		Backend: "file",
		Path:    path,
	}, 4)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.NewServer(server.Config{Engine: eng})
	if err != nil {
		log.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(lis)
	addr := lis.Addr().String()
	fmt.Println("serving on", addr)

	// Client side: pool of 2 connections, pipelined.
	cl, err := client.Dial(addr, client.Options{Conns: 2, Pipeline: 32})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	const n = 50000
	const batch = 256
	keys := make([]uint64, 0, batch)
	vals := make([]uint64, 0, batch)
	start := time.Now()
	var pending []*client.Pending
	for k := uint64(1); k <= n; k++ {
		keys = append(keys, k)
		vals = append(vals, k*3)
		if len(keys) == batch || k == n {
			// Async: keep many batches in flight; the server aggregates
			// them into engine-sized fan-outs.
			p, err := cl.GoInsert(keys, vals)
			if err != nil {
				log.Fatal(err)
			}
			pending = append(pending, p)
			keys, vals = keys[:0], vals[:0]
		}
	}
	for _, p := range pending {
		if err := p.Wait(ctx); err != nil { // nil = applied AND WAL-durable
			log.Fatal(err)
		}
	}
	fmt.Printf("inserted %d keys in %v (acked durable)\n", n, time.Since(start).Round(time.Millisecond))

	got, found, err := cl.Lookup(ctx, []uint64{1, 777, n, n + 1}, client.ReadToken{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookups over the wire: 1->%d(%v) 777->%d(%v) %d->%d(%v) miss->(%v)\n",
		got[0], found[0], got[1], found[1], n, got[2], found[2], found[3])

	st, err := cl.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("STATS: len=%d model I/Os=%d wal fsyncs=%d pool hits=%d misses=%d\n",
		st.Len, st.Ops.IOs(), st.Store.WALFsyncs, st.Store.CacheHits, st.Store.CacheMisses)

	// Graceful drain (what SIGTERM does in cmd/hashserved), then the
	// checkpoint, then prove the data's all there on a cold reopen.
	cl.Close()
	shutdownCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}

	re, err := extbuf.NewSharded("buffered", extbuf.Config{Backend: "file", Path: path}, 4)
	if err != nil {
		log.Fatal(err)
	}
	defer re.Close()
	fmt.Printf("reopened from checkpoint: Len=%d (want %d)\n", re.Len(), n)
}
