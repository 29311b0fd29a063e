// Command hashbench measures the costs of any one structure in this
// repository under a configurable workload — the general-purpose driver
// behind the per-structure experiment rows in README.md.
//
// Besides the paper's simulated I/O counts it reports wall-clock time
// per operation, and can run the structure against a real storage
// backend:
//
//	-backend=mem      the paper's free in-memory simulated store (default)
//	-backend=file     blocks persisted to an on-disk file behind a page
//	                  cache (-path, -cache); reports syscall and cache
//	                  columns alongside the model's I/O counters
//
// The I/O counters are identical across backends; only the real price
// of the bytes differs.
//
// With -workers >= 1 it instead drives the sharded pipelined engine:
// the workload is partitioned over that many shard workers and fed
// through the batch APIs in batches of -batch operations, with a Flush
// barrier before the insert clock stops. This mode reports throughput
// (ops/sec) columns next to the model's I/O counters.
//
// Usage:
//
//	hashbench -structure core [-b 64] [-m 1024] [-n 50000] [-beta 8]
//	          [-gamma 2] [-delta 0.1] [-q 4000] [-seed 42] [-hash ideal]
//	          [-backend mem|file] [-path FILE] [-cache 512]
//	          [-workers 8] [-batch 256]
//	          [-walpath FILE]
//	          [-reopen [-crashtail 100000]]
//	          [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Every mode reports an allocs/op column (runtime allocation counters
// around the measured loops), and -cpuprofile/-memprofile write pprof
// profiles so perf work needs no code edits.
//
// Structures: chainhash, linprobe, exthash, linhash, twolevel,
// logmethod, core, staged (-workers mode accepts the extbuf.Open
// names, e.g. buffered).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"extbuf"
	"extbuf/internal/chainhash"
	"extbuf/internal/core"
	"extbuf/internal/exthash"
	"extbuf/internal/hashfn"
	"extbuf/internal/iomodel"
	"extbuf/internal/linhash"
	"extbuf/internal/linprobe"
	"extbuf/internal/logmethod"
	"extbuf/internal/tablefmt"
	"extbuf/internal/twolevel"
	"extbuf/internal/workload"
	"extbuf/internal/xrand"
	"extbuf/internal/zones"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hashbench: ")
	var (
		structure = flag.String("structure", "core", "structure to drive")
		b         = flag.Int("b", 64, "block size in items")
		mWords    = flag.Int64("m", 1024, "memory budget in words")
		n         = flag.Int("n", 50000, "items to insert")
		beta      = flag.Int("beta", 8, "core: merge parameter")
		gamma     = flag.Int("gamma", 2, "core/logmethod: growth factor")
		delta     = flag.Float64("delta", 0.1, "staged: slow-zone budget coefficient")
		q         = flag.Int("q", 4000, "successful lookups sampled")
		seed      = flag.Uint64("seed", 42, "seed")
		family    = flag.String("hash", "ideal", "hash family")
		backend   = flag.String("backend", "mem", "block store: mem or file")
		path      = flag.String("path", "", "file backend: backing file (default: temp file)")
		cache     = flag.Int("cache", iomodel.DefaultCacheBlocks, "file backend: page-cache capacity in blocks")
		workers   = flag.Int("workers", 0, "sharded engine: shard worker count (0 = classic single-structure mode)")
		batch     = flag.Int("batch", 1, "sharded engine: operations per batch")
		walPath   = flag.String("walpath", "", "durable mode: dedicated WAL file path (default: -path plus .wal)")
		reopen    = flag.Bool("reopen", false, "durability mode: build, flush and close a durable table, then measure reopen/recovery time (requires -backend file and -path)")
		crashtail = flag.Int("crashtail", 0, "reopen mode: items inserted after the checkpoint and acked via Sync only, with the handle then abandoned (simulated crash) — recovery must replay them from the WAL")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the measured run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()
	startProfiles(*cpuProf, *memProf)
	defer stopProfiles()

	if *reopen {
		if *backend != "file" || *path == "" {
			fatalf("-reopen requires -backend file and a named -path (durable mode)")
		}
		runReopen(*structure, extbuf.Config{
			BlockSize:     *b,
			MemoryWords:   *mWords,
			Beta:          *beta,
			Gamma:         *gamma,
			ExpectedItems: *n,
			Seed:          *seed,
			HashFamily:    *family,
			Backend:       *backend,
			Path:          *path,
			WALPath:       *walPath,
			CacheBlocks:   *cache,
		}, *workers, *batch, *n, *q, *crashtail)
		return
	}

	if *workers > 0 {
		runEngine(*structure, extbuf.Config{
			BlockSize:     *b,
			MemoryWords:   *mWords,
			Beta:          *beta,
			Gamma:         *gamma,
			ExpectedItems: *n,
			Seed:          *seed,
			HashFamily:    *family,
			Backend:       *backend,
			Path:          *path,
			WALPath:       *walPath,
			CacheBlocks:   *cache,
		}, *workers, *batch, *n, *q)
		return
	}

	// The extendible baseline's directory needs Theta(n/b) words beyond
	// the budget; provision it before the store exists.
	words := *mWords
	if *structure == "exthash" || *structure == "extendible" {
		words += int64(8 * *n / *b)
	}

	store := openStore(*backend, *b, *path, *cache)
	model := iomodel.NewModelOn(store, words)
	// log.Fatal exits without running defers, so fatal() also routes
	// through this cleanup: a temp-file store must not outlive a failed
	// run. Closing twice is safe.
	cleanup = func() {
		if err := model.Close(); err != nil {
			log.Printf("close store: %v", err)
		}
	}
	defer cleanup()
	fn := hashfn.Family(*family, *seed)
	rng := xrand.New(*seed)

	var (
		insert  func(k uint64) error
		lookup  func(k uint64) bool
		subject zones.Subject
		merges  func() extbuf.MergeStats // the Theorem 2 table's restructuring counters
	)
	switch *structure {
	case "chainhash", "knuth":
		tab, err := chainhash.New(model, fn, 2**n / *b)
		fatal(err)
		insert = func(k uint64) error { tab.Insert(k, 0); return nil }
		lookup = func(k uint64) bool { _, ok, _ := tab.Lookup(k); return ok }
		subject = tab
	case "linprobe":
		tab, err := linprobe.New(model, fn, 2**n / *b)
		fatal(err)
		insert = func(k uint64) error { _, err := tab.Insert(k, 0); return err }
		lookup = func(k uint64) bool { _, ok, _ := tab.Lookup(k); return ok }
		subject = tab
	case "exthash", "extendible":
		tab, err := exthash.New(model, fn, 4)
		fatal(err)
		insert = func(k uint64) error { tab.Insert(k, 0); return nil }
		lookup = func(k uint64) bool { _, ok, _ := tab.Lookup(k); return ok }
		subject = tab
	case "linhash", "linear":
		tab, err := linhash.New(model, fn, 2)
		fatal(err)
		insert = func(k uint64) error { tab.Insert(k, 0); return nil }
		lookup = func(k uint64) bool { _, ok, _ := tab.Lookup(k); return ok }
		subject = tab
	case "twolevel":
		tab, err := twolevel.New(model, fn, twolevel.HomeBucketsFor(*n, *b))
		fatal(err)
		insert = func(k uint64) error { tab.Insert(k, 0); return nil }
		lookup = func(k uint64) bool { _, ok, _ := tab.Lookup(k); return ok }
		subject = tab
	case "logmethod":
		tab, err := logmethod.New(model, fn, logmethod.Config{Gamma: *gamma})
		fatal(err)
		insert = func(k uint64) error { _, err := tab.Insert(k, 0); return err }
		lookup = func(k uint64) bool { _, ok, _ := tab.Lookup(k); return ok }
		subject = tab
	case "core", "buffered":
		tab, err := core.New(model, fn, core.Config{Beta: *beta, Gamma: *gamma})
		fatal(err)
		insert = func(k uint64) error { _, err := tab.Insert(k, 0); return err }
		lookup = func(k uint64) bool { _, ok, _ := tab.Lookup(k); return ok }
		subject = tab
		// Direct mode drives the paper's schedule: lookups accrue read
		// debt, nothing ever settles it, read-paid merges stay 0.
		merges = func() extbuf.MergeStats {
			return extbuf.MergeStats{
				Merges: int64(tab.Merges()), Growths: int64(tab.Growths()),
				ReadPaidMerges: int64(tab.ReadPaidMerges()), ReadDebt: int64(tab.ReadDebt()),
			}
		}
	case "staged":
		tab, err := core.NewStaged(model, fn, core.StagedConfig{Delta: *delta})
		fatal(err)
		insert = func(k uint64) error { tab.Insert(k, 0); return nil }
		lookup = func(k uint64) bool { _, ok, _ := tab.Lookup(k); return ok }
		subject = tab
	default:
		fatalf("unknown structure %q", *structure)
	}

	keys := workload.Keys(rng, *n)
	c0 := model.Counters()
	a0 := allocSnapshot()
	insStart := time.Now()
	for _, k := range keys {
		fatal(insert(k))
	}
	insWall := time.Since(insStart)
	insAllocs := a0.perOp(*n)
	ins := model.Counters().Sub(c0)

	qs := workload.SuccessfulQueries(rng, keys, *n, *q)
	c1 := model.Counters()
	a1 := allocSnapshot()
	qryStart := time.Now()
	for _, k := range qs {
		if !lookup(k) {
			cleanup()
			fatalf("lost key %d", k)
		}
	}
	qryWall := time.Since(qryStart)
	qryAllocs := a1.perOp(len(qs))
	qry := model.Counters().Sub(c1)

	// Snapshot the backend's real-cost rows before the zone audit: Audit
	// peeks every block, and on the file backend that sweep would inflate
	// the syscall and cache columns far beyond the measured workload.
	backendRows := backendStatRows(store)

	rep := zones.Audit(subject, keys)

	t := tablefmt.New(fmt.Sprintf("%s: b=%d m=%d n=%d backend=%s", *structure, *b, *mWords, *n, *backend),
		"metric", "value")
	t.AddRow("amortized insert I/Os", float64(ins.IOs())/float64(*n))
	t.AddRow("  reads", float64(ins.Reads)/float64(*n))
	t.AddRow("  cold writes", float64(ins.Writes)/float64(*n))
	t.AddRow("  free write-backs", float64(ins.WriteBacks)/float64(*n))
	t.AddRow("avg successful lookup I/Os", float64(qry.IOs())/float64(len(qs)))
	t.AddRow("insert wall µs/op", float64(insWall.Microseconds())/float64(*n))
	t.AddRow("lookup wall µs/op", float64(qryWall.Microseconds())/float64(len(qs)))
	t.AddRow("insert allocs/op", insAllocs)
	t.AddRow("lookup allocs/op", qryAllocs)
	t.AddRow("zone |M|", rep.M)
	t.AddRow("zone |F|", rep.F)
	t.AddRow("zone |S|", rep.S)
	t.AddRow("zone-model tq", rep.ModelQueryCost())
	t.AddRow("slow fraction", rep.SlowFraction())
	t.AddRow("memory peak (words)", model.Mem.Peak())
	t.AddRow("disk blocks", model.Disk.NumBlocks())
	t.AddRow("(tq-1)*b", tablefmt.FormatFloat((float64(qry.IOs())/float64(len(qs))-1)*float64(*b)))
	if merges != nil {
		addMergeRows(t, merges())
	}
	for _, r := range backendRows {
		t.AddRow(r.metric, r.value)
	}
	t.Render(os.Stdout)
}

// addMergeRows reports how often the Theorem 2 table restructured, and
// who paid: the insertion window or the lookups.
func addMergeRows(t *tablefmt.Table, ms extbuf.MergeStats) {
	t.AddRow("cascade merges", ms.Merges)
	t.AddRow("  bought by lookups (read-paid)", ms.ReadPaidMerges)
	t.AddRow("  read debt outstanding (I/Os)", ms.ReadDebt)
	t.AddRow("big-table doublings", ms.Growths)
}

// runEngine drives the sharded pipelined engine: n batched inserts and
// q batched successful lookups, reporting throughput next to the
// model's aggregated I/O counters.
func runEngine(structure string, cfg extbuf.Config, workers, batch, n, q int) {
	if batch < 1 {
		fatalf("batch must be >= 1, got %d", batch)
	}
	s, err := extbuf.NewSharded(structure, cfg, workers)
	if err != nil {
		log.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			if err := s.Close(); err != nil {
				log.Printf("close: %v", err)
			}
		}
	}()

	rng := xrand.New(cfg.Seed)
	keys := workload.Keys(rng, n)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	keyChunks := workload.Chunks(keys, batch)
	valChunks := workload.Chunks(vals, batch)

	c0 := s.Stats()
	a0 := allocSnapshot()
	insStart := time.Now()
	for i := range keyChunks {
		if err := s.InsertBatch(keyChunks[i], valChunks[i]); err != nil {
			fatalf("insert batch %d: %v", i, err)
		}
	}
	// Flush, the checkpoint barrier, belongs inside the clock: on the
	// file backend it is where the inserts reach the file.
	if err := s.Flush(); err != nil {
		fatalf("flush: %v", err)
	}
	insWall := time.Since(insStart)
	insAllocs := a0.perOp(n)
	ins := sub(s.Stats(), c0)

	qs := workload.SuccessfulQueries(rng, keys, n, q)
	c1 := s.Stats()
	a1 := allocSnapshot()
	qryStart := time.Now()
	for i, chunk := range workload.Chunks(qs, batch) {
		_, found, err := s.LookupBatch(chunk)
		if err != nil {
			fatalf("lookup batch %d: %v", i, err)
		}
		for j, ok := range found {
			if !ok {
				fatalf("lookup batch %d: lost key %d", i, chunk[j])
			}
		}
	}
	qryWall := time.Since(qryStart)
	qryAllocs := a1.perOp(len(qs))
	qry := sub(s.Stats(), c1)

	if got := s.Len(); got != n {
		fatalf("Len = %d, want %d", got, n)
	}

	t := tablefmt.New(fmt.Sprintf("%s: b=%d m=%d n=%d backend=%s workers=%d batch=%d",
		structure, cfg.BlockSize, cfg.MemoryWords, n, orDefault(cfg.Backend, "mem"),
		s.NumShards(), batch),
		"metric", "value")
	t.AddRow("insert throughput ops/s", float64(n)/insWall.Seconds())
	t.AddRow("lookup throughput ops/s", float64(len(qs))/qryWall.Seconds())
	t.AddRow("insert wall µs/op", float64(insWall.Microseconds())/float64(n))
	t.AddRow("lookup wall µs/op", float64(qryWall.Microseconds())/float64(len(qs)))
	t.AddRow("insert allocs/op", insAllocs)
	t.AddRow("lookup allocs/op", qryAllocs)
	t.AddRow("amortized insert I/Os", float64(ins.IOs())/float64(n))
	t.AddRow("  reads", float64(ins.Reads)/float64(n))
	t.AddRow("  cold writes", float64(ins.Writes)/float64(n))
	t.AddRow("  free write-backs", float64(ins.WriteBacks)/float64(n))
	t.AddRow("avg successful lookup I/Os", float64(qry.IOs())/float64(len(qs)))
	t.AddRow("memory used (words)", s.MemoryUsed())
	if structure == "core" || structure == "buffered" {
		addMergeRows(t, s.MergeStats())
	}
	if cfg.Backend == "file" {
		if st := s.StoreStats(); st.WriteSyscalls > 0 {
			t.AddRow("store: mean KiB/pwrite", float64(st.BytesWritten)/float64(st.WriteSyscalls)/1024)
		}
	}
	t.Render(os.Stdout)

	closed = true
	if err := s.Close(); err != nil {
		fatalf("close: %v", err)
	}
}

// runReopen measures the durability subsystem end to end: build a
// durable table (or sharded engine) at cfg.Path, insert n items, Flush
// (the checkpoint barrier), then reopen the same path with the clock
// running and verify q lookups. The reopen wall time is the recovery
// cost a restarting server pays: superblock read, allocator/directory
// restore and WAL replay.
//
// With -crashtail T the run simulates a crash between checkpoints:
// after the checkpoint it inserts T more items acked only by Sync (WAL
// fsync, no checkpoint) and abandons the handle without Close — the
// on-disk state is then exactly a kill -9 after the ack, and the
// measured recovery includes replaying those T records from the log
// (partitioned across GOMAXPROCS goroutines when the tail is long).
func runReopen(structure string, cfg extbuf.Config, workers, batch, n, q, crashtail int) {
	type engine interface {
		Insert(key, val uint64) error
		Lookup(key uint64) (uint64, bool)
		Len() int
		Sync() error
		Flush() error
		Close() error
	}
	open := func() engine {
		if workers > 0 {
			s, err := extbuf.NewSharded(structure, cfg, workers)
			fatal(err)
			return s
		}
		t, err := extbuf.Open(structure, cfg)
		fatal(err)
		return t
	}

	rng := xrand.New(cfg.Seed)
	all := workload.Keys(rng, n+crashtail)
	keys, tail := all[:n], all[n:]

	insertMany := func(e engine, ks []uint64, base int) {
		if workers > 0 {
			s := e.(*extbuf.Sharded)
			vals := make([]uint64, len(ks))
			for i := range vals {
				vals[i] = uint64(base + i)
			}
			keyChunks := workload.Chunks(ks, batch)
			valChunks := workload.Chunks(vals, batch)
			for i := range keyChunks {
				fatal(s.InsertBatch(keyChunks[i], valChunks[i]))
			}
			return
		}
		for i, k := range ks {
			fatal(e.Insert(k, uint64(base+i)))
		}
	}

	e := open()
	buildStart := time.Now()
	insertMany(e, keys, 0)
	buildWall := time.Since(buildStart)
	flushStart := time.Now()
	fatal(e.Flush())
	flushWall := time.Since(flushStart)
	if crashtail > 0 {
		// Crash-tail phase: these items are acked by the Sync barrier
		// only, then the handle is abandoned — no Close, no checkpoint.
		// Recovery below must replay them from the WAL.
		insertMany(e, tail, n)
		fatal(e.Sync())
	} else {
		fatal(e.Close())
	}

	reopenStart := time.Now()
	e2 := open()
	reopenWall := time.Since(reopenStart)
	if got := e2.Len(); got != n+crashtail {
		fatalf("reopen lost items: Len = %d, want %d", got, n+crashtail)
	}
	qs := workload.SuccessfulQueries(rng, all, n+crashtail, q)
	qryStart := time.Now()
	for i, k := range qs {
		if _, ok := e2.Lookup(k); !ok {
			fatalf("reopen lost key %d (query %d)", k, i)
		}
	}
	qryWall := time.Since(qryStart)
	fatal(e2.Close())

	t := tablefmt.New(fmt.Sprintf("%s reopen: b=%d m=%d n=%d crashtail=%d workers=%d path=%s",
		structure, cfg.BlockSize, cfg.MemoryWords, n, crashtail, workers, cfg.Path), "metric", "value")
	t.AddRow("build wall ms", float64(buildWall.Microseconds())/1000)
	t.AddRow("flush (checkpoint) wall ms", float64(flushWall.Microseconds())/1000)
	t.AddRow("reopen (recovery) wall ms", float64(reopenWall.Microseconds())/1000)
	t.AddRow("reopen items", n+crashtail)
	t.AddRow("replayed tail items", crashtail)
	t.AddRow("post-reopen lookup µs/op", float64(qryWall.Microseconds())/float64(len(qs)))
	t.Render(os.Stdout)
}

// sub returns a - b per counter.
func sub(a, b extbuf.Stats) extbuf.Stats {
	return extbuf.Stats{
		Reads:      a.Reads - b.Reads,
		Writes:     a.Writes - b.Writes,
		WriteBacks: a.WriteBacks - b.WriteBacks,
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// openStore builds the block store selected by -backend.
func openStore(backend string, b int, path string, cache int) iomodel.BlockStore {
	switch backend {
	case "mem":
		return iomodel.NewMemStore(b)
	case "file":
		var (
			fs  *iomodel.FileStore
			err error
		)
		if path == "" {
			fs, err = iomodel.NewTempFileStore(b, cache)
		} else {
			fs, err = iomodel.NewFileStore(path, b, cache)
		}
		fatal(err)
		return fs
	default:
		fatalf("unknown backend %q (want mem or file)", backend)
		return nil
	}
}

type statRow struct {
	metric string
	value  any
}

// backendStatRows snapshots the real-cost columns a backend exposes.
func backendStatRows(store iomodel.BlockStore) []statRow {
	if s, ok := store.(*iomodel.FileStore); ok {
		st := s.Stats()
		rows := []statRow{
			{"file: path", s.Path()},
			{"file: pread syscalls", st.ReadSyscalls},
			{"file: pwrite syscalls", st.WriteSyscalls},
			{"file: cache hits", st.CacheHits},
			{"file: cache misses", st.CacheMisses},
			{"file: pool evictions", st.Evictions},
			{"file: dirty writebacks", st.DirtyWritebacks},
			{"file: flush frames", st.FlushedFrames},
			{"file: flush runs (coalesced)", st.FlushRuns},
			{"file: fsyncs", st.Fsyncs},
			{"file: fsyncs elided", st.FsyncsElided},
			{"file: ghost hits (scan-resistant promotions)", st.GhostHits},
			{"file: MB read", float64(st.BytesRead) / (1 << 20)},
			{"file: MB written", float64(st.BytesWritten) / (1 << 20)},
			{"file: slots (extent)", st.FileSlots},
			{"file: free slots", st.FreeSlots},
		}
		if st.WriteSyscalls > 0 {
			rows = append(rows, statRow{"file: mean KiB/pwrite",
				float64(st.BytesWritten) / float64(st.WriteSyscalls) / 1024})
		}
		return rows
	}
	return nil
}

// cleanup releases the block store; set once the model exists. fatal
// paths call it explicitly because log.Fatal skips defers.
var cleanup = func() {}

func fatal(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

// fatalf is log.Fatalf behind the run's teardown: log.Fatal skips
// defers, so the store cleanup and profile finalization run here —
// a -cpuprofile of a failing run is still written.
func fatalf(format string, args ...any) {
	cleanup()
	stopProfiles()
	log.Fatalf(format, args...)
}

// stopProfiles finalizes any profiles started by startProfiles. It is
// safe to call more than once (fatal paths call it before log.Fatal,
// which skips defers).
var stopProfiles = func() {}

// startProfiles begins CPU profiling and/or arranges a heap profile at
// exit, so perf work on this binary needs no code edits:
//
//	hashbench -cpuprofile cpu.out -memprofile mem.out ...
//	go tool pprof cpu.out
func startProfiles(cpuPath, memPath string) {
	var stops []func()
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if memPath != "" {
		stops = append(stops, func() {
			f, err := os.Create(memPath)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		})
	}
	done := false
	stopProfiles = func() {
		if done {
			return
		}
		done = true
		for _, stop := range stops {
			stop()
		}
	}
}

// allocCounter samples runtime allocation counters so each measured
// phase can report a real allocs/op column next to its wall clock.
type allocCounter struct{ mallocs uint64 }

func allocSnapshot() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{mallocs: ms.Mallocs}
}

// perOp returns the allocations per operation since the snapshot.
func (c allocCounter) perOp(ops int) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-c.mallocs) / float64(ops)
}
