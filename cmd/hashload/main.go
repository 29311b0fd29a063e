// Command hashload is a closed-loop load generator for hashserved: a
// fixed set of workers issue pipelined batch requests over a pooled
// client connection and each waits for its response before sending the
// next (closed loop), so offered load adapts to what the server
// sustains. It reports throughput and per-request latency percentiles,
// and can record an acked-write log for crash-recovery verification.
//
// Workload: each worker owns a disjoint key space and mixes fresh-key
// insert batches with lookup (and optional delete) batches over the
// keys it has already inserted, sampled uniformly or Zipf-skewed
// toward recent inserts (-dist zipf), the recency skew of package
// workload.
//
// Crash verification: with -acklog the generator writes a mutation log
// — inserts after the server acks them WAL-durable, deletes when they
// are issued (a delete may apply durably even if its ack is lost, so
// issued deletes conservatively leave the verified set) — and
// tolerates the server dying mid-run (the run ends early,
// successfully, with the log intact). A second invocation with -verify
// replays the log against a restarted server and fails if any acked
// write is missing: the e2e CI gate's kill -9 check. -ttlfrac sends
// that fraction of insert batches as UPSERTTTL with a far deadline
// (acked TTL writes must survive like plain inserts); -casfrac mixes
// in CAS batches over owned keys, demoted to presence-only claims at
// issue time (a swap leaves either value behind, never loses the key).
//
// Replication: -replica ADDR points at a read replica; workers then
// re-read a sample of their acked insert batches there carrying the
// batch's ReadToken, verifying read-your-writes across the replication
// stream (missing or wrong values are token violations; a BEHIND
// rejection is the protocol's honest escape valve and counted
// separately). -promote asks the node at -addr to become the writable
// primary and exits — the failover step after a primary dies.
//
// Contended writes: -overlap N abandons the disjoint per-worker key
// spaces and instead has every worker upsert into ONE shared keyspace
// of N keys (Zipf-skewed with -dist zipf, so a few keys are hammered
// from many connections at once) — the §2a total-write-order trigger.
// Values are still globally unique, but which write wins a key is
// decided by the server's apply order, so the ack log records bare
// presence ("k <key>") and replica token checks only demand the key
// exists at the token, not any particular value.
//
// Convergence: -diff FILE (with -replica) is the post-run/post-failover
// gate for overlap runs: it waits until -addr and -replica report the
// same applied LSN, then reads every key the log mentions on both nodes
// and fails on ANY difference in value or presence — the check that a
// replica did not silently diverge under contention.
//
// Usage:
//
//	hashload -addr HOST:PORT [-conns 4] [-workers 16] [-pipeline 16]
//	         [-batch 256] [-duration 10s] [-lookupfrac 0.5]
//	         [-deletefrac 0] [-casfrac 0] [-ttlfrac 0]
//	         [-dist uniform|zipf] [-zipfexp 1.5]
//	         [-seed 42] [-acklog FILE] [-summary FILE] [-replica HOST:PORT]
//	         [-overlap N]
//	hashload -addr HOST:PORT -ycsb A|B|C|D|E|F [-records N] [-scanlen N]
//	hashload -addr HOST:PORT -verify FILE
//	hashload -addr HOST:PORT -replica HOST:PORT -diff FILE
//	hashload -addr HOST:PORT -promote
//
// The run always ends with a machine-readable line:
//
//	SUMMARY ops=... errors=... seconds=... ops_per_sec=... acked_inserts=... p50_us=... p95_us=... p99_us=... token_checks=... token_behind=... token_violations=...
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"extbuf/client"
	"extbuf/internal/stats"
	"extbuf/internal/workload"
	"extbuf/internal/xrand"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hashload: ")
	var (
		addr       = flag.String("addr", "", "server address (required)")
		conns      = flag.Int("conns", 4, "pooled TCP connections")
		workers    = flag.Int("workers", 16, "closed-loop worker goroutines")
		pipeline   = flag.Int("pipeline", 16, "client per-connection in-flight bound")
		batch      = flag.Int("batch", 256, "operations per request")
		duration   = flag.Duration("duration", 10*time.Second, "run length")
		lookupFrac = flag.Float64("lookupfrac", 0.5, "fraction of lookup batches")
		deleteFrac = flag.Float64("deletefrac", 0, "fraction of delete batches")
		dist       = flag.String("dist", "uniform", "lookup key distribution: uniform or zipf")
		zipfExp    = flag.Float64("zipfexp", 1.5, "zipf exponent (-dist zipf)")
		seed       = flag.Uint64("seed", 42, "workload seed")
		ackPath    = flag.String("acklog", "", "append acked mutations to this log")
		verifyPath = flag.String("verify", "", "verify an acked-write log against the server and exit")
		sumPath    = flag.String("summary", "", "write a JSON summary here")
		replica    = flag.String("replica", "", "read replica address: verify token reads there during the run")
		promote    = flag.Bool("promote", false, "promote the node at -addr to writable primary and exit")
		overlap    = flag.Int("overlap", 0, "contended mode: all workers upsert one shared keyspace of N keys")
		diffPath   = flag.String("diff", "", "wait for -addr and -replica to converge, diff the keys in this acklog, and exit")
		ycsb       = flag.String("ycsb", "", "run a YCSB-style workload (A, B, C, D, E or F) instead of the legacy mix")
		records    = flag.Int("records", 100000, "ycsb: records preloaded before the timed run")
		scanLen    = flag.Int("scanlen", 100, "ycsb: scan page size (workload E)")
		ttlFrac    = flag.Float64("ttlfrac", 0, "fraction of insert batches issued as UPSERTTTL with a far deadline")
		casFrac    = flag.Float64("casfrac", 0, "legacy mix: fraction of CAS batches swapping owned keys to fresh values")
	)
	flag.Parse()
	if *addr == "" {
		log.Fatal("-addr is required")
	}

	cl, err := client.Dial(*addr, client.Options{
		Conns:       *conns,
		Pipeline:    *pipeline,
		DialTimeout: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	if *promote {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		info, err := cl.Promote(ctx)
		if err != nil {
			log.Fatalf("promote: %v", err)
		}
		fmt.Printf("PROMOTED role=%s writable=%v epoch=%d applied_lsn=%d\n",
			info.Role, info.Writable, info.Epoch, info.AppliedLSN)
		return
	}

	if *verifyPath != "" {
		if err := verify(cl, *verifyPath, *batch); err != nil {
			log.Fatal(err)
		}
		return
	}

	var rcl *client.Client
	if *replica != "" {
		rcl, err = client.Dial(*replica, client.Options{
			Conns:       *conns,
			Pipeline:    *pipeline,
			DialTimeout: 10 * time.Second,
		})
		if err != nil {
			log.Fatalf("replica: %v", err)
		}
		defer rcl.Close()
	}

	if *diffPath != "" {
		if rcl == nil {
			log.Fatal("-diff requires -replica")
		}
		if err := diffConverged(cl, rcl, *diffPath, *batch); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *ycsb != "" {
		runYCSB(cl, ycsbConfig{
			workload: strings.ToUpper(*ycsb),
			workers:  *workers,
			batch:    *batch,
			records:  *records,
			scanLen:  *scanLen,
			duration: *duration,
			zipfExp:  *zipfExp,
			seed:     *seed,
			ttlFrac:  *ttlFrac,
			sumPath:  *sumPath,
		})
		return
	}

	run(cl, rcl, runConfig{
		workers:    *workers,
		batch:      *batch,
		duration:   *duration,
		lookupFrac: *lookupFrac,
		deleteFrac: *deleteFrac,
		casFrac:    *casFrac,
		ttlFrac:    *ttlFrac,
		zipf:       *dist == "zipf",
		zipfExp:    *zipfExp,
		seed:       *seed,
		ackPath:    *ackPath,
		sumPath:    *sumPath,
		overlap:    *overlap,
	})
}

type runConfig struct {
	workers    int
	batch      int
	duration   time.Duration
	lookupFrac float64
	deleteFrac float64
	casFrac    float64 // fraction of CAS batches over owned keys
	ttlFrac    float64 // fraction of insert batches sent as UPSERTTTL
	zipf       bool
	zipfExp    float64
	seed       uint64
	ackPath    string
	sumPath    string
	overlap    int // shared contended keyspace size; 0 = disjoint spaces
}

// ackLog serializes mutation records from all workers into one
// buffered file. Lines: "i <key> <val>" for inserts — written only
// after the server acked the batch durable — and "d <key>" for
// deletes, written when the delete is ISSUED: an unacked delete may
// still have applied durably, so issue-time logging conservatively
// removes the key from the verified set instead of falsely claiming
// it live (see verify). Contended-mode upserts log "k <key>" after the
// ack: the key is durably present, but which worker's value won it is
// the server's call, so verification is presence-only.
type ackLog struct {
	mu sync.Mutex
	w  *bufio.Writer
	f  *os.File
}

func openAckLog(path string) (*ackLog, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &ackLog{w: bufio.NewWriterSize(f, 1<<20), f: f}, nil
}

func (a *ackLog) inserts(keys, vals []uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	for i := range keys {
		fmt.Fprintf(a.w, "i %d %d\n", keys[i], vals[i])
	}
	a.mu.Unlock()
}

func (a *ackLog) contended(keys []uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	for _, k := range keys {
		fmt.Fprintf(a.w, "k %d\n", k)
	}
	a.mu.Unlock()
}

func (a *ackLog) deletes(keys []uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	for _, k := range keys {
		fmt.Fprintf(a.w, "d %d\n", k)
	}
	a.mu.Unlock()
}

func (a *ackLog) close() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.w.Flush(); err != nil {
		return err
	}
	return a.f.Close()
}

// workerResult carries one worker's tallies back to the aggregator.
type workerResult struct {
	ops          int64
	errors       int64
	ackedInserts int64
	tokenChecks  int64           // token-carrying replica reads issued
	tokenBehind  int64           // replica answered BEHIND (allowed; client re-routes)
	tokenViols   int64           // replica read missed an acked, token-covered write
	lat          stats.Histogram // per-request latency, µs
	fatal        error           // connection-level failure that ended the worker
}

func run(cl, rcl *client.Client, cfg runConfig) {
	ack, err := openAckLog(cfg.ackPath)
	if err != nil {
		log.Fatalf("acklog: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()

	results := make([]workerResult, cfg.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = worker(ctx, cancel, cl, rcl, cfg, w, ack)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ack.close(); err != nil {
		log.Fatalf("acklog: %v", err)
	}

	var total workerResult
	disconnected := false
	for i := range results {
		r := &results[i]
		total.ops += r.ops
		total.errors += r.errors
		total.ackedInserts += r.ackedInserts
		total.tokenChecks += r.tokenChecks
		total.tokenBehind += r.tokenBehind
		total.tokenViols += r.tokenViols
		for _, v := range r.lat.Values() {
			total.lat.AddN(v, r.lat.Count(v))
		}
		if r.fatal != nil {
			disconnected = true
		}
	}
	if disconnected {
		log.Printf("server connection lost mid-run (tolerated); acked log is authoritative")
	}

	secs := elapsed.Seconds()
	opsPerSec := float64(total.ops) / secs
	p50 := percentile(&total.lat, 0.50)
	p95 := percentile(&total.lat, 0.95)
	p99 := percentile(&total.lat, 0.99)

	fmt.Printf("ops            %d\n", total.ops)
	fmt.Printf("errors         %d\n", total.errors)
	fmt.Printf("wall seconds   %.3f\n", secs)
	fmt.Printf("throughput     %.0f ops/s\n", opsPerSec)
	fmt.Printf("acked inserts  %d\n", total.ackedInserts)
	fmt.Printf("request p50    %d µs\n", p50)
	fmt.Printf("request p95    %d µs\n", p95)
	fmt.Printf("request p99    %d µs\n", p99)
	if total.tokenChecks > 0 {
		fmt.Printf("token checks   %d (%d behind, %d violations)\n",
			total.tokenChecks, total.tokenBehind, total.tokenViols)
	}
	fmt.Printf("SUMMARY ops=%d errors=%d seconds=%.3f ops_per_sec=%.0f acked_inserts=%d p50_us=%d p95_us=%d p99_us=%d token_checks=%d token_behind=%d token_violations=%d\n",
		total.ops, total.errors, secs, opsPerSec, total.ackedInserts, p50, p95, p99,
		total.tokenChecks, total.tokenBehind, total.tokenViols)

	if cfg.sumPath != "" {
		js, _ := json.MarshalIndent(map[string]any{
			"ops":              total.ops,
			"errors":           total.errors,
			"seconds":          secs,
			"ops_per_sec":      opsPerSec,
			"acked_inserts":    total.ackedInserts,
			"p50_us":           p50,
			"p95_us":           p95,
			"p99_us":           p99,
			"disconnected":     disconnected,
			"token_checks":     total.tokenChecks,
			"token_behind":     total.tokenBehind,
			"token_violations": total.tokenViols,
		}, "", "  ")
		if err := os.WriteFile(cfg.sumPath, append(js, '\n'), 0o644); err != nil {
			log.Fatalf("summary: %v", err)
		}
	}
}

// worker runs one closed loop until the context expires or the
// connection dies. Worker w owns key space w<<40 | counter (mixed), so
// inserts are globally fresh without coordination.
func worker(ctx context.Context, cancel context.CancelFunc, cl, rcl *client.Client, cfg runConfig, w int, ack *ackLog) workerResult {
	if cfg.overlap > 0 {
		return overlapWorker(ctx, cancel, cl, rcl, cfg, w, ack)
	}
	var res workerResult
	rng := xrand.New(cfg.seed + uint64(w)*0x9e3779b97f4a7c15)
	zipf := workload.MakeRecencyZipf(cfg.zipfExp)
	var (
		history []uint64 // keys this worker has inserted (acked or in flight)
		counter uint64
		keys    = make([]uint64, 0, cfg.batch)
		vals    = make([]uint64, 0, cfg.batch)
		news    []uint64          // CAS replacement values
		valOf   map[uint64]uint64 // current value per owned key (CAS mode)
	)
	if cfg.casFrac > 0 {
		valOf = make(map[uint64]uint64)
	}
	nextKey := func() uint64 {
		counter++
		return xrand.Mix64(uint64(w)<<40 | counter)
	}
	pick := func() uint64 {
		if cfg.zipf {
			return history[len(history)-1-zipf.Rank(rng, len(history))]
		}
		return history[rng.Intn(len(history))]
	}
	for ctx.Err() == nil {
		keys = keys[:0]
		vals = vals[:0]
		r := rng.Float64()
		switch {
		case len(history) >= cfg.batch && r < cfg.lookupFrac:
			for i := 0; i < cfg.batch; i++ {
				keys = append(keys, pick())
			}
			t0 := time.Now()
			_, found, err := cl.Lookup(ctx, keys, client.ReadToken{})
			if done := tally(&res, cancel, ctx, err, cfg.batch, t0); done {
				return res
			}
			if err == nil {
				for i, ok := range found {
					if !ok {
						// A key this worker inserted must be visible: the
						// engine guarantees read-your-writes through the
						// pipeline. Count it as an error, loudly.
						log.Printf("worker %d: lost key %d", w, keys[i])
						res.errors++
					}
				}
			}
		case len(history) >= 2*cfg.batch && r < cfg.lookupFrac+cfg.deleteFrac:
			for i := 0; i < cfg.batch; i++ {
				j := rng.Intn(len(history))
				keys = append(keys, history[j])
				history[j] = history[len(history)-1]
				history = history[:len(history)-1]
			}
			// Deletes are logged when ISSUED, not when acked: a delete can
			// apply and turn durable (riding another wave's group commit)
			// with its ack lost to the crash, and verifying such a key as
			// "acked live" would report false loss. Logging at issue time
			// only shrinks the verified set — never unsoundly grows it.
			ack.deletes(keys)
			if valOf != nil {
				for _, k := range keys {
					delete(valOf, k)
				}
			}
			t0 := time.Now()
			_, _, err := cl.Delete(ctx, keys)
			if done := tally(&res, cancel, ctx, err, cfg.batch, t0); done {
				return res
			}
		case len(history) >= 2*cfg.batch && r < cfg.lookupFrac+cfg.deleteFrac+cfg.casFrac:
			// CAS batch: swap distinct owned keys from their tracked value
			// to a fresh one. Like a delete, a CAS can apply durably with
			// its ack lost to a crash, so the key is demoted to a
			// presence-only claim ("k" line) at ISSUE time — the swap
			// leaves either value behind, but never loses the key.
			news = news[:0]
			for attempts := 0; len(keys) < cfg.batch && attempts < 4*cfg.batch; attempts++ {
				k := history[rng.Intn(len(history))]
				if old, ok := valOf[k]; ok {
					keys = append(keys, k)
					vals = append(vals, old)
					counter++
					news = append(news, uint64(w)<<40|counter|1<<62)
					delete(valOf, k) // reserve: no duplicate in this batch
				}
			}
			if len(keys) == 0 {
				continue
			}
			ack.contended(keys)
			t0 := time.Now()
			swapped, _, err := cl.CompareSwap(ctx, keys, vals, news)
			if done := tally(&res, cancel, ctx, err, len(keys), t0); done {
				return res
			}
			if err == nil {
				for i, ok := range swapped {
					if !ok {
						// Nothing else writes this worker's keys: a failed
						// swap means the key or its value went missing.
						log.Printf("worker %d: CAS lost key %d", w, keys[i])
						res.errors++
						continue
					}
					valOf[keys[i]] = news[i]
				}
			}
		default:
			for i := 0; i < cfg.batch; i++ {
				k := nextKey()
				keys = append(keys, k)
				vals = append(vals, k>>1)
			}
			t0 := time.Now()
			var tok client.ReadToken
			var err error
			if cfg.ttlFrac > 0 && rng.Float64() < cfg.ttlFrac {
				// UPSERTTTL with a far deadline: the acked value (and the
				// deadline record behind it) must survive a crash exactly
				// like a plain insert, and the key stays visible to verify.
				deadlines := make([]uint64, len(keys))
				far := client.DeadlineAfter(24 * time.Hour)
				for i := range deadlines {
					deadlines[i] = far
				}
				tok, err = cl.UpsertTTL(ctx, keys, vals, deadlines)
			} else {
				tok, err = cl.Insert(ctx, keys, vals)
			}
			if done := tally(&res, cancel, ctx, err, cfg.batch, t0); done {
				return res
			}
			if err == nil {
				res.ackedInserts += int64(len(keys))
				ack.inserts(keys, vals)
				history = append(history, keys...)
				if valOf != nil {
					for i := range keys {
						valOf[keys[i]] = vals[i]
					}
				}
				// Read-your-writes across replication: re-read a sample of
				// acked batches on the replica, carrying the batch's token.
				// The token obliges the replica to serve these exact writes
				// (or answer BEHIND); anything else is a violation.
				if rcl != nil && rng.Intn(4) == 0 {
					rcl = replicaCheck(ctx, rcl, &res, w, keys, vals, tok, false)
				}
			}
		}
	}
	return res
}

// overlapWorker is the contended-mode loop: every worker upserts into
// the same keyspace [1, cfg.overlap], Zipf-skewed toward low ranks with
// -dist zipf, so hot keys take concurrent writes from many connections
// — exactly the interleaving that used to permute the ship log against
// apply order. Values stay globally unique (worker|counter) so a
// convergence diff can tell WHICH write each node kept; the workers
// themselves make no value claims, only presence ones.
func overlapWorker(ctx context.Context, cancel context.CancelFunc, cl, rcl *client.Client, cfg runConfig, w int, ack *ackLog) workerResult {
	var res workerResult
	rng := xrand.New(cfg.seed + uint64(w)*0x9e3779b97f4a7c15)
	zipf := workload.MakeRecencyZipf(cfg.zipfExp)
	var (
		counter uint64
		keys    = make([]uint64, 0, cfg.batch)
		vals    = make([]uint64, 0, cfg.batch)
	)
	pick := func() uint64 {
		if cfg.zipf {
			return uint64(zipf.Rank(rng, cfg.overlap) + 1)
		}
		return uint64(rng.Intn(cfg.overlap) + 1)
	}
	for ctx.Err() == nil {
		keys = keys[:0]
		vals = vals[:0]
		for i := 0; i < cfg.batch; i++ {
			counter++
			keys = append(keys, pick())
			vals = append(vals, uint64(w)<<40|counter)
		}
		t0 := time.Now()
		tok, err := cl.Upsert(ctx, keys, vals)
		if done := tally(&res, cancel, ctx, err, cfg.batch, t0); done {
			return res
		}
		if err == nil {
			res.ackedInserts += int64(len(keys))
			ack.contended(keys)
			if rcl != nil && rng.Intn(4) == 0 {
				rcl = replicaCheck(ctx, rcl, &res, w, keys, vals, tok, true)
			}
		}
	}
	return res
}

// replicaCheck re-reads one acked insert batch on the replica with its
// token, tallying violations. It returns the replica client to keep
// using — nil after a connection-level failure (the replica died; the
// run against the primary continues, checks just stop). presenceOnly
// relaxes the value claim for contended keys: a concurrent writer may
// legitimately overwrite between this worker's ack and its re-read, so
// only a MISSING key violates the token there.
func replicaCheck(ctx context.Context, rcl *client.Client, res *workerResult, w int, keys, vals []uint64, tok client.ReadToken, presenceOnly bool) *client.Client {
	res.tokenChecks++
	got, found, err := rcl.Lookup(ctx, keys, tok)
	switch {
	case err == nil:
		for i := range keys {
			if !found[i] || (!presenceOnly && got[i] != vals[i]) {
				res.tokenViols++
				if res.tokenViols <= 10 {
					log.Printf("worker %d: TOKEN VIOLATION key %d on replica: (%d,%v), want (%d,true) at lsn %d",
						w, keys[i], got[i], found[i], vals[i], tok.LSN)
				}
			}
		}
	case client.IsBehind(err):
		res.tokenBehind++
	case ctx.Err() != nil:
		// Run over; not a replica problem.
	default:
		var se *client.ServerError
		if errors.As(err, &se) {
			res.tokenViols++
			log.Printf("worker %d: replica error for token read: %v", w, err)
		} else {
			log.Printf("worker %d: replica connection lost (checks stop): %v", w, err)
			return nil
		}
	}
	return rcl
}

// tally records one request's outcome and latency. It returns true when
// the worker should stop: the run deadline passed, or the connection
// died (which also cancels the whole run — a dead server ends the run
// for everyone, successfully, with the ack log intact).
func tally(res *workerResult, cancel context.CancelFunc, ctx context.Context, err error, ops int, t0 time.Time) bool {
	if err == nil {
		res.ops += int64(ops)
		res.lat.Add(int(time.Since(t0).Microseconds()))
		return false
	}
	if ctx.Err() != nil {
		return true // deadline, not a failure
	}
	var se *client.ServerError
	if errors.As(err, &se) {
		res.errors++
		return false // per-request server error; keep going
	}
	// Connection-level failure: the server is gone.
	res.errors++
	res.fatal = err
	cancel()
	return true
}

// percentile returns the q-quantile of the histogram's values.
func percentile(h *stats.Histogram, q float64) int {
	total := h.Total()
	if total == 0 {
		return 0
	}
	want := int64(q * float64(total))
	var seen int64
	vs := h.Values()
	sort.Ints(vs)
	for _, v := range vs {
		seen += h.Count(v)
		if seen > want {
			return v
		}
	}
	return vs[len(vs)-1]
}

// parseAckLog reads an acked-write log into the value-checked live set
// ("i" lines) and the presence-only contended set ("k" lines); "d"
// lines conservatively remove from both.
func parseAckLog(path string) (live map[uint64]uint64, present map[uint64]bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	live = make(map[uint64]uint64)
	present = make(map[uint64]bool)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 3 && fields[0] == "i":
			k, err1 := strconv.ParseUint(fields[1], 10, 64)
			v, err2 := strconv.ParseUint(fields[2], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, nil, fmt.Errorf("acklog line %d: %q", line, sc.Text())
			}
			live[k] = v
		case len(fields) == 2 && fields[0] == "k":
			k, err1 := strconv.ParseUint(fields[1], 10, 64)
			if err1 != nil {
				return nil, nil, fmt.Errorf("acklog line %d: %q", line, sc.Text())
			}
			present[k] = true
		case len(fields) == 2 && fields[0] == "d":
			k, err1 := strconv.ParseUint(fields[1], 10, 64)
			if err1 != nil {
				return nil, nil, fmt.Errorf("acklog line %d: %q", line, sc.Text())
			}
			delete(live, k)
			delete(present, k)
		default:
			return nil, nil, fmt.Errorf("acklog line %d: %q", line, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return live, present, nil
}

// verify replays an acked-write log against the server: every key the
// log leaves live must be present — with its logged value for "i"
// records, any value for contended "k" records — and the server's Len
// must cover the log's live set. Exits nonzero via error on any
// acked-write loss.
func verify(cl *client.Client, path string, batch int) error {
	live, present, err := parseAckLog(path)
	if err != nil {
		return err
	}
	// A key both inserted and contended is checked presence-only.
	for k := range present {
		delete(live, k)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	keys := make([]uint64, 0, batch)
	wants := make([]uint64, 0, batch)
	var checked, missing, mismatched int
	flush := func(valCheck bool) error {
		if len(keys) == 0 {
			return nil
		}
		vals, found, err := cl.Lookup(ctx, keys, client.ReadToken{})
		if err != nil {
			return err
		}
		for i := range keys {
			checked++
			switch {
			case !found[i]:
				missing++
				if missing <= 10 {
					log.Printf("MISSING acked key %d", keys[i])
				}
			case valCheck && vals[i] != wants[i]:
				mismatched++
				if mismatched <= 10 {
					log.Printf("MISMATCH key %d: got %d, want %d", keys[i], vals[i], wants[i])
				}
			}
		}
		keys = keys[:0]
		wants = wants[:0]
		return nil
	}
	for k, v := range live {
		keys = append(keys, k)
		wants = append(wants, v)
		if len(keys) == batch {
			if err := flush(true); err != nil {
				return err
			}
		}
	}
	if err := flush(true); err != nil {
		return err
	}
	for k := range present {
		keys = append(keys, k)
		wants = append(wants, 0)
		if len(keys) == batch {
			if err := flush(false); err != nil {
				return err
			}
		}
	}
	if err := flush(false); err != nil {
		return err
	}
	n, err := cl.Len(ctx)
	if err != nil {
		return err
	}
	liveSet := len(live) + len(present)
	fmt.Printf("verified %d acked writes: %d missing, %d mismatched; server Len=%d (acked live set %d)\n",
		checked, missing, mismatched, n, liveSet)
	if missing > 0 || mismatched > 0 {
		return fmt.Errorf("acked-write loss: %d missing, %d mismatched of %d", missing, mismatched, checked)
	}
	if n < liveSet {
		return fmt.Errorf("server Len %d below acked live set %d", n, liveSet)
	}
	fmt.Println("VERIFY OK")
	return nil
}

// diffConverged waits for the two nodes to report the same applied LSN
// — with no writers running, both horizons are static once the stream
// drains — then reads every key the acklog mentions on both and fails
// on any presence or value difference. This is the convergence gate for
// contended runs: token checks prove read-your-writes during the run,
// the diff proves the replica ended bit-identical on the contended set.
func diffConverged(cl, rcl *client.Client, path string, batch int) error {
	live, present, err := parseAckLog(path)
	if err != nil {
		return err
	}
	all := make([]uint64, 0, len(live)+len(present))
	for k := range live {
		all = append(all, k)
	}
	for k := range present {
		if _, dup := live[k]; !dup {
			all = append(all, k)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var aLSN, bLSN uint64
	for {
		a, err := cl.Info(ctx)
		if err != nil {
			return fmt.Errorf("primary info: %w", err)
		}
		b, err := rcl.Info(ctx)
		if err != nil {
			return fmt.Errorf("replica info: %w", err)
		}
		aLSN, bLSN = a.AppliedLSN, b.AppliedLSN
		if aLSN == bLSN {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("nodes never converged: applied %d vs %d", aLSN, bLSN)
		case <-time.After(50 * time.Millisecond):
		}
	}

	var checked, diffs int
	for base := 0; base < len(all); base += batch {
		end := base + batch
		if end > len(all) {
			end = len(all)
		}
		keys := all[base:end]
		av, af, err := cl.Lookup(ctx, keys, client.ReadToken{})
		if err != nil {
			return fmt.Errorf("primary read: %w", err)
		}
		bv, bf, err := rcl.Lookup(ctx, keys, client.ReadToken{})
		if err != nil {
			return fmt.Errorf("replica read: %w", err)
		}
		for i := range keys {
			checked++
			if af[i] != bf[i] || (af[i] && av[i] != bv[i]) {
				diffs++
				if diffs <= 10 {
					log.Printf("DIFF key %d: primary (%d,%v), replica (%d,%v)",
						keys[i], av[i], af[i], bv[i], bf[i])
				}
			}
		}
	}
	fmt.Printf("converged at lsn %d; diffed %d keys: %d differences\n", aLSN, checked, diffs)
	fmt.Printf("DIFFSUMMARY lsn=%d keys=%d diffs=%d\n", aLSN, checked, diffs)
	if diffs > 0 {
		return fmt.Errorf("replica divergence: %d of %d keys differ", diffs, checked)
	}
	fmt.Println("CONVERGED OK")
	return nil
}
