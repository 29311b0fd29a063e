// Command hashload is a closed-loop load generator for hashserved, and
// the judge of the crash, failover and convergence gates run with it.
//
// Load: -workers goroutines each send a batch request of -batch keys
// over a pooled client connection, wait for its response and send the
// next, so offered load adapts to what the server sustains. Every mode
// is the same loop driven by a mix: the fraction of requests of each
// kind (read, insert, update, delete, CAS, scan, read-modify-write) and
// the keyspace they address.
//
//   - The owned mix (default): each worker owns a disjoint keyspace and
//     inserts fresh keys into it; -lookupfrac, -deletefrac and -casfrac
//     of its requests read, delete and swap keys it inserted, picked
//     uniformly or skewed to the newest (-dist zipf).
//   - -overlap N: every request upserts one shared space of N keys
//     (Zipf-skewed with -dist zipf), so hot keys take concurrent writes
//     from many connections: the §2a total-write-order trigger.
//   - -ycsb A..F: the YCSB workloads over one shared space of -records
//     keys, preloaded before the clock starts (see ycsbMixes).
//
// -ttlfrac sends that fraction of insert and update requests as
// UPSERTTTL with a deadline a day away.
//
// Claims: -acklog FILE records what the server acked (see ackLog); a
// run tolerates the server dying mid-run. -verify FILE replays the log
// against a restarted server and fails if any acked write is missing.
// -replica ADDR re-reads a quarter of the acked write batches on a read
// replica with the batch's ReadToken: a missing key, or a wrong value
// for an owned key, is a token violation; a BEHIND answer is counted
// apart. -diff FILE (with -replica) waits until both nodes report the
// same applied LSN, then fails on any difference in value or presence
// of a key the log names. -promote makes the node at -addr the
// writable primary.
//
// Report: ops, ops_per_sec and each <kind>_ops count key operations in
// every mode; a scan page counts the entries it returned and a
// read-modify-write counts each key once. Latency is per request, by
// kind. The run ends with one machine-readable line, which -summary
// FILE also writes as JSON:
//
//	SUMMARY [workload=W] ops=... errors=... disconnected=0 seconds=... ops_per_sec=... acked_inserts=... p50_us=... p95_us=... p99_us=... token_checks=... token_behind=... token_violations=... cas_failed=... [<kind>_ops=... <kind>_p50_us=... <kind>_p95_us=... <kind>_p99_us=...]...
//
// Exit status: a run that counted errors exits 1, unless it lost its
// connection. A lost connection ends the run for every worker, still
// counts in errors, and exits 0 with disconnected=1: the kill phases
// kill the server under load on purpose.
//
// Usage:
//
//	hashload -addr HOST:PORT [-conns 4] [-workers 16] [-pipeline 16]
//	         [-batch 256] [-duration 10s] [-lookupfrac 0.5]
//	         [-deletefrac 0] [-casfrac 0] [-ttlfrac 0] [-dist uniform|zipf]
//	         [-seed 42] [-acklog FILE] [-summary FILE] [-replica HOST:PORT]
//	         [-overlap N | -ycsb A|B|C|D|E|F [-records N]]
//	hashload -addr HOST:PORT -verify FILE
//	hashload -addr HOST:PORT -replica HOST:PORT -diff FILE
//	hashload -addr HOST:PORT -promote
package main

import (
	"bufio"
	"context"
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
		dist       = flag.String("dist", "uniform", "key skew of owned reads and -overlap writes: uniform or zipf (-ycsb is always zipf)")
		seed       = flag.Uint64("seed", 42, "workload seed")
		ackPath    = flag.String("acklog", "", "append acked mutations to this log")
		verifyPath = flag.String("verify", "", "verify an acked-write log against the server and exit")
		sumPath    = flag.String("summary", "", "write a JSON summary here")
		replica    = flag.String("replica", "", "read replica address: verify token reads there during the run")
		promote    = flag.Bool("promote", false, "promote the node at -addr to writable primary and exit")
		overlap    = flag.Int("overlap", 0, "contended mode: all workers upsert one shared keyspace of N keys")
		diffPath   = flag.String("diff", "", "wait for -addr and -replica to converge, diff the keys in this acklog, and exit")
		ycsb       = flag.String("ycsb", "", "run a YCSB workload (A, B, C, D, E or F) instead of the owned mix")
		records    = flag.Int("records", 100000, "ycsb: records preloaded before the timed run")
		ttlFrac    = flag.Float64("ttlfrac", 0, "fraction of insert and update batches issued as UPSERTTTL with a far deadline")
		casFrac    = flag.Float64("casfrac", 0, "owned mix: fraction of CAS batches swapping owned keys to fresh values")
	)
	flag.Parse()
	if *addr == "" {
		log.Fatal("-addr is required")
	}

	opts := client.Options{Conns: *conns, Pipeline: *pipeline, DialTimeout: 10 * time.Second}
	cl, err := client.Dial(*addr, opts)
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
		if rcl, err = client.Dial(*replica, opts); err != nil {
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

	m, err := newMix(*ycsb, *records, *overlap, *lookupFrac, *deleteFrac, *casFrac)
	if err != nil {
		log.Fatal(err)
	}
	res, elapsed := run(cl, rcl, config{
		workers:  *workers,
		batch:    *batch,
		duration: *duration,
		seed:     *seed,
		mix:      m,
		zipf:     *dist == "zipf" || *ycsb != "",
		ttlFrac:  *ttlFrac,
		ackPath:  *ackPath,
	})
	if err := report(&res, strings.ToUpper(*ycsb), elapsed, *sumPath); err != nil {
		log.Fatalf("summary: %v", err)
	}
	if res.errors > 0 && res.fatal == nil {
		log.Fatalf("%d errors", res.errors)
	}
}

// ackLog serializes mutation records from all workers into one
// buffered file. Lines: "i <key> <val>" for owned inserts — written
// only after the server acked the batch durable — and "d <key>" for
// deletes, written when the delete is ISSUED: an unacked delete may
// still have applied durably, so issue-time logging conservatively
// removes the key from the verified set instead of falsely claiming
// it live (see verify). A CAS of owned keys logs "k <key>" when issued
// for the same reason: the swap leaves either value behind, but never
// loses the key. Shared-space writes log "k <key>" after the ack: the
// key is durably present, but which worker's value won it is the
// server's call, so verification is presence-only.
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

// write appends one line per key: "<tag> <key> <val>" with vals,
// "<tag> <key>" without.
func (a *ackLog) write(tag byte, keys, vals []uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	for i, k := range keys {
		if vals != nil {
			fmt.Fprintf(a.w, "%c %d %d\n", tag, k, vals[i])
		} else {
			fmt.Fprintf(a.w, "%c %d\n", tag, k)
		}
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
