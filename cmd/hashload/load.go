package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"extbuf/client"
	"extbuf/internal/stats"
	"extbuf/internal/workload"
	"extbuf/internal/xrand"
)

// kind is one kind of request; it indexes a result's per-kind counts
// and latency histograms.
type kind int

const (
	read kind = iota
	insert
	update
	del
	cas
	scan
	rmw
	nKinds
)

var kindNames = [nKinds]string{"read", "insert", "update", "delete", "cas", "scan", "rmw"}

const (
	zipfExp = 1.5 // recency skew of -dist zipf and of the YCSB mixes
	scanLen = 100 // entries per scan page
)

// mix is what the workers send: the fraction of requests of each kind
// and the keyspace they address. In the owned space (shared == 0) each
// worker inserts fresh keys of its own and reads, deletes and swaps
// only those. In the shared space every worker addresses the keys
// [1, n], where n starts at shared and grows with the inserts, so
// writes race each other.
type mix struct {
	frac    [nKinds]float64
	shared  int
	preload bool // upsert the shared space before the clock starts
}

// ycsbMixes are the YCSB workloads. Each runs over a preloaded shared
// space, and its reads, updates and read-modify-writes are Zipf-skewed
// to the newest keys, which for D is "the latest":
//
//	A  update-heavy   50% read  / 50% update
//	B  read-mostly    95% read  /  5% update
//	C  read-only     100% read
//	D  read-latest    95% read  /  5% insert
//	E  scan-heavy     95% cursor-page scan / 5% insert
//	F  read-modify    50% read  / 50% read-modify-write via CAS
var ycsbMixes = map[string][nKinds]float64{
	"A": {read: 0.5, update: 0.5},
	"B": {read: 0.95, update: 0.05},
	"C": {read: 1},
	"D": {read: 0.95, insert: 0.05},
	"E": {scan: 0.95, insert: 0.05},
	"F": {read: 0.5, rmw: 0.5},
}

// newMix returns the mix the flags select: YCSB workload ycsb over a
// preloaded space of records keys, the contended -overlap mode (every
// request upserts a space of overlap keys), or the owned mix, which
// inserts with what the other fractions leave.
func newMix(ycsb string, records, overlap int, lookupFrac, deleteFrac, casFrac float64) (mix, error) {
	var m mix
	switch {
	case ycsb != "":
		frac, ok := ycsbMixes[strings.ToUpper(ycsb)]
		if !ok {
			return m, fmt.Errorf("unknown YCSB workload %q (have A-F)", ycsb)
		}
		if records < 1 {
			return m, fmt.Errorf("-records %d: YCSB needs a preloaded record", records)
		}
		return mix{frac: frac, shared: records, preload: true}, nil
	case overlap > 0:
		m.shared = overlap
		m.frac[update] = 1
	default:
		m.frac[read], m.frac[del], m.frac[cas] = lookupFrac, deleteFrac, casFrac
		m.frac[insert] = max(0, 1-lookupFrac-deleteFrac-casFrac)
	}
	return m, nil
}

// draw picks the kind of a request for a uniform r in [0, 1).
func (m *mix) draw(r float64) (k kind) {
	for i, f := range m.frac {
		if f > 0 {
			k = kind(i)
			if r < f {
				break
			}
			r -= f
		}
	}
	return k
}

// config is one load run.
type config struct {
	workers, batch int
	duration       time.Duration
	seed           uint64
	mix            mix
	zipf           bool    // skew the keys picked for reads and updates to the newest
	ttlFrac        float64 // fraction of insert and update requests sent as UPSERTTTL
	ackPath        string
}

// result is one worker's tallies, or the sum of all of them.
type result struct {
	ops          [nKinds]int64           // key operations acked
	lat          [nKinds]stats.Histogram // per-request latency, µs
	errors       int64
	ackedInserts int64 // keys of acked insert and update requests
	casFailed    int64 // read-modify-writes a racing writer beat to the swap
	tokenChecks  int64 // token-carrying replica reads issued
	tokenBehind  int64 // replica answered BEHIND (allowed; client re-routes)
	tokenViols   int64 // replica read missed an acked, token-covered write
	fatal        error // connection-level failure that ended the run
}

func (r *result) add(o *result) {
	for k := range nKinds {
		r.ops[k] += o.ops[k]
		for _, v := range o.lat[k].Values() {
			r.lat[k].AddN(v, o.lat[k].Count(v))
		}
	}
	r.errors += o.errors
	r.ackedInserts += o.ackedInserts
	r.casFailed += o.casFailed
	r.tokenChecks += o.tokenChecks
	r.tokenBehind += o.tokenBehind
	r.tokenViols += o.tokenViols
	if r.fatal == nil {
		r.fatal = o.fatal
	}
}

// run preloads the shared space if the mix asks for it, then runs
// cfg.workers closed loops until cfg.duration passes or the connection
// dies. It returns their summed result and the timed wall time.
func run(cl, rcl *client.Client, cfg config) (result, time.Duration) {
	ack, err := openAckLog(cfg.ackPath)
	if err != nil {
		log.Fatalf("acklog: %v", err)
	}
	var frontier *atomic.Uint64
	if cfg.mix.shared > 0 {
		frontier = new(atomic.Uint64)
		frontier.Store(uint64(cfg.mix.shared))
		if cfg.mix.preload {
			preload(cl, cfg)
		}
	}

	far := slices.Repeat([]uint64{client.DeadlineAfter(24 * time.Hour)}, cfg.batch)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()
	results := make([]result, cfg.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{
				id:       uint64(i),
				cfg:      &cfg,
				cl:       cl,
				rcl:      rcl,
				ack:      ack,
				rng:      xrand.New(cfg.seed + uint64(i)*0x9e3779b97f4a7c15),
				zipf:     workload.MakeRecencyZipf(zipfExp),
				frontier: frontier,
				far:      far,
				keys:     make([]uint64, 0, cfg.batch),
				vals:     make([]uint64, 0, cfg.batch),
				vals2:    make([]uint64, 0, cfg.batch),
			}
			if frontier == nil && cfg.mix.frac[cas] > 0 {
				w.valOf = make(map[uint64]uint64)
			}
			for ctx.Err() == nil && w.step(ctx, cancel) {
			}
			results[i] = w.res
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ack.close(); err != nil {
		log.Fatalf("acklog: %v", err)
	}
	var total result
	for i := range results {
		total.add(&results[i])
	}
	if total.fatal != nil {
		log.Printf("server connection lost mid-run (tolerated); acked log is authoritative")
	}
	return total, elapsed
}

// preload upserts the shared space's keys, each with itself as value,
// pipelining the batches.
func preload(cl *client.Client, cfg config) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	t0 := time.Now()
	var pending []*client.Pending
	keys := make([]uint64, 0, cfg.batch)
	for k := 1; k <= cfg.mix.shared; k++ {
		if keys = append(keys, uint64(k)); len(keys) == cfg.batch || k == cfg.mix.shared {
			p, err := cl.GoUpsert(keys, keys)
			if err != nil {
				log.Fatalf("preload: %v", err)
			}
			pending, keys = append(pending, p), keys[:0]
		}
	}
	for _, p := range pending {
		if err := p.Wait(ctx); err != nil {
			log.Fatalf("preload: %v", err)
		}
	}
	log.Printf("preloaded %d records in %v", cfg.mix.shared, time.Since(t0).Round(time.Millisecond))
}

// worker is one closed loop: it sends a request, waits for the response,
// tallies it and makes the claims it allows, then sends the next.
type worker struct {
	id                uint64
	cfg               *config
	cl, rcl           *client.Client // rcl: nil without -replica, or once the replica is lost
	ack               *ackLog
	rng               *xrand.Rand
	zipf              workload.RecencyZipf
	frontier          *atomic.Uint64 // the shared space's highest key; nil in the owned space
	far               []uint64       // a batch of UPSERTTTL deadlines, a day away
	res               result
	counter           uint64            // see fresh
	cursor            uint64            // the next scan page
	owned             []uint64          // owned space: keys inserted and not deleted
	valOf             map[uint64]uint64 // owned space: each key's current value (CAS mixes)
	keys, vals, vals2 []uint64          // request buffers
}

// step sends one request of a kind the mix draws and handles its
// response. It returns false when the worker should stop.
func (w *worker) step(ctx context.Context, cancel context.CancelFunc) bool {
	b := w.cfg.batch
	k := w.cfg.mix.draw(w.rng.Float64())
	// The owned space reads once it holds a batch of keys, and deletes
	// and swaps once it holds two; until then it inserts.
	if w.frontier == nil && (k == read && len(w.owned) < b || (k == del || k == cas) && len(w.owned) < 2*b) {
		k = insert
	}
	keys, vals := w.keys[:0], w.vals[:0]
	switch k {
	case read:
		for range b {
			keys = append(keys, w.pick())
		}
		t0 := time.Now()
		_, found, err := w.cl.Lookup(ctx, keys, client.ReadToken{})
		if w.tally(ctx, cancel, k, len(keys), err, t0) {
			return false
		}
		for i, ok := range found {
			// Read-your-writes: an owned key must be visible, and so must a
			// preloaded one (nothing deletes in the shared space). A key
			// past the preload may still be in flight.
			if !ok && (w.frontier == nil || w.cfg.mix.preload && keys[i] <= uint64(w.cfg.mix.shared)) {
				log.Printf("worker %d: lost key %d", w.id, keys[i])
				w.res.errors++
			}
		}
	case insert, update:
		for range b {
			var key, val uint64
			switch {
			case k == update:
				key, val = w.pick(), w.fresh()
			case w.frontier != nil:
				key, val = w.frontier.Add(1), w.fresh()
			default:
				key = xrand.Mix64(w.fresh())
				val = key >> 1
			}
			keys, vals = append(keys, key), append(vals, val)
		}
		t0 := time.Now()
		var tok client.ReadToken
		var err error
		switch {
		case w.cfg.ttlFrac > 0 && w.rng.Float64() < w.cfg.ttlFrac:
			tok, err = w.cl.UpsertTTL(ctx, keys, vals, w.far[:len(keys)])
		case w.frontier == nil:
			tok, err = w.cl.Insert(ctx, keys, vals)
		default:
			tok, err = w.cl.Upsert(ctx, keys, vals)
		}
		if w.tally(ctx, cancel, k, len(keys), err, t0) {
			return false
		}
		if err == nil {
			w.acked(ctx, keys, vals, tok)
		}
	case del:
		for range b {
			j := w.rng.Intn(len(w.owned))
			keys = append(keys, w.owned[j])
			delete(w.valOf, w.owned[j])
			w.owned[j] = w.owned[len(w.owned)-1]
			w.owned = w.owned[:len(w.owned)-1]
		}
		w.ack.write('d', keys, nil)
		t0 := time.Now()
		_, _, err := w.cl.Delete(ctx, keys)
		if w.tally(ctx, cancel, k, len(keys), err, t0) {
			return false
		}
	case cas:
		// Swap distinct owned keys from their tracked value to a fresh one.
		news := w.vals2[:0]
		for tries := 0; len(keys) < b && tries < 4*b; tries++ {
			key := w.owned[w.rng.Intn(len(w.owned))]
			if old, ok := w.valOf[key]; ok {
				keys, vals = append(keys, key), append(vals, old)
				news = append(news, w.fresh()|1<<62)
				delete(w.valOf, key) // reserved: no key twice in one batch
			}
		}
		if len(keys) == 0 {
			return true
		}
		w.ack.write('k', keys, nil)
		t0 := time.Now()
		swapped, _, err := w.cl.CompareSwap(ctx, keys, vals, news)
		if w.tally(ctx, cancel, k, len(keys), err, t0) {
			return false
		}
		for i, ok := range swapped {
			if !ok {
				// Nothing else writes this worker's keys: a failed swap
				// means the key or its value went missing.
				log.Printf("worker %d: CAS lost key %d", w.id, keys[i])
				w.res.errors++
				continue
			}
			w.valOf[keys[i]] = news[i]
		}
	case scan:
		t0 := time.Now()
		page, _, next, err := w.cl.Scan(ctx, w.cursor, scanLen)
		if w.tally(ctx, cancel, k, len(page), err, t0) {
			return false
		}
		if w.cursor = next; next == client.ScanDone {
			w.cursor = 0
		}
	case rmw:
		// Distinct keys: a second swap of one key in the same request
		// would fail by construction, drowning the real contention signal.
		for range b {
			keys = append(keys, w.pick())
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		// The unit is the whole read-modify-write: time both round trips
		// as one request. A lost swap (a writer raced us between read and
		// swap) is contention, not failure.
		t0 := time.Now()
		olds, found, err := w.cl.Lookup(ctx, keys, client.ReadToken{})
		n := 0
		if err == nil {
			news := w.vals2[:0]
			for i, key := range keys {
				if found[i] { // a key past the preload may still be in flight
					keys[n], olds[n] = key, olds[i]
					news = append(news, w.fresh())
					n++
				}
			}
			var swapped []bool
			swapped, _, err = w.cl.CompareSwap(ctx, keys[:n], olds[:n], news)
			for _, ok := range swapped {
				if !ok {
					w.res.casFailed++
				}
			}
		}
		if w.tally(ctx, cancel, k, len(keys), err, t0) {
			return false
		}
		if err == nil {
			w.ack.write('k', keys[:n], nil)
		}
	}
	return true
}

// fresh returns a number no worker has used before: values are unique,
// so -diff can tell which write each node kept.
func (w *worker) fresh() uint64 {
	w.counter++
	return w.id<<40 | w.counter
}

// pick draws an existing key, uniformly or (with zipf) skewed to the
// newest: from the worker's own keys, or from the shared space.
func (w *worker) pick() uint64 {
	n := len(w.owned)
	if w.frontier != nil {
		n = int(w.frontier.Load())
	}
	var r int // rank from the newest key
	if w.cfg.zipf {
		r = w.zipf.Rank(w.rng, n)
	} else {
		r = w.rng.Intn(n)
	}
	if w.frontier != nil {
		return uint64(n - r)
	}
	return w.owned[n-1-r]
}

// acked makes the claims an acked insert or update batch allows: in the
// acked-write log, in the owned space, and, for a sample of batches, by
// re-reading the batch on the replica with its token. The token obliges
// the replica to serve these writes (or answer BEHIND).
func (w *worker) acked(ctx context.Context, keys, vals []uint64, tok client.ReadToken) {
	w.res.ackedInserts += int64(len(keys))
	if w.frontier != nil {
		w.ack.write('k', keys, nil)
	} else {
		w.ack.write('i', keys, vals)
		w.owned = append(w.owned, keys...)
		if w.valOf != nil {
			for i, key := range keys {
				w.valOf[key] = vals[i]
			}
		}
	}
	if w.rcl != nil && w.rng.Intn(4) == 0 {
		w.replicaCheck(ctx, keys, vals, tok)
	}
}

// replicaCheck re-reads one acked write batch on the replica with its
// token, tallying violations. A connection-level failure drops the
// replica (it died; the run against the primary goes on, the checks
// stop). A shared key is checked for presence only: a concurrent writer
// may legitimately overwrite it between this worker's ack and its
// re-read.
func (w *worker) replicaCheck(ctx context.Context, keys, vals []uint64, tok client.ReadToken) {
	w.res.tokenChecks++
	got, found, err := w.rcl.Lookup(ctx, keys, tok)
	var se *client.ServerError
	switch {
	case err == nil:
		for i := range keys {
			if !found[i] || (w.frontier == nil && got[i] != vals[i]) {
				w.res.tokenViols++
				if w.res.tokenViols <= 10 {
					log.Printf("worker %d: TOKEN VIOLATION key %d on replica: (%d,%v), want (%d,true) at lsn %d",
						w.id, keys[i], got[i], found[i], vals[i], tok.LSN)
				}
			}
		}
	case client.IsBehind(err):
		w.res.tokenBehind++
	case ctx.Err() != nil:
		// Run over; not a replica problem.
	case errors.As(err, &se):
		w.res.tokenViols++
		log.Printf("worker %d: replica error for token read: %v", w.id, err)
	default:
		log.Printf("worker %d: replica connection lost (checks stop): %v", w.id, err)
		w.rcl = nil
	}
}

// tally records one request's outcome: n key operations of kind k and
// the request's latency. It returns true when the worker should stop:
// the run deadline passed, or the connection died, which also cancels
// the run: a dead server ends it for everyone, with the ack log intact.
func (w *worker) tally(ctx context.Context, cancel context.CancelFunc, k kind, n int, err error, t0 time.Time) bool {
	if err == nil {
		w.res.ops[k] += int64(n)
		w.res.lat[k].Add(int(time.Since(t0).Microseconds()))
		return false
	}
	if ctx.Err() != nil {
		return true // deadline, not a failure
	}
	w.res.errors++
	var se *client.ServerError
	if errors.As(err, &se) {
		return false // per-request server error; keep going
	}
	w.res.fatal = err
	cancel()
	return true
}

// report prints the run's per-kind table and its SUMMARY line, and
// writes the same fields as JSON to sumPath unless it is empty.
func report(res *result, workload string, elapsed time.Duration, sumPath string) error {
	var all stats.Histogram
	var ops int64
	for k := range nKinds {
		ops += res.ops[k]
		for _, v := range res.lat[k].Values() {
			all.AddN(v, res.lat[k].Count(v))
		}
	}
	line := "SUMMARY"
	js := map[string]any{}
	if workload != "" {
		line += " workload=" + workload
		js["workload"] = workload
	}
	field := func(name, format string, v any) {
		s := fmt.Sprintf(format, v)
		line += " " + name + "=" + s
		js[name] = json.Number(s)
	}
	// percentiles prints one row of the table and adds its latency fields.
	percentiles := func(label, prefix string, ops int64, h *stats.Histogram) {
		p50, p95, p99 := percentile(h, 0.50), percentile(h, 0.95), percentile(h, 0.99)
		fmt.Printf("%-7s %12d ops   p50 %6d µs   p95 %6d µs   p99 %6d µs\n", label, ops, p50, p95, p99)
		field(prefix+"p50_us", "%d", p50)
		field(prefix+"p95_us", "%d", p95)
		field(prefix+"p99_us", "%d", p99)
	}
	disconnected := 0
	if res.fatal != nil {
		disconnected = 1
	}
	secs := elapsed.Seconds()
	field("ops", "%d", ops)
	field("errors", "%d", res.errors)
	field("disconnected", "%d", disconnected)
	field("seconds", "%.3f", secs)
	field("ops_per_sec", "%.0f", float64(ops)/secs)
	field("acked_inserts", "%d", res.ackedInserts)
	percentiles("all", "", ops, &all)
	field("token_checks", "%d", res.tokenChecks)
	field("token_behind", "%d", res.tokenBehind)
	field("token_violations", "%d", res.tokenViols)
	field("cas_failed", "%d", res.casFailed)
	for k := range nKinds {
		if res.ops[k] > 0 {
			field(kindNames[k]+"_ops", "%d", res.ops[k])
			percentiles(kindNames[k], kindNames[k]+"_", res.ops[k], &res.lat[k])
		}
	}
	fmt.Println(line)
	if sumPath == "" {
		return nil
	}
	out, err := json.MarshalIndent(js, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(sumPath, append(out, '\n'), 0o644)
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
