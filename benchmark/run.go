package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"extbuf"
	"extbuf/client"
	"extbuf/internal/server"
)

// setupAttempts is how many times a run sets up from scratch; setup_s is
// the fastest quiet attempt. setupReadings handoff readings are taken
// before the first attempt and after each.
const (
	setupAttempts = 3
	setupReadings = 3
)

// runTimeout bounds all of a run's waits on the server together and
// shutdownTimeout a server's drain, so a wedged stack fails the run
// instead of hanging it.
const (
	runTimeout      = 170 * time.Second
	shutdownTimeout = 30 * time.Second
)

func engineConfig(sp *spec, path string) extbuf.Config {
	cfg := extbuf.Config{BlockSize: 64, MemoryWords: 1024, Beta: 8}
	if sp.file {
		cfg.Backend, cfg.Path, cfg.CacheBlocks = "file", path, poolBlocks
	}
	return cfg
}

// node is one served engine: the engine, the server in front of it and
// the loopback listener.
type node struct {
	raw    *extbuf.Sharded
	eng    extbuf.Engine // raw, or the tracing decorator around it
	path   string
	srv    *server.Server
	addr   string
	served chan error
}

func openNode(sp *spec, path string) (*node, error) {
	raw, err := extbuf.NewSharded("buffered", engineConfig(sp, path), numShards)
	if err != nil {
		return nil, err
	}
	return &node{raw: raw, eng: raw, path: path}, nil
}

// serve starts the server on a loopback listener.
func (n *node) serve(repl *server.ReplConfig) error {
	srv, err := server.NewServer(server.Config{Engine: n.eng, Repl: repl})
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.srv, n.addr, n.served = srv, lis.Addr().String(), make(chan error, 1)
	go func() { n.served <- srv.Serve(lis) }()
	return nil
}

// stopServing drains the server and closes its replication state; the
// engine stays open.
func (n *node) stopServing() error {
	if n.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	<-n.served
	err = errors.Join(err, n.srv.CloseRepl())
	n.srv = nil
	return err
}

func (n *node) close() error {
	return errors.Join(n.stopServing(), n.raw.Close())
}

// stack is everything one workload runs against.
type stack struct {
	sp       *spec
	dir      string
	primary  *node
	follower *node // replicated workloads only
	clients  []*client.Client
	ctx      context.Context // expires runTimeout after the stack was built
	cancel   context.CancelFunc
}

// replConfig names a node's replication files.
func replConfig(path, follow string) *server.ReplConfig {
	cfg := &server.ReplConfig{ShipPath: path + ".ship", StatePath: path + ".repl", Follow: follow}
	if follow == "" {
		cfg.SyncFollowers = 1
	}
	return cfg
}

// build opens the engines in a fresh directory, bulk-loads them, starts
// the servers and dials one client per worker. With a tracer the
// engines are served through the tracing decorator.
func build(sp *spec, dir string, m *model, t *tracer) (st *stack, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st = &stack{sp: sp, dir: dir}
	st.ctx, st.cancel = context.WithTimeout(context.Background(), runTimeout)
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.primary, err = openNode(sp, filepath.Join(dir, "primary")); err != nil {
		return st, err
	}
	nodes := []*node{st.primary}
	if sp.replicated {
		if st.follower, err = openNode(sp, filepath.Join(dir, "follower")); err != nil {
			return st, err
		}
		nodes = append(nodes, st.follower)
	}
	// Bulk load straight into the engines: base keys, then the keys
	// "segment -1" inserted, so the first segment has its deletes.
	keys, vals := make([]uint64, 0, preloadOps), make([]uint64, 0, preloadOps)
	flush := func() error {
		for _, n := range nodes {
			if err := n.raw.InsertBatch(keys, vals); err != nil {
				return err
			}
		}
		keys, vals = keys[:0], vals[:0]
		return nil
	}
	load := func(from, to uint64) error {
		for i := from; i < to; i++ {
			k := keyOf(i)
			keys, vals = append(keys, k), append(vals, valueOf(k, 0))
			if len(keys) == preloadOps {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return flush()
	}
	if err := load(0, uint64(sp.baseKeys)); err != nil {
		return st, err
	}
	if n := uint64(sp.insertsPerSeg()); n > 0 {
		if err := load(insertStart(sp, -1, 0), insertStart(sp, -1, 0)+n*numWorkers); err != nil {
			return st, err
		}
	}
	for _, n := range nodes {
		if err := n.raw.Flush(); err != nil {
			return st, err
		}
		if sp.reopen {
			if err := n.raw.Close(); err != nil {
				return st, err
			}
			if n.raw, err = extbuf.NewSharded("buffered", engineConfig(sp, n.path), numShards); err != nil {
				return st, err
			}
		}
		n.eng = n.raw
		if t != nil {
			prefix := "extbuf."
			if n == st.follower {
				prefix = "follower."
			}
			n.eng = &tracedEngine{Engine: n.raw, t: t, prefix: prefix}
		}
	}
	var repl *server.ReplConfig
	if sp.replicated {
		repl = replConfig(st.primary.path, "")
	}
	if err := st.primary.serve(repl); err != nil {
		return st, err
	}
	if f := st.follower; f != nil {
		if err := f.serve(replConfig(f.path, st.primary.addr)); err != nil {
			return st, err
		}
		if _, err := f.srv.Follow(st.primary.addr); err != nil {
			return st, err
		}
	}
	for w := 0; w < numWorkers; w++ {
		cl, err := client.Dial(st.primary.addr, client.Options{Conns: 1, Pipeline: inflight})
		if err != nil {
			return st, err
		}
		st.clients = append(st.clients, cl)
	}
	return st, nil
}

func (st *stack) closeClients() {
	for _, cl := range st.clients {
		cl.Close()
	}
	st.clients = nil
}

// close tears everything down, follower first so its replay loop is
// stopped rather than left retrying a dead primary.
func (st *stack) close() error {
	st.cancel()
	st.closeClients()
	var err error
	for _, n := range []*node{st.follower, st.primary} {
		if n != nil {
			err = errors.Join(err, n.close())
		}
	}
	return err
}

// worker is one closed-loop load generator: its own connection, its own
// half of the key space, inflight requests outstanding.
type worker struct {
	g  *generator
	tr transport
	t  *tracer // nil unless the run is traced
	// reqs is a ring of the requests in flight: out of them are
	// outstanding, the oldest at head.
	reqs      [inflight]*request
	head, out int

	lats      []float64 // this segment's request latencies, microseconds
	attempted int64
	failed    int64
	errs      []error // first few request errors
}

func newWorker(g *generator, tr transport, t *tracer) *worker {
	w := &worker{g: g, tr: tr, t: t}
	for i := range w.reqs {
		w.reqs[i] = newRequest()
	}
	return w
}

// complete waits for the oldest outstanding request, times it and
// checks its reply against the model.
func (w *worker) complete() {
	r := w.reqs[w.head]
	w.head, w.out = (w.head+1)%inflight, w.out-1
	err := w.tr.wait(r)
	end := nowNS()
	w.lats = append(w.lats, float64(end-r.sentNS)/1e3)
	if w.t != nil && w.t.on.Load() {
		w.t.add("client."+r.kind.String(), r.sentNS, end, r.ops)
	}
	w.attempted += int64(r.ops)
	if err != nil {
		w.failed += int64(r.ops)
		if len(w.errs) < 4 {
			w.errs = append(w.errs, fmt.Errorf("%v request: %w", r.kind, err))
		}
	} else {
		w.failed += int64(w.g.check(r))
	}
}

// runSegment sends one segment's requests, keeping inflight of them
// outstanding, and returns when every reply has been checked.
func (w *worker) runSegment(seg int) {
	w.lats = w.lats[:0]
	w.g.beginSegment(seg)
	for i := 0; i < w.g.sp.reqsPerSeg; i++ {
		if w.g.nextKind() == kScan {
			// The next page starts at the cursor the previous page
			// returned: wait for it.
			for w.scanOutstanding() {
				w.complete()
			}
		}
		if w.out == inflight {
			w.complete()
		}
		r := w.reqs[(w.head+w.out)%inflight]
		w.g.fill(r)
		r.sentNS = nowNS()
		w.tr.send(r)
		w.out++
	}
	for w.out > 0 {
		w.complete()
	}
}

func (w *worker) scanOutstanding() bool {
	for i := 0; i < w.out; i++ {
		if w.reqs[(w.head+i)%inflight].kind == kScan {
			return true
		}
	}
	return false
}

// segStats is one measured segment.
type segStats struct {
	iv        interval
	ops       int64
	failed    int64
	ios       int64   // the engine's cumulative model I/Os when the segment ended
	p50US     float64 // median request latency
	samples   int     // requests behind p50US
	handoffUS float64 // mean of the handoff probe's readings before and after (measure only)
}

func (s segStats) opsPerS() float64  { return float64(s.ops) / s.iv.wall.Seconds() }
func (s segStats) cpuPerOp() float64 { return float64(s.iv.cpu.Microseconds()) / float64(s.ops) }

// runner drives one workload on one stack.
type runner struct {
	sp      *spec
	st      *stack
	m       *model
	workers []*worker
	t       *tracer
	traceOn bool // record spans during the segments that follow
	segsRun int  // segments executed so far, warm-up included
	lats    []float64
}

// newRunner wires workers to the stack through tr.
func newRunner(sp *spec, st *stack, m *model, seed uint64, t *tracer, tr func(w int) transport) *runner {
	r := &runner{sp: sp, st: st, m: m, t: t}
	for w := 0; w < numWorkers; w++ {
		r.workers = append(r.workers, newWorker(newGenerator(sp, m, seed, w), tr(w), t))
	}
	return r
}

// segment runs the next segment on every worker and, for a write
// workload, the checkpoint that closes it.
func (r *runner) segment() (segStats, error) {
	var s segStats
	before, failedBefore := r.attempted(), r.failed()
	spanID := 0
	if r.traceOn {
		spanID = r.t.beginSegment()
	}
	c0 := readClock()
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.runSegment(r.segsRun)
		}()
	}
	wg.Wait()
	var err error
	if r.sp.checkpoint {
		err = r.workers[0].tr.checkpoint()
	}
	s.iv = since(c0, readClock())
	r.segsRun++
	s.ops, s.failed, s.ios = r.attempted()-before, r.failed()-failedBefore, r.st.primary.raw.Stats().IOs()
	if spanID != 0 {
		r.t.endSegment(spanID, int(s.ops))
	}
	r.lats = r.lats[:0]
	for _, w := range r.workers {
		r.lats = append(r.lats, w.lats...)
	}
	s.p50US, s.samples = median(r.lats), len(r.lats)
	return s, err
}

func (r *runner) attempted() (n int64) {
	for _, w := range r.workers {
		n += w.attempted
	}
	return n
}

func (r *runner) failed() (n int64) {
	for _, w := range r.workers {
		n += w.failed
	}
	return n
}

func (r *runner) errs() (errs []error) {
	for _, w := range r.workers {
		errs = append(errs, w.errs...)
	}
	return errs
}

// setUp makes one timed set-up attempt: fresh directory, engines,
// bulk load, checkpoint, (reopen), servers, clients and one unmeasured
// warm-up segment.
func setUp(sp *spec, dir string, seed uint64, t *tracer) (*runner, interval, error) {
	c0 := readClock()
	m := newModel(sp.baseKeys)
	st, err := build(sp, dir, m, t)
	if err != nil {
		return nil, interval{}, err
	}
	r := newRunner(sp, st, m, seed, t, func(w int) transport { return &served{cl: st.clients[w], ctx: st.ctx} })
	if _, err := r.segment(); err != nil {
		st.close()
		return nil, interval{}, err
	}
	if r.failed() > 0 {
		st.close()
		return nil, interval{}, fmt.Errorf("warm-up segment: %d failed operations: %w", r.failed(), errors.Join(r.errs()...))
	}
	return r, since(c0, readClock()), nil
}

// setUpTimed sets up setupAttempts times, tearing everything down in
// between, and returns the last attempt's stack with the time of the
// fastest quiet attempt — or, if the host stole during all of them, the
// fastest of all, with noisy set. Interference only ever makes a set-up
// slower, so the fastest attempt is the estimate. Like every timing
// metric it is in the reference host's time: each attempt is converted
// with the handoff readings taken just before and just after it.
func setUpTimed(sp *spec, dir string, seed uint64, probe *handoffProbe) (r *runner, setupS float64, noisy bool, err error) {
	var quiet, all []float64
	before, err := probe.readings(setupReadings)
	if err != nil {
		return nil, 0, false, err
	}
	for attempt := 0; attempt < setupAttempts; attempt++ {
		if r != nil {
			if err := r.st.close(); err != nil {
				return nil, 0, false, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, 0, false, err
			}
			r = nil
			debug.FreeOSMemory()
		}
		var iv interval
		if r, iv, err = setUp(sp, dir, seed, nil); err != nil {
			return nil, 0, false, err
		}
		after, err := probe.readings(setupReadings)
		if err != nil {
			r.st.close()
			return nil, 0, false, err
		}
		s := toRefHost(iv.wall.Seconds(), (before+after)/2)
		before = after
		all = append(all, s)
		if iv.steal <= quietStealFrac {
			quiet = append(quiet, s)
		}
	}
	if len(quiet) == 0 {
		quiet, noisy = all, true
	}
	return r, slices.Min(quiet), noisy, nil
}

// result is what one run reports.
type result struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string // failed bypass assertions and request errors
}

// measure runs the measured phase: n segments, each timed against wall
// clock, rusage and steal, with a reading of the handoff probe between
// every two of them, while the stack is idle.
func measure(r *runner, n int, probe *handoffProbe) ([]segStats, error) {
	runtime.GC()
	segs := make([]segStats, 0, n)
	before, err := probe.readings(1)
	if err != nil {
		return nil, err
	}
	for len(segs) < n {
		s, err := r.segment()
		if err != nil {
			return segs, err
		}
		after, err := probe.readings(1)
		if err != nil {
			return segs, err
		}
		s.handoffUS, before = (before+after)/2, after
		segs = append(segs, s)
	}
	return segs, nil
}

// runEndToEnd is the --trace 0 run: timed set-ups, measured phase,
// verification, bypass assertions.
func runEndToEnd(sp *spec, dir string, seed uint64, seconds int) (*result, error) {
	probe, err := newHandoffProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	r, setupS, setupNoisy, err := setUpTimed(sp, dir, seed, probe)
	if err != nil {
		return nil, err
	}
	defer func() { r.st.close() }()
	ios0 := r.st.primary.raw.Stats().IOs()
	store0 := r.st.primary.raw.StoreStats()
	segs, err := measure(r, segmentsPerSecond*seconds, probe)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	store1 := r.st.primary.raw.StoreStats()

	steal, walls, handoff := make([]float64, len(segs)), make([]float64, len(segs)), make([]float64, len(segs))
	opsPerS, p50, cpu := make([]float64, len(segs)), make([]float64, len(segs)), make([]float64, len(segs))
	for i, s := range segs {
		steal[i], walls[i], handoff[i] = s.iv.steal, s.iv.wall.Seconds(), s.handoffUS
		opsPerS[i], p50[i], cpu[i] = s.opsPerS(), s.p50US, s.cpuPerOp()
		res.attempted, res.failed = res.attempted+s.ops, res.failed+s.failed
	}
	idx, noisy := selectQuiet(steal, len(segs)/2)
	// Timing metrics: the quiet-segment median, in the reference host's
	// time. A rate is the inverse of a duration.
	host := mean(pick(handoff, idx))
	rawOps, rawP50, rawCPU := median(pick(opsPerS, idx)), median(pick(p50, idx)), median(pick(cpu, idx))
	res.metrics["setup_s"] = setupS
	res.metrics["ops_per_s"] = 1 / toRefHost(1/rawOps, host)
	res.metrics["req_p50_us"] = toRefHost(rawP50, host)
	res.metrics["cpu_us_per_op"] = toRefHost(rawCPU, host)
	res.metrics["model_ios_per_op"] = float64(segs[len(segs)-1].ios-ios0) / float64(res.attempted)
	// Raw values and host diagnostics: text lines only, they explain a
	// run and are not metrics of the program.
	isNoisy := 0
	if noisy || setupNoisy {
		isNoisy = 1
	}
	fmt.Printf("%s/raw.ops_per_s %.6g 1/s\n%s/raw.req_p50_us %.6g us\n%s/raw.cpu_us_per_op %.6g us\n", sp.name, rawOps, sp.name, rawP50, sp.name, rawCPU)
	fmt.Printf("%s/host.handoff_us %.4f us (reference host: %g)\n", sp.name, host, handoffRefUS)
	fmt.Printf("%s/host.steal_frac %.4f ratio\n", sp.name, median(steal))
	fmt.Printf("%s/host.quiet_segments %d count (of %d run, %d used)\n", sp.name, countQuiet(steal), len(segs), len(idx))
	fmt.Printf("%s/host.noisy %d count\n", sp.name, isNoisy)
	fmt.Printf("%s/host.segment_iqr_frac %.4f ratio\n", sp.name, iqrFrac(opsPerS))
	fmt.Printf("%s/host.segment_wall_s %.3f s (req_p50_us is over %d requests per segment)\n", sp.name, median(walls), segs[0].samples)
	for _, e := range r.errs() {
		res.problems = append(res.problems, e.Error())
	}
	res.check(sp, store0, store1)
	if err := res.verify(r, seed); err != nil {
		return nil, err
	}
	return res, nil
}

// check applies the bypass assertions: each workload exists to leave
// some layers idle, and a run in which they were not idle measures
// something else.
func (res *result) check(sp *spec, before, after extbuf.StoreStats) {
	switch {
	case !sp.file:
		if after != (extbuf.StoreStats{}) {
			res.problems = append(res.problems, fmt.Sprintf("mem workload touched the file store: %+v", after))
		}
	case sp.reopen:
		if d := after.WALSpills - before.WALSpills + after.WALFsyncs - before.WALFsyncs; d != 0 {
			res.problems = append(res.problems, fmt.Sprintf("read-only workload did %d WAL spills/fsyncs", d))
		}
	}
}

// verify is the post-run check of the stored state against the model;
// every key it finds wrong is a failed operation.
func (res *result) verify(r *runner, seed uint64) error {
	sp, st, ctx := r.sp, r.st, r.st.ctx
	switch {
	case !sp.file:
		// A full scan must return exactly the model's key set at its
		// final versions.
		bad, err := fullScan(ctx, st.clients[0], r.m)
		if err != nil {
			return err
		}
		res.attempted += int64(sp.baseKeys)
		res.failed += int64(bad)
	case sp.reopen:
		// inline checks only
	default:
		keys, vals, found := verifySample(sp, r.m, seed, verifyKeys, r.segsRun)
		target := st.primary
		if sp.replicated {
			// After the primary's last ack the follower must answer the
			// same keys identically.
			target = st.follower
		} else {
			// Shut down, close, reopen from disk.
			st.closeClients()
			if err := st.primary.close(); err != nil {
				return err
			}
			n, err := openNode(sp, st.primary.path)
			if err != nil {
				return err
			}
			st.primary = n
			if err := n.serve(nil); err != nil {
				return err
			}
			target = n
		}
		cl, err := client.Dial(target.addr, client.Options{})
		if err != nil {
			return err
		}
		defer cl.Close()
		for off := 0; off < len(keys); off += preloadOps {
			end := min(off+preloadOps, len(keys))
			gotV, gotF, err := cl.Lookup(ctx, keys[off:end], client.ReadToken{})
			if err != nil {
				return err
			}
			res.attempted += int64(end - off)
			res.failed += int64(checkLookup(vals[off:end], found[off:end], gotV, gotF))
		}
	}
	return nil
}

// fullScan pages through the whole table and counts what disagrees with
// the model: entries that are not a base key at its final version,
// entries seen twice, and base keys never seen.
func fullScan(ctx context.Context, cl *client.Client, m *model) (bad int, err error) {
	seen := make([]bool, len(m.ver))
	missing := len(seen)
	for cursor := uint64(0); cursor != client.ScanDone; {
		keys, vals, next, err := cl.Scan(ctx, cursor, preloadOps)
		if err != nil {
			return 0, err
		}
		for j, k := range keys {
			i := indexOf(k)
			if i >= uint64(len(seen)) || seen[i] || vals[j] != valueOf(k, m.ver[i]) {
				bad++
				continue
			}
			seen[i] = true
			missing--
		}
		cursor = next
	}
	return bad + missing, nil
}
