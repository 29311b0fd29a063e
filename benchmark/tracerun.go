package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"extbuf"
	"extbuf/client"
)

// layerMetrics lists every per-layer metric with its unit, in ledger
// order. A traced run reports all of them on every workload; a metric
// whose layer the workload bypasses reads 0.
var layerMetrics = [][2]string{
	{"client.req_p99_us", "us"}, {"client.lookup_p50_us", "us"}, {"client.write_p50_us", "us"},
	{"wire.encode_ns_per_op", "ns"}, {"wire.decode_ns_per_op", "ns"}, {"wire.bytes_per_op", "B"},
	{"server.stack_cpu_us_per_op", "us"}, {"server.ops_per_engine_call", "count"},
	{"server.ops_per_commit_wave", "count"}, {"server.commit_wave_us_p50", "us"},
	{"server.follower_lag_lsn_max", "count"}, {"server.frames_shipped_per_kop", "count"},
	{"server.follower_apply_us_per_op", "us"},
	{"extbuf.lookup_us_per_op", "us"}, {"extbuf.mutate_us_per_op", "us"}, {"extbuf.scan_us_per_op", "us"},
	{"extbuf.direct_ops_per_s", "1/s"}, {"extbuf.direct_cpu_us_per_op", "us"},
	{"extbuf.flush_us_p50", "us"}, {"extbuf.recover_s", "s"},
	{"structures.t_q", "count"}, {"structures.t_u", "count"},
	{"structures.lookup_ns_per_op", "ns"}, {"structures.insert_ns_per_op", "ns"},
	{"iomodel.pool_hit_rate", "ratio"}, {"iomodel.read_syscalls_per_op", "count"},
	{"iomodel.write_syscalls_per_op", "count"}, {"iomodel.evictions_per_op", "count"},
	{"iomodel.bytes_written_per_op", "B"}, {"iomodel.frames_per_flush_run", "count"},
	{"iomodel.fsyncs_per_kop", "count"}, {"iomodel.disk_bytes_per_item", "B"},
	{"iomodel.miss_read_us", "us"}, {"iomodel.hit_read_ns", "ns"},
	{"wal.spills_per_kop", "count"}, {"wal.fsyncs_per_kop", "count"},
	{"wal.append_ns_per_rec", "ns"}, {"wal.fsync_us_p50", "us"},
	{"wal.ship_append_us_per_op", "us"}, {"wal.ship_append_ns_per_rec", "ns"},
	{"wal.ship_read_ns_per_rec", "ns"}, {"wal.ship_read_allocs_per_call", "count"},
	{"expiry.tracked_keys", "count"}, {"expiry.lazy_hits_per_kop", "count"},
	{"host.handoff_us", "us"}, {"host.steal_frac", "ratio"}, {"host.quiet_segments", "count"},
	{"host.noisy", "count"}, {"host.segment_iqr_frac", "ratio"}, {"trace.overhead_frac", "ratio"},
}

// mutateSpans are the engine-call span names of the mutation family.
var mutateSpans = []string{"extbuf.insert", "extbuf.upsert", "extbuf.delete", "extbuf.cas", "extbuf.upsert_ttl"}

func perOp(x float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return x / float64(ops)
}

// lagPoller samples the primary's view of follower lag while the traced
// segments run (at segment boundaries a semi-sync follower has always
// caught up).
type lagPoller struct {
	stop chan struct{}
	done sync.WaitGroup
	max  int64
}

func startLagPoller(ctx context.Context, cl *client.Client) *lagPoller {
	p := &lagPoller{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				if st, err := cl.Stats(ctx); err == nil {
					p.max = max(p.max, st.Repl.FollowerLag)
				}
			}
		}
	}()
	return p
}

func (p *lagPoller) finish() int64 {
	close(p.stop)
	p.done.Wait()
	return p.max
}

// runTrace is the --trace 1 run: one set-up, served segments with spans
// recorded (and every third without, for reference), then the
// direct-engine replay and the layer probes. Nothing here feeds an
// end-to-end number.
func runTrace(sp *spec, dir, traceFile string, seed uint64, seconds int) (*result, error) {
	probe, err := newHandoffProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	t := &tracer{}
	r, _, err := setUp(sp, dir, seed, t)
	if err != nil {
		return nil, err
	}
	defer func() { r.st.close() }()
	ctx := r.st.ctx
	ctl, err := client.Dial(r.st.primary.addr, client.Options{})
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	warmAttempted, warmFailed := r.attempted(), r.failed()
	m := map[string]float64{}
	res := &result{metrics: m}

	// Served segments: every third one with the decorators off, as the
	// reference for the overhead of tracing and for the stack's CPU;
	// interleaved, so that drift of the host cancels.
	runtime.GC()
	before, err := ctl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	var poller *lagPoller
	if sp.replicated {
		poller = startLagPoller(ctx, ctl)
	}
	var plain, traced []segStats
	var handoff []float64
	for i := 0; i < seconds+max(seconds/2, 1) && err == nil; i++ {
		var s segStats
		r.traceOn = i%3 != 0
		if s, err = r.segment(); r.traceOn {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
		if err == nil {
			var h float64
			h, err = probe.readings(1)
			handoff = append(handoff, h)
		}
	}
	r.traceOn = false
	if poller != nil {
		m["server.follower_lag_lsn_max"] = float64(poller.finish())
	}
	if err != nil {
		return nil, err
	}
	after, err := ctl.Stats(ctx)
	if err != nil {
		return nil, err
	}

	// Host diagnostics and the overhead of tracing itself.
	servedOps := 0
	var steal, tracedRate, plainRate, plainCPU []float64
	for _, s := range traced {
		servedOps += int(s.ops)
		steal, tracedRate = append(steal, s.iv.steal), append(tracedRate, s.opsPerS())
	}
	for _, s := range plain {
		servedOps += int(s.ops)
		plainRate, plainCPU = append(plainRate, s.opsPerS()), append(plainCPU, s.cpuPerOp())
	}
	idx, noisy := selectQuiet(steal, len(traced)/2)
	m["host.handoff_us"] = mean(handoff)
	m["host.steal_frac"] = median(steal)
	m["host.quiet_segments"] = float64(countQuiet(steal))
	if noisy {
		m["host.noisy"] = 1
	}
	m["host.segment_iqr_frac"] = iqrFrac(tracedRate)
	m["trace.overhead_frac"] = 1 - median(pick(tracedRate, idx))/median(plainRate)

	// Client spans.
	var all, lookups, writes []spanRec
	for k := kLookup; k <= kDelete; k++ {
		spans := t.byName("client." + k.String())
		all = append(all, spans...)
		if k.isWrite() {
			writes = append(writes, spans...)
		} else if k == kLookup {
			lookups = append(lookups, spans...)
		}
	}
	m["client.req_p99_us"] = quantile(spanDurationsUS(all), 0.99)
	m["client.lookup_p50_us"] = median(spanDurationsUS(lookups))
	m["client.write_p50_us"] = median(spanDurationsUS(writes))
	fmt.Printf("%s/client spans: %d requests, %d lookups, %d writes\n", sp.name, len(all), len(lookups), len(writes))

	// Engine-call spans recorded by the decorator.
	lookupSpans, mutations, scans := t.byName("extbuf.lookup"), t.byName(mutateSpans...), t.byName("extbuf.scan")
	lookupBusy, lookupOps := spanTotals(lookupSpans)
	mutateBusy, mutateOps := spanTotals(mutations)
	scanBusy, scanOps := spanTotals(scans)
	calls := len(lookupSpans) + len(mutations) + len(scans)
	m["extbuf.lookup_us_per_op"] = perOp(float64(lookupBusy)/1e3, lookupOps)
	m["extbuf.mutate_us_per_op"] = perOp(float64(mutateBusy)/1e3, mutateOps)
	m["extbuf.scan_us_per_op"] = perOp(float64(scanBusy)/1e3, scanOps)
	m["server.ops_per_engine_call"] = perOp(float64(lookupOps+mutateOps+scanOps), calls)
	waves := t.byName("extbuf.sync")
	m["server.ops_per_commit_wave"] = perOp(float64(mutateOps), len(waves))
	m["server.commit_wave_us_p50"] = median(spanDurationsUS(waves))
	m["extbuf.flush_us_p50"] = median(spanDurationsUS(t.byName("extbuf.flush")))
	shipBusy, shipOps := spanTotals(t.byName("extbuf.ship_append"))
	m["wal.ship_append_us_per_op"] = perOp(float64(shipBusy)/1e3, shipOps)
	applyBusy, applyOps := spanTotals(t.byName("follower.upsert", "follower.delete"))
	m["server.follower_apply_us_per_op"] = perOp(float64(applyBusy)/1e3, applyOps)

	// Counter deltas over the served segments, traced or not.
	d := storeDelta(after.Store, before.Store)
	m["iomodel.pool_hit_rate"] = perOp(float64(d.CacheHits), int(d.CacheHits+d.CacheMisses))
	m["iomodel.read_syscalls_per_op"] = perOp(float64(d.ReadSyscalls), servedOps)
	m["iomodel.write_syscalls_per_op"] = perOp(float64(d.WriteSyscalls), servedOps)
	m["iomodel.evictions_per_op"] = perOp(float64(d.Evictions), servedOps)
	m["iomodel.bytes_written_per_op"] = perOp(float64(d.BytesWritten), servedOps)
	m["iomodel.frames_per_flush_run"] = perOp(float64(d.FlushedFrames), int(d.FlushRuns))
	m["iomodel.fsyncs_per_kop"] = perOp(1000*float64(d.Fsyncs), servedOps)
	m["wal.spills_per_kop"] = perOp(1000*float64(d.WALSpills), servedOps)
	m["wal.fsyncs_per_kop"] = perOp(1000*float64(d.WALFsyncs), servedOps)
	m["expiry.tracked_keys"] = float64(after.Expiry.Tracked)
	m["expiry.lazy_hits_per_kop"] = perOp(1000*float64(after.Expiry.LazyHits-before.Expiry.LazyHits), servedOps)
	m["server.frames_shipped_per_kop"] = perOp(1000*float64(after.Repl.FramesShipped-before.Repl.FramesShipped), servedOps)
	if sp.file {
		bytes, err := diskBytes(r.st.primary.path)
		if err != nil {
			return nil, err
		}
		m["iomodel.disk_bytes_per_item"] = perOp(float64(bytes), int(after.Len))
	}

	// The same stream, straight into the engine: stop serving, point the
	// workers at the raw engine, run on.
	ctl.Close()
	r.st.closeClients()
	for _, n := range []*node{r.st.follower, r.st.primary} {
		if n != nil {
			if err := n.stopServing(); err != nil {
				return nil, err
			}
		}
	}
	for _, w := range r.workers {
		w.tr = &direct{eng: r.st.primary.raw}
	}
	var directRate, directCPU []float64
	for i := 0; i < max(seconds/4, 1); i++ {
		s, err := r.segment()
		if err != nil {
			return nil, err
		}
		directRate, directCPU = append(directRate, s.opsPerS()), append(directCPU, s.cpuPerOp())
	}
	m["extbuf.direct_ops_per_s"] = median(directRate)
	m["extbuf.direct_cpu_us_per_op"] = median(directCPU)
	m["server.stack_cpu_us_per_op"] = median(plainCPU) - median(directCPU)
	res.attempted, res.failed = r.attempted()-warmAttempted, r.failed()-warmFailed
	for _, e := range r.errs() {
		res.problems = append(res.problems, e.Error())
	}

	if sp.file {
		// Recovery: reopen the engine from its files.
		if err := r.st.primary.raw.Close(); err != nil {
			return nil, err
		}
		start := time.Now()
		raw, err := extbuf.NewSharded("buffered", engineConfig(sp, r.st.primary.path), numShards)
		if err != nil {
			return nil, err
		}
		m["extbuf.recover_s"] = time.Since(start).Seconds()
		r.st.primary.raw = raw
	}
	for _, probe := range []func() error{
		func() error { return probeWire(sp, seed, m) },
		func() error { return probeStructure(sp, seed, m) },
		func() error { return probePool(dir, seed, m) },
		func() error { return probeWAL(dir, m) },
		func() error { return probeShip(dir, m) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	if err := t.write(traceFile); err != nil {
		return nil, err
	}
	fmt.Printf("%s/trace file %s\n", sp.name, filepath.Clean(traceFile))
	return res, nil
}

// storeDelta is a - b on the counters the ledger reports.
func storeDelta(a, b extbuf.StoreStats) extbuf.StoreStats {
	return extbuf.StoreStats{
		ReadSyscalls: a.ReadSyscalls - b.ReadSyscalls, WriteSyscalls: a.WriteSyscalls - b.WriteSyscalls,
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
		BytesWritten: a.BytesWritten - b.BytesWritten, Evictions: a.Evictions - b.Evictions,
		FlushedFrames: a.FlushedFrames - b.FlushedFrames, FlushRuns: a.FlushRuns - b.FlushRuns,
		Fsyncs: a.Fsyncs - b.Fsyncs, WALSpills: a.WALSpills - b.WALSpills, WALFsyncs: a.WALFsyncs - b.WALFsyncs,
	}
}
