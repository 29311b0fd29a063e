package server

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
)

// MetricsHandler returns an http.Handler serving the node's counters in
// Prometheus text exposition format (version 0.0.4). No client library:
// each scrape takes one stats snapshot and renders it with fmt, so the
// endpoint adds no dependencies and no steady-state cost. Mount it on a
// side listener (cmd/hashserved -metrics), never the data port.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		s.writeMetrics(&buf)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
}

// metric emits one single-sample metric family.
func metric(buf *bytes.Buffer, name, typ, help string, v int64) {
	fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, typ, name, v)
}

// seconds emits a counter of elapsed time that is kept in nanoseconds.
func seconds(buf *bytes.Buffer, name, help string, ns int64) {
	fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s counter\n%s %.6f\n", name, help, name, name, float64(ns)/1e9)
}

func (s *Server) writeMetrics(buf *bytes.Buffer) {
	ops := s.engine.Stats()
	st := s.engine.StoreStats()
	exp := s.engine.ExpiryStats()
	repl := s.replStats()

	metric(buf, "extbuf_keys", "gauge", "Live keys in the table.", int64(s.engine.Len()))
	metric(buf, "extbuf_memory_bytes", "gauge", "Bytes of in-memory buffering the structures account for.", s.engine.MemoryUsed())

	// Cost-model counters (the paper's currency: seek-dominated I/Os).
	metric(buf, "extbuf_model_reads_total", "counter", "Model block reads.", ops.Reads)
	metric(buf, "extbuf_model_writes_total", "counter", "Model block writes.", ops.Writes)
	metric(buf, "extbuf_model_writebacks_total", "counter", "Model buffer write-backs.", ops.WriteBacks)

	// Real storage costs (buffer pool, WAL).
	metric(buf, "extbuf_store_read_syscalls_total", "counter", "preads issued by the buffer pool.", st.ReadSyscalls)
	metric(buf, "extbuf_store_write_syscalls_total", "counter", "pwrites issued by the buffer pool.", st.WriteSyscalls)
	metric(buf, "extbuf_store_cache_hits_total", "counter", "Block accesses served from the pool.", st.CacheHits)
	metric(buf, "extbuf_store_cache_misses_total", "counter", "Block accesses that faulted a frame.", st.CacheMisses)
	metric(buf, "extbuf_store_bytes_read_total", "counter", "Bytes read from block files.", st.BytesRead)
	metric(buf, "extbuf_store_bytes_written_total", "counter", "Bytes written to block files.", st.BytesWritten)
	metric(buf, "extbuf_store_evictions_total", "counter", "Frames recycled for faulting blocks.", st.Evictions)
	metric(buf, "extbuf_store_dirty_writebacks_total", "counter", "Evictions that wrote the frame back first.", st.DirtyWritebacks)
	metric(buf, "extbuf_store_flushed_frames_total", "counter", "Dirty frames written back by flush barriers.", st.FlushedFrames)
	metric(buf, "extbuf_store_flush_runs_total", "counter", "pwrites the flushed frames coalesced into.", st.FlushRuns)
	metric(buf, "extbuf_store_fsyncs_total", "counter", "Block-file fsyncs.", st.Fsyncs)
	metric(buf, "extbuf_store_ghost_hits_total", "counter", "Faults of recently evicted blocks.", st.GhostHits)
	metric(buf, "extbuf_wal_spills_total", "counter", "Write-ahead-log spill writes.", st.WALSpills)
	metric(buf, "extbuf_wal_fsyncs_total", "counter", "Write-ahead-log fsyncs.", st.WALFsyncs)

	// The ack barrier: operations per wave is how well group commit and
	// the ack stage amortise the fsyncs above.
	metric(buf, "extbuf_commit_waves_total", "counter", "Group-commit sync waves run.", s.commit.wavesStarted())
	metric(buf, "extbuf_commit_wave_ops_total", "counter", "Mutation operations acknowledged behind commit waves.", s.waveOps.Load())

	// The appliers' engine calls: operations per call is how well client
	// pipelining aggregates, calls outstanding how deep the appliers keep
	// the shard queues (0 on an engine that cannot start a batch without
	// waiting for it).
	metric(buf, "extbuf_engine_calls_total", "counter", "Engine batch calls made by connection appliers.", s.engineCalls.Load())
	metric(buf, "extbuf_engine_call_ops_total", "counter", "Operations in those engine batch calls.", s.engineCallOps.Load())
	metric(buf, "extbuf_engine_calls_outstanding", "gauge", "Engine batch calls started and not yet waited for, across connections.", s.callsOutstanding.Load())

	// TTL expiry.
	metric(buf, "extbuf_expiry_tracked", "gauge", "Keys with a pending expiry deadline.", exp.Tracked)
	metric(buf, "extbuf_expiry_lazy_hits_total", "counter", "Reads that filtered an expired key.", exp.LazyHits)
	metric(buf, "extbuf_expiry_swept_total", "counter", "Expired keys reclaimed by the sweeper.", exp.Swept)

	// Replication (all zero with replication off).
	metric(buf, "extbuf_repl_epoch", "gauge", "Replication epoch (bumped per promotion).", repl.Epoch)
	metric(buf, "extbuf_repl_current_lsn", "gauge", "Highest LSN assigned or applied.", repl.CurrentLSN)
	metric(buf, "extbuf_repl_follower_lag", "gauge", "Slowest subscribed follower's LSN lag.", repl.FollowerLag)
	metric(buf, "extbuf_repl_frames_shipped_total", "counter", "Replication batches sent to followers.", repl.FramesShipped)
	metric(buf, "extbuf_repl_frames_replayed_total", "counter", "Replication batches applied as a follower.", repl.FramesReplayed)
	// The follower's replay pipeline: wait seconds per second near 1 means
	// the replica is engine-bound, near 0 that the stream starves it.
	r := s.repl
	if r == nil {
		r = new(replState)
	}
	metric(buf, "extbuf_repl_replay_inserts_total", "counter", "Records replayed as inserts (live region, above the catch-up horizon).", r.replayInserts.Load())
	metric(buf, "extbuf_repl_replay_upserts_total", "counter", "Insert and upsert records replayed as idempotent upserts.", r.replayUpserts.Load())
	metric(buf, "extbuf_repl_replay_records_total", "counter", "Records replayed into the engine and appended to this node's ship log.", r.replayRecords.Load())
	metric(buf, "extbuf_repl_replay_inflight_frames", "gauge", "Replication batches started on the engine and not yet appended.", r.replayInflight.Load())
	seconds(buf, "extbuf_repl_replay_wait_seconds_total", "Time replay's finishing stage spent waiting for started engine calls.", r.replayWaitNs.Load())
	metric(buf, "extbuf_repl_replay_sync_runs_total", "counter", "Replayed runs applied by a synchronous engine call (expiries; engines that cannot start a batch).", r.replaySyncRuns.Load())

	writable := int64(0)
	if s.writableNow() {
		writable = 1
	}
	metric(buf, "extbuf_writable", "gauge", "1 when this node accepts mutations.", writable)
	metric(buf, "go_goroutines", "gauge", "Goroutines in the process.", int64(runtime.NumGoroutine()))
}
