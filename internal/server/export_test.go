package server

// CallsOutstandingForTest reports how many engine batch calls the
// connection appliers have started and not yet waited for — the
// extbuf_engine_calls_outstanding gauge, readable while a test holds
// the shard workers (a /metrics scrape queues behind them).
func (s *Server) CallsOutstandingForTest() int64 { return s.callsOutstanding.Load() }

// ReplayInflightForTest reports how many replication frames the follower
// has started on the engine and not yet finished — the
// extbuf_repl_replay_inflight_frames gauge, readable while a test holds
// a shard worker.
func (s *Server) ReplayInflightForTest() int64 { return s.repl.replayInflight.Load() }
