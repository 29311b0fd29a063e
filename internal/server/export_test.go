package server

// CallsOutstandingForTest reports how many engine batch calls the
// connection appliers have started and not yet waited for — the
// extbuf_engine_calls_outstanding gauge, readable while a test holds
// the shard workers (a /metrics scrape queues behind them).
func (s *Server) CallsOutstandingForTest() int64 { return s.callsOutstanding.Load() }
