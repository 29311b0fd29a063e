package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"extbuf"
)

// spanRec is one recorded span. Times are nanoseconds since
// epoch. Cause is the span that caused this one: requests and
// engine calls are caused by their segment (the server coalesces
// requests, so an engine call has no single request to point at).
type spanRec struct {
	ID    int    `json:"id"`
	Cause int    `json:"cause"` // span ID; 0 for a root
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Ops   int    `json:"ops"`
	Self  int64  `json:"self_ns"`
}

// tracer collects spans in memory from the benchmark's own files — the
// decorator around the engine, the interposed ship function, the
// workers' request loop — and writes them out at the end. While off it
// costs the instrumented paths one atomic load.
type tracer struct {
	on  atomic.Bool
	seg atomic.Int64 // ID of the current segment span

	mu    sync.Mutex
	spans []spanRec
}

// epoch is the zero of every recorded time.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// add records a finished span caused by the current segment.
func (t *tracer) add(name string, start, end int64, ops int) {
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Cause: int(t.seg.Load()), Name: name, Start: start, End: end, Ops: ops})
	t.mu.Unlock()
}

// beginSegment opens a root span for a segment and makes it the cause of
// everything recorded until endSegment.
func (t *tracer) beginSegment() int {
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Name: "segment", Start: nowNS()})
	id := len(t.spans)
	t.mu.Unlock()
	t.seg.Store(int64(id))
	t.on.Store(true)
	return id
}

func (t *tracer) endSegment(id, ops int) {
	t.on.Store(false)
	t.mu.Lock()
	t.spans[id-1].End, t.spans[id-1].Ops = nowNS(), ops
	t.mu.Unlock()
}

// selfTimes fills in every span's self time: its duration minus the part
// of it that the spans it caused cover (overlapping children are counted
// once, and a child is clipped to its parent).
func selfTimes(spans []spanRec) {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Cause != 0 {
			children[s.Cause] = append(children[s.Cause], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			s, e := max(spans[k].Start, edge), min(spans[k].End, p.End)
			if e > s {
				covered += e - s
				edge = e
			}
		}
		p.Self = p.End - p.Start - covered
	}
}

// write stores the spans, with self times, as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	data, err := json.Marshal(struct {
		Spans []spanRec `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// byName returns the finished spans with one of the names.
func (t *tracer) byName(names ...string) []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []spanRec
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, s)
			}
		}
	}
	return out
}

// spanTotals sums the spans' durations (ns) and operations.
func spanTotals(spans []spanRec) (busy int64, ops int) {
	for _, s := range spans {
		busy += s.End - s.Start
		ops += s.Ops
	}
	return busy, ops
}

// spanDurationsUS is the spans' durations in microseconds.
func spanDurationsUS(spans []spanRec) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.End-s.Start) / 1e3
	}
	return out
}

// tracedEngine wraps the layers from outside: it is handed to the
// server in place of the engine and records a span around every engine
// call on the serving and replication paths, and around the ship
// function the server installs. Methods it does not override pass
// straight through the embedded engine.
type tracedEngine struct {
	extbuf.Engine
	t      *tracer
	prefix string // "extbuf." on the primary, "follower." on the follower
}

var _ extbuf.Engine = (*tracedEngine)(nil)

// call times fn as a span named prefix+name when tracing is on.
func (e *tracedEngine) call(name string, ops int, fn func()) {
	if !e.t.on.Load() {
		fn()
		return
	}
	start := nowNS()
	fn()
	e.t.add(e.prefix+name, start, nowNS(), ops)
}

func (e *tracedEngine) SetShip(fn extbuf.ShipFunc) {
	if fn == nil {
		e.Engine.SetShip(nil)
		return
	}
	e.Engine.SetShip(func(op uint8, keys, vals []uint64) (lsn uint64, err error) {
		e.call("ship_append", len(keys), func() { lsn, err = fn(op, keys, vals) })
		return lsn, err
	})
}

func (e *tracedEngine) LookupBatchInto(keys, vals []uint64, found []bool) (err error) {
	e.call("lookup", len(keys), func() { err = e.Engine.LookupBatchInto(keys, vals, found) })
	return err
}

func (e *tracedEngine) InsertBatchShip(keys, vals []uint64) (lsn uint64, err error) {
	e.call("insert", len(keys), func() { lsn, err = e.Engine.InsertBatchShip(keys, vals) })
	return lsn, err
}

func (e *tracedEngine) UpsertBatchShip(keys, vals []uint64) (lsn uint64, err error) {
	e.call("upsert", len(keys), func() { lsn, err = e.Engine.UpsertBatchShip(keys, vals) })
	return lsn, err
}

func (e *tracedEngine) DeleteBatchShipInto(keys []uint64, found []bool) (lsn uint64, err error) {
	e.call("delete", len(keys), func() { lsn, err = e.Engine.DeleteBatchShipInto(keys, found) })
	return lsn, err
}

func (e *tracedEngine) UpsertTTLBatchShip(keys, vals, deadlines []uint64) (lsn uint64, err error) {
	e.call("upsert_ttl", len(keys), func() { lsn, err = e.Engine.UpsertTTLBatchShip(keys, vals, deadlines) })
	return lsn, err
}

func (e *tracedEngine) CompareSwapBatchShip(keys, olds, news []uint64, swapped []bool) (lsn uint64, err error) {
	e.call("cas", len(keys), func() { lsn, err = e.Engine.CompareSwapBatchShip(keys, olds, news, swapped) })
	return lsn, err
}

func (e *tracedEngine) Scan(cursor uint64, max int) (keys, vals []uint64, next uint64, err error) {
	e.call("scan", batchOps, func() { keys, vals, next, err = e.Engine.Scan(cursor, max) })
	return keys, vals, next, err
}

// UpsertBatch and DeleteBatchInto are the follower's replay path.
func (e *tracedEngine) UpsertBatch(keys, vals []uint64) (err error) {
	e.call("upsert", len(keys), func() { err = e.Engine.UpsertBatch(keys, vals) })
	return err
}

func (e *tracedEngine) DeleteBatchInto(keys []uint64, found []bool) (err error) {
	e.call("delete", len(keys), func() { err = e.Engine.DeleteBatchInto(keys, found) })
	return err
}

func (e *tracedEngine) Sync() (err error) {
	e.call("sync", 0, func() { err = e.Engine.Sync() })
	return err
}

func (e *tracedEngine) Flush() (err error) {
	e.call("flush", 0, func() { err = e.Engine.Flush() })
	return err
}
