package main

import (
	"fmt"

	"extbuf/client"
	"extbuf/internal/xrand"
)

// Sizes shared by every workload. They are the benchmark's definition:
// changing one changes what every committed number means.
const (
	batchOps    = 128  // operations per request
	inflight    = 8    // requests each worker keeps in flight
	numWorkers  = 2    // closed-loop workers, one client connection each
	numShards   = 2    // engine shards
	poolBlocks  = 256  // file backend: buffer-pool frames per shard
	preloadOps  = 4096 // keys per Engine.InsertBatch call during set-up
	verifyKeys  = 65536
	extraBase   = uint64(1) << 32 // first index of keys inserted while running
	absentBase  = uint64(1) << 40 // indices never stored
	verBits     = 24
	verMask     = uint64(1)<<verBits - 1
	scanWindow  = 2 * inflight // versions a scanned value may lag the model by
	keyMul      = 0x9E3779B97F4A7C15
	keyMulInv   = 0xF1DE83E19937733D // keyMul * keyMulInv == 1 (mod 2^64)
	keySalt     = 0x62656e63686d726b
	zipfQ       = 1.01
	ttlDeadline = uint64(1) << 62 // unix ms, never reached
)

// opKind is the kind of one request: batchOps operations of one kind.
type opKind uint8

const (
	kLookup opKind = iota
	kUpsert
	kCAS
	kUpsertTTL
	kScan
	kInsert
	kDelete
)

var kindNames = [...]string{"lookup", "upsert", "cas", "upsert_ttl", "scan", "insert", "delete"}

func (k opKind) String() string { return kindNames[k] }

// isWrite reports whether requests of the kind are acknowledged behind
// the server's commit barrier.
func (k opKind) isWrite() bool { return k != kLookup && k != kScan }

// spec defines one workload. A segment is one complete cycle of it:
// reqsPerSeg requests per worker, their kinds taken from cycle in order,
// over and over, closed by a checkpoint where checkpoint is set. (The
// order is fixed, not shuffled by the seed: a write segment that happens
// to send its inserts before its deletes swings Len() by thousands and
// can tip the table over a resize threshold, which moved
// model_ios_per_op by 4% from seed to seed.) Every workload is steady-state: Len() is the same at every
// segment boundary.
type spec struct {
	name       string
	file       bool // durable file backend (else mem)
	baseKeys   int  // keys preloaded and never deleted
	cycle      []opKind
	reqsPerSeg int // per worker; a multiple of len(cycle); sized for ~0.5 s
	absentFrac float64
	zipf       bool // base keys drawn Zipf(zipfQ) over the worker's half (else uniform)
	checkpoint bool // client.Flush closes every segment
	reopen     bool // set-up closes and reopens the engine: the pool starts empty
	replicated bool // durable semi-sync primary + one in-process follower
}

// insertsPerSeg is how many keys each worker inserts per segment (and
// deletes in the next one).
func (s *spec) insertsPerSeg() int {
	n := 0
	for _, k := range s.cycle {
		if k == kInsert {
			n++
		}
	}
	return s.reqsPerSeg / len(s.cycle) * n * batchOps
}

var writeCycle = []opKind{kInsert, kUpsert, kDelete}

// workloads is the committed benchmark. reqsPerSeg was calibrated on the
// 2-vCPU VM the benchmark was written on so that a quiet segment takes
// about half a second.
var workloads = []*spec{
	{
		// Why: CPU-only path: client, wire, server pipeline, shard fan-out,
		// probes, expiry sidecar and scan do all the work; file store, WAL
		// and replication none
		name: "mem_api_mix",
		// 75% LOOKUP, 10% UPSERT, 5% CAS, 5% UPSERT-TTL, 5% SCAN pages.
		cycle: []opKind{
			kLookup, kLookup, kLookup, kLookup, kUpsert, kLookup, kLookup, kLookup, kLookup, kCAS,
			kLookup, kLookup, kLookup, kLookup, kUpsert, kLookup, kLookup, kLookup, kUpsertTTL, kScan,
		},
		baseKeys:   1_000_000,
		reqsPerSeg: 4200,
		absentFrac: 0.05,
		zipf:       true,
	},
	{
		// Why: mem->durable cliff: WAL append/spill/fsync, group commit,
		// pool read-modify-write, dirty eviction, coalesced flush,
		// checkpoints and the insert/merge path (t_u)
		name:       "durable_write",
		file:       true,
		cycle:      writeCycle,
		baseKeys:   524_288,
		reqsPerSeg: 192,
		checkpoint: true,
	},
	{
		// Why: the t_q side of the paper's trade: fault-in, pread, 2Q
		// eviction on a table 32x the pool, reopened cold, with zero WAL
		// work
		name:       "durable_lookup_cold",
		file:       true,
		cycle:      []opKind{kLookup},
		baseKeys:   1_048_576,
		reqsPerSeg: 1200,
		absentFrac: 0.10,
		reopen:     true,
	},
	{
		// Why: standalone->replicated cliff: durable_write's exact op stream
		// plus ship-log append/read/fsync, REPLBATCH frames, follower apply
		// and the semi-sync ack wait
		name:       "repl_semisync_write",
		file:       true,
		cycle:      writeCycle,
		baseKeys:   524_288,
		reqsPerSeg: 192,
		checkpoint: true,
		replicated: true,
	},
}

// smoke shrinks a workload to 4,096 keys and segments of 8 requests (per
// worker, rounded up to whole cycles) so the whole pass runs in a test.
func (s *spec) smoke() *spec {
	c := *s
	c.baseKeys = 4096
	c.reqsPerSeg = (8 + len(c.cycle) - 1) / len(c.cycle) * len(c.cycle)
	return &c
}

func findSpec(name string) *spec {
	for _, s := range workloads {
		if s.name == name {
			return s
		}
	}
	return nil
}

// model is the client-side oracle. Keys are a bijection of an index
// space, so a scanned key can be mapped back to its index; values carry
// a hash of the key in the high bits and the key's version in the low
// verBits, so any reply can be checked without storing values. Each
// worker owns half of the base indices and its own insert regions, and
// is the only writer of their versions.
//
// The key of an index does not depend on the seed: the seed chooses
// which keys each request names and in what order, not where the table
// puts them. Otherwise the placement of the few hottest keys — one I/O
// or two — moves model_ios_per_op by more than its bound from seed to
// seed.
type model struct {
	ver []uint32 // version of each base key
}

func newModel(baseKeys int) *model { return &model{ver: make([]uint32, baseKeys)} }

func keyOf(index uint64) uint64 { return (index+1)*keyMul ^ keySalt }

func indexOf(key uint64) uint64 { return (key^keySalt)*keyMulInv - 1 }

func valueOf(key uint64, ver uint32) uint64 {
	return xrand.Mix64(key)&^verMask | uint64(ver)&verMask
}

// insertStart is the first index worker w inserts in segment seg; the
// region of segment -1 is preloaded so the first segment has keys to
// delete.
func insertStart(sp *spec, seg, w int) uint64 {
	return extraBase + uint64((seg+1)*numWorkers+w)*uint64(sp.insertsPerSeg())
}

// request is one request and everything needed to verify its reply.
// Workers recycle a fixed ring of them.
type request struct {
	kind   opKind
	ops    int
	keys   []uint64
	vals   []uint64 // values; CAS: expected old values
	aux    []uint64 // CAS: new values; UPSERT-TTL: deadlines
	cursor uint64   // SCAN
	// expected lookup results, fixed when the request is generated:
	// replies on one connection arrive in send order and only this
	// worker writes these keys.
	expVals  []uint64
	expFound []bool

	sentNS  int64 // nowNS at send
	pending *client.Pending
	err     error // send failed
	queued  bool  // direct transport: sent, not yet executed
	rep     reply
}

// reply is a decoded response.
type reply struct {
	vals  []uint64
	found []bool
	keys  []uint64 // SCAN
	next  uint64   // SCAN
}

func newRequest() *request {
	return &request{
		keys: make([]uint64, 0, batchOps), vals: make([]uint64, 0, batchOps),
		aux: make([]uint64, 0, batchOps), expVals: make([]uint64, 0, batchOps),
		expFound: make([]bool, 0, batchOps),
	}
}

// generator produces one worker's request stream: a pure function of
// the seed, the workload and the worker number.
type generator struct {
	sp   *spec
	m    *model
	w    int
	rng  *xrand.Rand
	zipf *xrand.Zipf
	half uint64 // base keys per worker

	pos     int    // requests generated so far
	insNext uint64 // next index to insert
	delNext uint64 // next index to delete

	stamp      []uint32 // per owned base key: last request that used it
	seq        uint32
	scanCursor uint64
}

func newGenerator(sp *spec, m *model, seed uint64, w int) *generator {
	g := &generator{
		sp: sp, m: m, w: w,
		rng:  xrand.New(xrand.Mix64(seed) ^ uint64(w+1)*0x9e3779b97f4a7c15),
		half: uint64(sp.baseKeys / numWorkers),
	}
	if sp.zipf {
		g.zipf = xrand.NewZipf(g.rng, zipfQ, 1, g.half-1)
	}
	g.stamp = make([]uint32, g.half)
	return g
}

// beginSegment points the insert and delete cursors at segment seg's
// regions.
func (g *generator) beginSegment(seg int) {
	g.insNext = insertStart(g.sp, seg, g.w)
	g.delNext = insertStart(g.sp, seg-1, g.w)
}

// nextKind is the kind of the request fill will produce next.
func (g *generator) nextKind() opKind { return g.sp.cycle[g.pos%len(g.sp.cycle)] }

// pickBase draws one of the worker's base indices.
func (g *generator) pickBase() uint64 {
	if g.zipf != nil {
		return uint64(g.w)*g.half + g.zipf.Uint64()
	}
	return uint64(g.w)*g.half + g.rng.Uint64n(g.half)
}

// pickDistinct draws a base index not yet used by the current request,
// so a mutation batch never names a key twice.
func (g *generator) pickDistinct() uint64 {
	for {
		i := g.pickBase()
		if s := &g.stamp[i-uint64(g.w)*g.half]; *s != g.seq {
			*s = g.seq
			return i
		}
	}
}

// fill generates the next request of the segment into r, updating the
// model as if it had been applied: requests of one worker are applied in
// the order they are sent.
func (g *generator) fill(r *request) {
	r.kind = g.nextKind()
	g.pos++
	g.seq++
	r.ops = batchOps
	r.keys, r.vals, r.aux = r.keys[:0], r.vals[:0], r.aux[:0]
	r.expVals, r.expFound = r.expVals[:0], r.expFound[:0]
	m := g.m
	for j := 0; j < batchOps; j++ {
		switch r.kind {
		case kLookup:
			if g.rng.Float64() < g.sp.absentFrac {
				r.keys = append(r.keys, keyOf(absentBase+g.rng.Uint64n(absentBase)))
				r.expVals = append(r.expVals, 0)
				r.expFound = append(r.expFound, false)
				continue
			}
			i := g.pickBase()
			k := keyOf(i)
			r.keys = append(r.keys, k)
			r.expVals = append(r.expVals, valueOf(k, m.ver[i]))
			r.expFound = append(r.expFound, true)
		case kUpsert, kUpsertTTL:
			i := g.pickDistinct()
			k := keyOf(i)
			m.ver[i]++
			r.keys = append(r.keys, k)
			r.vals = append(r.vals, valueOf(k, m.ver[i]))
			if r.kind == kUpsertTTL {
				r.aux = append(r.aux, ttlDeadline)
			}
		case kCAS:
			i := g.pickDistinct()
			k := keyOf(i)
			r.keys = append(r.keys, k)
			r.vals = append(r.vals, valueOf(k, m.ver[i]))
			m.ver[i]++
			r.aux = append(r.aux, valueOf(k, m.ver[i]))
		case kInsert:
			k := keyOf(g.insNext)
			g.insNext++
			r.keys = append(r.keys, k)
			r.vals = append(r.vals, valueOf(k, 0))
		case kDelete:
			r.keys = append(r.keys, keyOf(g.delNext))
			g.delNext++
		case kScan:
			r.cursor = g.scanCursor
			return
		}
	}
}

// check counts the operations of r whose reply disagrees with the model
// and, for a scan, advances the worker's cursor.
func (g *generator) check(r *request) (failed int) {
	rep := &r.rep
	switch r.kind {
	case kLookup:
		return checkLookup(r.expVals, r.expFound, rep.vals, rep.found)
	case kCAS, kDelete:
		// Every swap names the current value and every delete a stored
		// key: all flags must be set.
		if len(rep.found) != r.ops {
			return r.ops
		}
		for _, ok := range rep.found {
			if !ok {
				failed++
			}
		}
	case kScan:
		g.scanCursor = rep.next
		if rep.next == client.ScanDone { // start over
			g.scanCursor = 0
		}
		return g.checkScan(rep.keys, rep.vals)
	}
	return failed
}

// checkLookup counts positions where the found flag or the value
// differs from the expectation; a reply of the wrong length fails whole.
func checkLookup(expVals []uint64, expFound []bool, vals []uint64, found []bool) (failed int) {
	if len(vals) != len(expVals) || len(found) != len(expFound) {
		return len(expVals)
	}
	for i := range expVals {
		if found[i] != expFound[i] || (found[i] && vals[i] != expVals[i]) {
			failed++
		}
	}
	return failed
}

// checkScan verifies one scan page: every entry must be a base key
// carrying its own hash, and an entry this worker owns must carry a
// version the model has held within the last scanWindow writes (requests
// sent after the scan may already have bumped it).
func (g *generator) checkScan(keys, vals []uint64) (failed int) {
	if len(keys) != len(vals) {
		return batchOps
	}
	lo, hi := uint64(g.w)*g.half, uint64(g.w+1)*g.half
	for j, k := range keys {
		i := indexOf(k)
		switch {
		case i >= uint64(len(g.m.ver)), vals[j]&^verMask != xrand.Mix64(k)&^verMask:
			failed++
		case i >= lo && i < hi:
			if lag := (uint64(g.m.ver[i]) - vals[j]) & verMask; lag > scanWindow {
				failed++
			}
		}
	}
	return failed
}

// verifySample draws n keys and their expected state after segsRun
// segments: base keys at their final version, the keys the last segment
// inserted (present), keys earlier segments inserted and deleted
// (absent), and keys never stored.
func verifySample(sp *spec, m *model, seed uint64, n, segsRun int) (keys, vals []uint64, found []bool) {
	rng := xrand.New(xrand.Mix64(seed ^ 0x766572696679))
	ins := uint64(sp.insertsPerSeg())
	for len(keys) < n {
		var i uint64
		var ok bool
		var ver uint32
		switch c := rng.Intn(4); {
		case c == 0 || ins == 0:
			i = rng.Uint64n(uint64(sp.baseKeys))
			ok, ver = true, m.ver[i]
		case c == 1: // inserted by the last segment, not yet deleted
			i = insertStart(sp, segsRun-1, 0) + rng.Uint64n(ins*numWorkers)
			ok = true
		case c == 2 && segsRun > 0: // inserted earlier, deleted since
			i = insertStart(sp, -1, 0) + rng.Uint64n(ins*numWorkers*uint64(segsRun))
		default:
			i = absentBase + rng.Uint64n(absentBase)
		}
		k := keyOf(i)
		keys = append(keys, k)
		found = append(found, ok)
		if ok {
			vals = append(vals, valueOf(k, ver))
		} else {
			vals = append(vals, 0)
		}
	}
	return keys, vals, found
}

func init() {
	for _, s := range workloads {
		if s.reqsPerSeg%len(s.cycle) != 0 || s.baseKeys%numWorkers != 0 {
			panic(fmt.Sprintf("workload %s: sizes do not divide", s.name))
		}
	}
}
