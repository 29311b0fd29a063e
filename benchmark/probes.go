package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"extbuf"
	"extbuf/internal/iomodel"
	"extbuf/internal/wal"
	"extbuf/internal/wire"
	"extbuf/internal/xrand"
)

// Layer probes replay the workload's own batches directly into one
// layer's public functions, so the ledger has a number for layers the
// served run only exercises from inside. They run after the served
// segments of a traced run and never feed the end-to-end numbers.

// probeRequests is how many of the workload's requests a probe replays.
const probeRequests = 2000

// probeStream generates the first n requests of worker 0's stream on a
// private model (the probes must not disturb the run's oracle).
func probeStream(sp *spec, seed uint64, n int) []*request {
	g := newGenerator(sp, newModel(sp.baseKeys), seed, 0)
	var out []*request
	for seg := 0; len(out) < n; seg++ {
		g.beginSegment(seg)
		for i := 0; i < sp.reqsPerSeg && len(out) < n; i++ {
			r := newRequest()
			g.fill(r)
			out = append(out, r)
		}
	}
	return out
}

// probeWire encodes the workload's request and response frames with the
// wire package's Append* functions and decodes them back through
// Reader.Next and Decode*Into, as the client and server do.
func probeWire(sp *spec, seed uint64, out map[string]float64) error {
	reqs := probeStream(sp, seed, probeRequests)
	found := make([]bool, batchOps)
	for i := range found {
		found[i] = true
	}
	var stream, pay []byte
	ops := 0
	start := time.Now()
	for id, r := range reqs {
		ops += r.ops
		var reqOp, repOp wire.Op
		var rep []byte
		pay = pay[:0]
		switch r.kind {
		case kLookup:
			reqOp, pay = wire.OpLookup, wire.AppendKeys(pay, r.keys)
			repOp, rep = wire.OpValues, wire.AppendValues(nil, r.expVals, r.expFound)
		case kUpsert:
			reqOp, pay = wire.OpUpsert, wire.AppendKV(pay, r.keys, r.vals)
			repOp = wire.OpAck
		case kInsert:
			reqOp, pay = wire.OpInsert, wire.AppendKV(pay, r.keys, r.vals)
			repOp = wire.OpAck
		case kDelete:
			reqOp, pay = wire.OpDelete, wire.AppendKeys(pay, r.keys)
			repOp, rep = wire.OpFounds, wire.AppendFounds(nil, found)
		case kCAS:
			reqOp, pay = wire.OpCAS, wire.AppendTriples(pay, r.keys, r.vals, r.aux)
			repOp, rep = wire.OpFoundsT, wire.AppendFoundsT(nil, 1, 0, found)
		case kUpsertTTL:
			reqOp, pay = wire.OpUpsertTTL, wire.AppendTriples(pay, r.keys, r.vals, r.aux)
			repOp, rep = wire.OpAckT, wire.AppendAckT(nil, 1, 0)
		case kScan:
			// A page carries batchOps entries back; the keys of any other
			// request stand in for them.
			reqOp, pay = wire.OpScan, wire.AppendScan(pay, r.cursor, batchOps)
			repOp, rep = wire.OpScanR, wire.AppendScanR(nil, 0, reqs[0].keys, reqs[0].keys)
		}
		stream = wire.AppendFrame(stream, reqOp, uint32(id), pay)
		stream = wire.AppendFrame(stream, repOp, uint32(id), rep)
	}
	encode := time.Since(start)

	rd := wire.NewReader(bufio.NewReaderSize(bytes.NewReader(stream), 64<<10))
	var a, b, c []uint64
	var f []bool
	start = time.Now()
	for {
		fr, err := rd.Next()
		if err != nil {
			break // io.EOF: the stream is exactly the frames appended above
		}
		switch fr.Op {
		case wire.OpLookup, wire.OpDelete:
			a, err = wire.DecodeKeysInto(fr.Payload, a[:0])
		case wire.OpUpsert, wire.OpInsert:
			a, b, err = wire.DecodeKVInto(fr.Payload, a[:0], b[:0])
		case wire.OpCAS, wire.OpUpsertTTL:
			a, b, c, err = wire.DecodeTriplesInto(fr.Payload, a[:0], b[:0], c[:0])
		case wire.OpScan:
			_, _, err = wire.DecodeScan(fr.Payload)
		case wire.OpValues:
			a, f, err = wire.DecodeValuesInto(fr.Payload, a[:0], f[:0])
		case wire.OpFounds:
			f, err = wire.DecodeFoundsInto(fr.Payload, f[:0])
		case wire.OpFoundsT:
			_, _, f, err = wire.DecodeFoundsTInto(fr.Payload, f[:0])
		case wire.OpAckT:
			_, _, err = wire.DecodeAckT(fr.Payload)
		case wire.OpScanR:
			_, a, b, err = wire.DecodeScanRInto(fr.Payload, a[:0], b[:0])
		}
		if err != nil {
			return err
		}
	}
	decode := time.Since(start)
	out["wire.encode_ns_per_op"] = float64(encode.Nanoseconds()) / float64(ops)
	out["wire.decode_ns_per_op"] = float64(decode.Nanoseconds()) / float64(ops)
	out["wire.bytes_per_op"] = float64(len(stream)) / float64(ops)
	return nil
}

// probeStructure builds one bare buffered table — no shards, no server,
// the mem store — over one shard's share of the workload's keys and
// reports the paper's two costs: model I/Os per insertion (t_u) and per
// successful lookup (t_q), with their wall time.
func probeStructure(sp *spec, seed uint64, out map[string]float64) error {
	tab, err := extbuf.Open("buffered", engineConfig(&spec{}, ""))
	if err != nil {
		return err
	}
	defer tab.Close()
	n := uint64(sp.baseKeys / numShards)
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		k := keyOf(i)
		if err := tab.Insert(k, valueOf(k, 0)); err != nil {
			return err
		}
	}
	insert := time.Since(start)
	tu := tab.Stats().IOs()
	rng := xrand.New(seed)
	lookups := int(min(n, 200_000))
	start = time.Now()
	for j := 0; j < lookups; j++ {
		tab.Lookup(keyOf(rng.Uint64n(n)))
	}
	lookup := time.Since(start)
	out["structures.t_u"] = float64(tu) / float64(n)
	out["structures.t_q"] = float64(tab.Stats().IOs()-tu) / float64(lookups)
	out["structures.insert_ns_per_op"] = float64(insert.Nanoseconds()) / float64(n)
	out["structures.lookup_ns_per_op"] = float64(lookup.Nanoseconds()) / float64(lookups)
	return nil
}

// probePool times the buffer pool alone: a FileStore of the workload's
// pool size under a Disk holding 32x as many blocks, read at random
// beyond the pool (every read a miss: evict, pread, decode) and within
// it (every read a hit).
func probePool(dir string, seed uint64, out map[string]float64) error {
	store, err := iomodel.NewFileStore(filepath.Join(dir, "probe.blocks"), 64, poolBlocks)
	if err != nil {
		return err
	}
	disk := iomodel.NewDiskOn(store)
	defer disk.Close()
	const blocks = 32 * poolBlocks
	entries := make([]iomodel.Entry, 48)
	ids := make([]iomodel.BlockID, blocks)
	for i := range ids {
		ids[i] = disk.Alloc()
		for j := range entries {
			entries[j] = iomodel.Entry{Key: uint64(i*64 + j), Val: uint64(j)}
		}
		disk.Write(ids[i], entries)
	}
	if err := store.Sync(); err != nil {
		return err
	}
	rng := xrand.New(seed)
	buf := disk.AcquireBuf()
	const misses, hits = 20_000, 200_000
	start := time.Now()
	for i := 0; i < misses; i++ {
		buf = disk.Read(ids[rng.Intn(blocks)], buf[:0])
	}
	miss := time.Since(start)
	hot := ids[:poolBlocks/2]
	for _, id := range hot { // fault the hot set in
		buf = disk.Read(id, buf[:0])
	}
	start = time.Now()
	for i := 0; i < hits; i++ {
		buf = disk.Read(hot[rng.Intn(len(hot))], buf[:0])
	}
	hit := time.Since(start)
	out["iomodel.miss_read_us"] = float64(miss.Microseconds()) / misses
	out["iomodel.hit_read_ns"] = float64(hit.Nanoseconds()) / hits
	return nil
}

// probeWAL times the write-ahead log alone, in the shape a commit wave
// gives it: 256 appends, one spill, one fsync.
func probeWAL(dir string, out map[string]float64) error {
	log, _, err := wal.Open(filepath.Join(dir, "probe.wal"), nil, 1)
	if err != nil {
		return err
	}
	defer log.Close()
	const rounds, recs = 200, 256
	var appendNS int64
	fsyncUS := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < recs; i++ {
			if _, err := log.Append(wal.OpUpsert, uint64(r*recs+i), uint64(i)); err != nil {
				return err
			}
		}
		appendNS += time.Since(start).Nanoseconds()
		if err := log.Spill(); err != nil {
			return err
		}
		start = time.Now()
		if err := log.Fsync(); err != nil {
			return err
		}
		fsyncUS = append(fsyncUS, float64(time.Since(start).Nanoseconds())/1e3)
	}
	out["wal.append_ns_per_rec"] = float64(appendNS) / (rounds * recs)
	out["wal.fsync_us_p50"] = median(fsyncUS)
	return nil
}

// probeShip times the replication log alone: batch appends as a shard
// worker issues them, and streaming reads as a follower's subscription
// issues them (ROADMAP names Read's per-call buffer as a suspect, so its
// allocations are counted).
func probeShip(dir string, out map[string]float64) error {
	ship, err := wal.OpenShip(filepath.Join(dir, "probe.ship"), 1)
	if err != nil {
		return err
	}
	defer ship.Close()
	const batches = 2000
	keys, vals := make([]uint64, batchOps), make([]uint64, batchOps)
	start := time.Now()
	for b := 0; b < batches; b++ {
		for i := range keys {
			keys[i], vals[i] = uint64(b*batchOps+i), uint64(i)
		}
		if _, err := ship.Append(wal.OpUpsert, keys, vals); err != nil {
			return err
		}
	}
	appendT := time.Since(start)
	recs := make([]wal.Record, 4096) // the server's streaming read size
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	calls, read := 0, 0
	start = time.Now()
	for lsn := uint64(1); ; calls++ {
		n, err := ship.Read(lsn, recs)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		lsn, read = lsn+uint64(n), read+n
	}
	readT := time.Since(start)
	runtime.ReadMemStats(&ms1)
	out["wal.ship_append_ns_per_rec"] = float64(appendT.Nanoseconds()) / (batches * batchOps)
	out["wal.ship_read_ns_per_rec"] = float64(readT.Nanoseconds()) / float64(read)
	out["wal.ship_read_allocs_per_call"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
	return nil
}

// diskBytes sums the sizes of the files an engine at path owns.
func diskBytes(path string) (total int64, err error) {
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), filepath.Base(path)+".shard") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
