package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"extbuf"
)

func TestFrameRoundTrip(t *testing.T) {
	keys := []uint64{1, 2, 3, 1 << 60}
	vals := []uint64{10, 20, 30, 40}
	payload := AppendKV(nil, keys, vals)
	buf := AppendFrame(nil, OpInsert, 7, payload)
	buf = AppendFrame(buf, OpLen, 8, nil)

	r := NewReader(bytes.NewReader(buf))
	f, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if f.Op != OpInsert || f.ID != 7 {
		t.Fatalf("frame = %v id %d, want INSERT id 7", f.Op, f.ID)
	}
	gotK, gotV, err := DecodeKVInto(f.Payload, nil, nil)
	if err != nil {
		t.Fatalf("DecodeKVInto: %v", err)
	}
	for i := range keys {
		if gotK[i] != keys[i] || gotV[i] != vals[i] {
			t.Fatalf("pair %d = (%d,%d), want (%d,%d)", i, gotK[i], gotV[i], keys[i], vals[i])
		}
	}
	f, err = r.Next()
	if err != nil || f.Op != OpLen || f.ID != 8 || len(f.Payload) != 0 {
		t.Fatalf("second frame = %+v, %v; want empty LEN id 8", f, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	keys := []uint64{5, 6, 7}
	gotK, err := DecodeKeysInto(AppendKeys(nil, keys), nil)
	if err != nil || len(gotK) != 3 || gotK[2] != 7 {
		t.Fatalf("keys = %v, %v", gotK, err)
	}

	vals := []uint64{1, 0, 9}
	found := []bool{true, false, true}
	gotV, gotF, err := DecodeValuesInto(AppendValues(nil, vals, found), nil, nil)
	if err != nil {
		t.Fatalf("DecodeValuesInto: %v", err)
	}
	for i := range vals {
		if gotV[i] != vals[i] || gotF[i] != found[i] {
			t.Fatalf("value %d = (%d,%v), want (%d,%v)", i, gotV[i], gotF[i], vals[i], found[i])
		}
	}

	gotF, err = DecodeFoundsInto(AppendFounds(nil, found), nil)
	if err != nil || len(gotF) != 3 || gotF[0] != true || gotF[1] != false {
		t.Fatalf("founds = %v, %v", gotF, err)
	}

	n, err := DecodeCount(AppendCount(nil, 12345))
	if err != nil || n != 12345 {
		t.Fatalf("count = %d, %v", n, err)
	}

	st := Stats{Len: 3, MemoryUsed: 4, Ops: extbuf.Stats{Reads: 5},
		Store: extbuf.StoreStats{Fsyncs: 6, WALFsyncs: 7}}
	got, err := DecodeStats(AppendStats(nil, st))
	if err != nil || got != st {
		t.Fatalf("stats = %+v, %v; want %+v", got, err, st)
	}
}

// TestTornFrames verifies that every truncation of a valid frame stream
// fails cleanly: io.EOF exactly at the frame boundary, a torn-frame
// error anywhere inside.
func TestTornFrames(t *testing.T) {
	buf := AppendFrame(nil, OpLookup, 3, AppendKeys(nil, []uint64{1, 2, 3}))
	for cut := 0; cut < len(buf); cut++ {
		r := NewReader(bytes.NewReader(buf[:cut]))
		_, err := r.Next()
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut 0: %v, want io.EOF", err)
			}
			continue
		}
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	r := NewReader(bytes.NewReader(buf))
	if _, err := r.Next(); err != nil {
		t.Fatalf("uncut frame: %v", err)
	}
}

// TestCorruptFrames flips bytes across a valid frame and expects every
// corruption to be rejected — by the magic, version, reserved or CRC
// check — and never mis-decoded.
func TestCorruptFrames(t *testing.T) {
	orig := AppendFrame(nil, OpDelete, 9, AppendKeys(nil, []uint64{42}))
	for i := range orig {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x5a
		r := NewReader(bytes.NewReader(mut))
		f, err := r.Next()
		if err == nil {
			// The only mutation that can still parse is none; flipping any
			// byte must break the CRC.
			t.Fatalf("byte %d: corrupt frame decoded as %+v", i, f)
		}
		if !errors.Is(err, ErrFrame) && !errors.Is(err, ErrTooLarge) &&
			err != io.ErrUnexpectedEOF {
			t.Fatalf("byte %d: unexpected error %v", i, err)
		}
	}
}

// TestOversizedRejected covers both allocation bounds: a frame header
// announcing a payload beyond MaxPayload, and a batch count prefix
// beyond MaxBatch inside a well-formed frame.
func TestOversizedRejected(t *testing.T) {
	// Hand-build a header with an oversized payload length and a valid CRC.
	hdr := binary.LittleEndian.AppendUint32(nil, magic)
	hdr = append(hdr, Version, byte(OpInsert), 0, 0)
	hdr = binary.LittleEndian.AppendUint32(hdr, 1)
	hdr = binary.LittleEndian.AppendUint32(hdr, MaxPayload+1)
	r := NewReader(bytes.NewReader(hdr))
	if _, err := r.Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized payload: %v, want ErrTooLarge", err)
	}

	// A valid frame whose batch count lies about the payload size.
	payload := binary.LittleEndian.AppendUint32(nil, MaxBatch+1)
	frame := AppendFrame(nil, OpLookup, 2, payload)
	f, err := NewReader(bytes.NewReader(frame)).Next()
	if err != nil {
		t.Fatalf("frame decode: %v", err)
	}
	if _, err := DecodeKeysInto(f.Payload, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized batch: %v, want ErrTooLarge", err)
	}

	// A plausible count that exceeds the bytes actually present.
	payload = binary.LittleEndian.AppendUint32(nil, 3)
	payload = binary.LittleEndian.AppendUint64(payload, 1) // only one key follows
	frame = AppendFrame(nil, OpLookup, 3, payload)
	f, err = NewReader(bytes.NewReader(frame)).Next()
	if err != nil {
		t.Fatalf("frame decode: %v", err)
	}
	if _, err := DecodeKeysInto(f.Payload, nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("short batch: %v, want ErrFrame", err)
	}
}

// TestStatsForwardCompat checks the decoder against both a shorter
// (older server) and longer (newer server) field list.
func TestStatsForwardCompat(t *testing.T) {
	full := AppendStats(nil, Stats{Len: 11, MemoryUsed: 22, Ops: extbuf.Stats{Reads: 33}})
	// Older: first two fields only.
	short := binary.LittleEndian.AppendUint32(nil, 2)
	short = append(short, full[4:4+16]...)
	got, err := DecodeStats(short)
	if err != nil || got.Len != 11 || got.MemoryUsed != 22 || got.Ops.Reads != 0 {
		t.Fatalf("short stats = %+v, %v", got, err)
	}
	// Newer: one extra trailing field.
	n := binary.LittleEndian.Uint32(full)
	longer := binary.LittleEndian.AppendUint32(nil, n+1)
	longer = append(longer, full[4:]...)
	longer = binary.LittleEndian.AppendUint64(longer, 999)
	got, err = DecodeStats(longer)
	if err != nil || got.Len != 11 || got.Ops.Reads != 33 {
		t.Fatalf("long stats = %+v, %v", got, err)
	}
}

// TestStatsRetiredPositions: the kernel-bypass tier's five STATS fields
// (positions 27–31, PR 9) are retired, not removed. A payload in PR 24's
// layout — 35 fields, the tier's counters nonzero — decodes every
// surviving counter from its old position, and a fresh encoding still
// has 35 fields, the retired ones zero and the rest where a PR 24 peer
// reads them.
func TestStatsRetiredPositions(t *testing.T) {
	const fields, retired = 35, 27
	old := binary.LittleEndian.AppendUint32(nil, fields)
	for i := 0; i < fields; i++ {
		old = binary.LittleEndian.AppendUint64(old, uint64(100+i))
	}
	got, err := DecodeStats(old)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len != 100 || got.Store.WALFsyncsElided != 120 || got.Repl.ShipStartLSN != 126 {
		t.Fatalf("PR 24 payload decoded as %+v", got)
	}
	if want := (extbuf.ExpiryStats{Tracked: 132, LazyHits: 133, Swept: 134}); got.Expiry != want {
		t.Fatalf("expiry counters = %+v, want %+v", got.Expiry, want)
	}
	fresh := AppendStats(nil, got)
	if n := binary.LittleEndian.Uint32(fresh); n != fields {
		t.Fatalf("fresh encoding has %d fields, want %d", n, fields)
	}
	for i := 0; i < fields; i++ {
		v := binary.LittleEndian.Uint64(fresh[4+i*8:])
		want := uint64(100 + i)
		if i >= retired && i < retired+5 {
			want = 0
		}
		if v != want {
			t.Fatalf("fresh encoding: field %d = %d, want %d", i, v, want)
		}
	}
}

// FuzzWireFrame throws arbitrary bytes at the frame reader and the
// batch decoders: nothing may panic, allocate unboundedly, or accept a
// frame that fails to re-encode to the same bytes.
func FuzzWireFrame(f *testing.F) {
	f.Add(AppendFrame(nil, OpInsert, 1, AppendKV(nil, []uint64{1, 2}, []uint64{3, 4})))
	f.Add(AppendFrame(nil, OpLookup, 2, AppendKeys(nil, []uint64{5})))
	f.Add(AppendFrame(nil, OpValues, 3, AppendValues(nil, []uint64{6}, []bool{true})))
	f.Add(AppendFrame(nil, OpStatsR, 4, AppendStats(nil, Stats{Len: 7})))
	f.Add(AppendFrame(nil, OpLen, 5, nil))
	f.Add(AppendFrame(nil, OpUpsertTTL, 6, AppendTriples(nil, []uint64{1}, []uint64{2}, []uint64{3})))
	f.Add(AppendFrame(nil, OpCAS, 7, AppendTriples(nil, []uint64{1, 2}, []uint64{0, 0}, []uint64{9, 9})))
	f.Add(AppendFrame(nil, OpScan, 8, AppendScan(nil, 1<<48|7, 512)))
	f.Add(AppendFrame(nil, OpScanR, 9, AppendScanR(nil, ^uint64(0), []uint64{1}, []uint64{2})))
	f.Add(AppendFrame(nil, OpExpire, 10, AppendKV(nil, []uint64{3}, []uint64{1e12})))
	f.Add([]byte{})
	f.Add([]byte{0x45, 0x58, 0x57, 0x46})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for {
			fr, err := r.Next()
			if err != nil {
				break // any error is fine; panics are not
			}
			// A frame that validated must re-encode byte-identically.
			re := AppendFrame(nil, fr.Op, fr.ID, fr.Payload)
			fr2, err := NewReader(bytes.NewReader(re)).Next()
			if err != nil {
				t.Fatalf("re-encoded frame failed to decode: %v", err)
			}
			if fr2.Op != fr.Op || fr2.ID != fr.ID || !bytes.Equal(fr2.Payload, fr.Payload) {
				t.Fatalf("frame did not round-trip: %+v vs %+v", fr, fr2)
			}
			// The payload decoders must be total on arbitrary payloads.
			DecodeKVInto(fr.Payload, nil, nil)
			DecodeKeysInto(fr.Payload, nil)
			DecodeValuesInto(fr.Payload, nil, nil)
			DecodeFoundsInto(fr.Payload, nil)
			DecodeCount(fr.Payload)
			DecodeStats(fr.Payload)
			DecodeTriplesInto(fr.Payload, nil, nil, nil)
			DecodeScan(fr.Payload)
			DecodeScanRInto(fr.Payload, nil, nil)
		}
	})
}

// TestReplPayloadRoundTrips covers the PR 7 replication and token
// codecs: REPLBATCH, ACKT, FOUNDST, INFOR, LOOKUPAT and the bare-LSN
// payloads.
func TestReplPayloadRoundTrips(t *testing.T) {
	lsn, err := DecodeLSN(AppendLSN(nil, 42))
	if err != nil || lsn != 42 {
		t.Fatalf("lsn = %d, %v", lsn, err)
	}

	minLSN, keys, err := DecodeLookupAtInto(AppendLookupAt(nil, 77, []uint64{1, 2}), nil)
	if err != nil || minLSN != 77 || len(keys) != 2 || keys[1] != 2 {
		t.Fatalf("lookupat = %d %v, %v", minLSN, keys, err)
	}

	alsn, aepoch, err := DecodeAckT(AppendAckT(nil, 9, 3))
	if err != nil || alsn != 9 || aepoch != 3 {
		t.Fatalf("ackt = %d %d, %v", alsn, aepoch, err)
	}

	flsn, fepoch, found, err := DecodeFoundsTInto(AppendFoundsT(nil, 10, 4, []bool{true, false}), nil)
	if err != nil || flsn != 10 || fepoch != 4 || len(found) != 2 || !found[0] || found[1] {
		t.Fatalf("foundst = %d %d %v, %v", flsn, fepoch, found, err)
	}

	info := Info{Epoch: 2, AppliedLSN: 100, Writable: true, Role: RolePrimary}
	gotInfo, err := DecodeInfo(AppendInfo(nil, info))
	if err != nil || gotInfo != info {
		t.Fatalf("info = %+v, %v; want %+v", gotInfo, err, info)
	}

	recs := []ReplRec{{Op: 1, Key: 5, Val: 50}, {Op: 3, Key: 6, Val: 0}}
	epoch, firstLSN, gotRecs, err := DecodeReplBatchInto(AppendReplBatch(nil, 7, 1000, recs), nil)
	if err != nil || epoch != 7 || firstLSN != 1000 || len(gotRecs) != 2 ||
		gotRecs[0] != recs[0] || gotRecs[1] != recs[1] {
		t.Fatalf("replbatch = %d %d %v, %v", epoch, firstLSN, gotRecs, err)
	}
	// Heartbeat: an empty batch round-trips.
	epoch, firstLSN, gotRecs, err = DecodeReplBatchInto(AppendReplBatch(nil, 7, 1000, nil), nil)
	if err != nil || epoch != 7 || firstLSN != 1000 || len(gotRecs) != 0 {
		t.Fatalf("heartbeat = %d %d %v, %v", epoch, firstLSN, gotRecs, err)
	}
	// The largest legal repl batch stays inside MaxPayload.
	big := make([]ReplRec, MaxReplBatch)
	if p := AppendReplBatch(nil, 1, 1, big); len(p) > MaxPayload {
		t.Fatalf("MaxReplBatch payload %d exceeds MaxPayload %d", len(p), MaxPayload)
	}

	// An oversized count is rejected before any allocation.
	bad := AppendReplBatch(nil, 1, 1, nil)
	binary.LittleEndian.PutUint32(bad[16:], MaxReplBatch+1)
	if _, _, _, err := DecodeReplBatchInto(bad, nil); err == nil {
		t.Fatal("oversized repl batch accepted")
	}

	// Stats round-trips the appended replication fields.
	st := Stats{Len: 1, Repl: extbuf.ReplStats{Epoch: 2, CurrentLSN: 3, FollowerLag: 4, FramesShipped: 5, FramesReplayed: 6}}
	got, err := DecodeStats(AppendStats(nil, st))
	if err != nil || got != st {
		t.Fatalf("stats = %+v, %v; want %+v", got, err, st)
	}
}

// TestTTLPayloadRoundTrips covers the PR 10 TTL/CAS/scan codecs.
func TestTTLPayloadRoundTrips(t *testing.T) {
	a, b, c := []uint64{1, 2}, []uint64{10, 20}, []uint64{100, 200}
	gotA, gotB, gotC, err := DecodeTriplesInto(AppendTriples(nil, a, b, c), nil, nil, nil)
	if err != nil || len(gotA) != 2 || gotA[1] != 2 || gotB[1] != 20 || gotC[1] != 200 {
		t.Fatalf("triples = %v %v %v, %v", gotA, gotB, gotC, err)
	}
	// Empty batches round-trip (a pipelined no-op).
	if _, _, _, err := DecodeTriplesInto(AppendTriples(nil, nil, nil, nil), nil, nil, nil); err != nil {
		t.Fatalf("empty triples: %v", err)
	}
	// A count lying about the bytes present is rejected.
	bad := binary.LittleEndian.AppendUint32(nil, 2)
	bad = append(bad, make([]byte, 24)...) // one entry, count says two
	if _, _, _, err := DecodeTriplesInto(bad, nil, nil, nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("short triples: %v, want ErrFrame", err)
	}
	// The largest legal triple batch stays inside MaxPayload.
	big := make([]uint64, MaxTripleBatch)
	if p := AppendTriples(nil, big, big, big); len(p) > MaxPayload {
		t.Fatalf("MaxTripleBatch payload %d exceeds MaxPayload %d", len(p), MaxPayload)
	}

	cur, max, err := DecodeScan(AppendScan(nil, 3<<48|99, 512))
	if err != nil || cur != 3<<48|99 || max != 512 {
		t.Fatalf("scan = %d %d, %v", cur, max, err)
	}
	if _, _, err := DecodeScan([]byte{1, 2, 3}); !errors.Is(err, ErrFrame) {
		t.Fatalf("short scan: %v, want ErrFrame", err)
	}

	next, keys, vals, err := DecodeScanRInto(AppendScanR(nil, 42, []uint64{7, 8}, []uint64{70, 80}), nil, nil)
	if err != nil || next != 42 || len(keys) != 2 || keys[1] != 8 || vals[1] != 80 {
		t.Fatalf("scanr = %d %v %v, %v", next, keys, vals, err)
	}
	// An empty final page round-trips with the done cursor.
	next, keys, _, err = DecodeScanRInto(AppendScanR(nil, ^uint64(0), nil, nil), nil, nil)
	if err != nil || next != ^uint64(0) || len(keys) != 0 {
		t.Fatalf("final scanr = %d %v, %v", next, keys, err)
	}
	if _, _, _, err := DecodeScanRInto([]byte{1}, nil, nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("short scanr: %v, want ErrFrame", err)
	}

	// Stats round-trips the appended expiry fields, and an old-format
	// payload (without them) still decodes — the append-only contract.
	st := Stats{Len: 1, Expiry: extbuf.ExpiryStats{Tracked: 7, LazyHits: 8, Swept: 9}}
	full := AppendStats(nil, st)
	got, err := DecodeStats(full)
	if err != nil || got != st {
		t.Fatalf("stats = %+v, %v; want %+v", got, err, st)
	}
	old := binary.LittleEndian.AppendUint32(nil, binary.LittleEndian.Uint32(full)-3)
	old = append(old, full[4:len(full)-24]...)
	got, err = DecodeStats(old)
	if err != nil || got.Len != 1 || got.Expiry != (extbuf.ExpiryStats{}) {
		t.Fatalf("pre-expiry stats = %+v, %v", got, err)
	}
}

// TestNewOpcodesDistinct pins the PR 10 opcode assignments: they must
// never collide with existing ops (an old peer answers an unknown op
// with a clean ERR, but a COLLIDING op would be silently misparsed).
func TestNewOpcodesDistinct(t *testing.T) {
	ops := []Op{
		OpInsert, OpUpsert, OpLookup, OpDelete, OpLen, OpSync, OpFlush,
		OpStats, OpPing, OpInfo, OpPromote, OpLookupAt, OpInsertAt,
		OpUpsertAt, OpDeleteAt, OpReplSubscribe, OpReplAck,
		OpExpire, OpUpsertTTL, OpCAS, OpScan,
		OpAck, OpValues, OpFounds, OpCount, OpErr, OpStatsR, OpReplBatch,
		OpAckT, OpFoundsT, OpInfoR, OpScanR,
	}
	seen := make(map[Op]bool)
	for _, op := range ops {
		if seen[op] {
			t.Fatalf("opcode %d assigned twice", uint8(op))
		}
		seen[op] = true
		if op.String() == "" {
			t.Fatalf("opcode %d has no name", uint8(op))
		}
	}
	// Frames with the new ops pass an OLD reader untouched: framing is
	// op-agnostic, so an old server sees the op byte and answers ERR
	// instead of corrupting the stream.
	buf := AppendFrame(nil, OpScan, 1, AppendScan(nil, 0, 10))
	fr, err := NewReader(bytes.NewReader(buf)).Next()
	if err != nil || fr.Op != OpScan {
		t.Fatalf("new-op frame through reader: %+v, %v", fr, err)
	}
}
