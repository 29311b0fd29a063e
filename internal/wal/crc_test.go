package wal

import (
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"testing"
)

// TestRecordCRCMatchesDigest pins the on-disk format: recordCRC must
// equal the streaming digest over payload-then-LSN that wrote every
// existing log, or those logs stop reopening.
func TestRecordCRCMatchesDigest(t *testing.T) {
	var rec [recordBytes]byte
	for i, lsn := range []uint64{0, 1, 255, 256, 1 << 31, 1<<63 + 12345, ^uint64(0)} {
		rec[0] = byte(OpInsert + Op(i%4))
		binary.LittleEndian.PutUint64(rec[1:9], lsn*0x9e3779b97f4a7c15+uint64(i))
		binary.LittleEndian.PutUint64(rec[9:17], ^lsn)
		var lsnb [8]byte
		binary.LittleEndian.PutUint64(lsnb[:], lsn)
		h := crc32.NewIEEE()
		h.Write(rec[:17])
		h.Write(lsnb[:])
		if got, want := recordCRC(rec[:], lsn), h.Sum32(); got != want {
			t.Fatalf("lsn %d: recordCRC = %#x, digest = %#x", lsn, got, want)
		}
	}
}

// TestRecordPathAllocs pins the per-record and per-read allocation
// counts: the CRC runs on no heap at all, and a streaming ship-log read
// reuses a pooled buffer instead of allocating one per call (the layer
// ledger's wal.ship_read_allocs_per_call).
func TestRecordPathAllocs(t *testing.T) {
	rec := make([]byte, recordBytes)
	var sink uint32
	if n := testing.AllocsPerRun(100, func() { sink += recordCRC(rec, 42) }); n > 0 {
		t.Errorf("recordCRC: %v allocs per call, want 0", n)
	}
	_ = sink

	s, err := OpenShip(filepath.Join(t.TempDir(), "ship"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if _, err := s.Append(OpUpsert, keys, keys); err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, len(keys))
	n := testing.AllocsPerRun(50, func() {
		if got, err := s.Read(1, recs); err != nil || got != len(keys) {
			t.Fatalf("Read = %d, %v", got, err)
		}
	})
	if n > 1 {
		t.Errorf("ShipLog.Read of %d records: %v allocs per call, want <= 1", len(keys), n)
	}
	if recs[7].Key != 7 || recs[7].LSN != 8 {
		t.Fatalf("record 7 = %+v", recs[7])
	}
}
