package extbuf

import (
	"testing"

	"extbuf/internal/expiry"
	"extbuf/internal/hashfn"
	"extbuf/internal/wal"
	"extbuf/internal/xrand"
)

// replayMock is a map-backed replayTarget that records the net effect
// of a replay, for differential comparison between the serial and
// parallel replay paths.
type replayMock struct {
	m map[uint64]uint64
}

func newReplayMock() *replayMock               { return &replayMock{m: make(map[uint64]uint64)} }
func (r *replayMock) Upsert(k, v uint64) error { r.m[k] = v; return nil }
func (r *replayMock) Delete(k uint64) bool {
	_, ok := r.m[k]
	delete(r.m, k)
	return ok
}

// TestReplayRecordsParallelEquivalent: the parallel replay path (hash
// partition, last-write-wins collapse, bucket-ordered apply) must leave
// the table in exactly the state the serial path produces, for a log
// with heavy key overwrite and delete churn, and must drop the prefix
// the checkpoint already covers.
func TestReplayRecordsParallelEquivalent(t *testing.T) {
	fn := hashfn.Family("", 41)
	rng := xrand.New(41)
	const n = 3 * replayParallelThreshold
	records := make([]wal.Record, n)
	for i := range records {
		r := wal.Record{LSN: uint64(i + 1), Key: rng.Uint64() % 4096, Val: rng.Uint64()}
		switch rng.Uint64() % 8 {
		case 0:
			r.Op = wal.OpDelete
		case 1:
			r.Op = wal.OpInsert
		case 2:
			// Expire: the value field carries the deadline. Real logs
			// only hold expires for present keys, but replay must
			// tolerate any interleaving the collapse can produce.
			r.Op = wal.OpExpire
		default:
			r.Op = wal.OpUpsert
		}
		records[i] = r
	}
	const lastLSN = 100 // checkpoint already absorbed this prefix
	for _, par := range []int{2, 4, 8, 64} {
		serial, parallel := newReplayMock(), newReplayMock()
		serialIdx, parallelIdx := expiry.New(), expiry.New()
		if err := replayRecords(records, lastLSN, fn, serial, serialIdx, 1); err != nil {
			t.Fatal(err)
		}
		if err := replayRecords(records, lastLSN, fn, parallel, parallelIdx, par); err != nil {
			t.Fatal(err)
		}
		if len(serial.m) != len(parallel.m) {
			t.Fatalf("par=%d: Len %d != serial %d", par, len(parallel.m), len(serial.m))
		}
		for k, v := range serial.m {
			if pv, ok := parallel.m[k]; !ok || pv != v {
				t.Fatalf("par=%d: key %d = (%d,%v), serial has %d", par, k, pv, ok, v)
			}
		}
		if serialIdx.Len() != parallelIdx.Len() {
			t.Fatalf("par=%d: expiry Len %d != serial %d", par, parallelIdx.Len(), serialIdx.Len())
		}
		serialIdx.Range(func(k, dl uint64) {
			if pdl, ok := parallelIdx.Deadline(k); !ok || pdl != dl {
				t.Fatalf("par=%d: deadline[%d] = (%d,%v), serial has %d", par, k, pdl, ok, dl)
			}
		})
	}
	// The dropped prefix must actually be dropped: a log entirely below
	// lastLSN replays to an empty table.
	empty := newReplayMock()
	if err := replayRecords(records[:50], uint64(n), fn, empty, expiry.New(), 8); err != nil {
		t.Fatal(err)
	}
	if len(empty.m) != 0 {
		t.Fatalf("prefix below lastLSN replayed: %d entries", len(empty.m))
	}
}
