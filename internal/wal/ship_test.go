package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestShipAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ship")
	s, err := OpenShip(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.NextLSN(); got != 1 {
		t.Fatalf("fresh NextLSN = %d, want 1", got)
	}
	first, err := s.Append(OpInsert, []uint64{10, 20, 30}, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("first = %d, want 1", first)
	}
	if first, err = s.Append(OpDelete, []uint64{20}, nil); err != nil || first != 4 {
		t.Fatalf("second append: first=%d err=%v, want 4, nil", first, err)
	}
	recs := make([]Record, 16)
	n, err := s.Read(1, recs)
	if err != nil || n != 4 {
		t.Fatalf("Read = %d, %v; want 4, nil", n, err)
	}
	want := []Record{
		{LSN: 1, Op: OpInsert, Key: 10, Val: 1},
		{LSN: 2, Op: OpInsert, Key: 20, Val: 2},
		{LSN: 3, Op: OpInsert, Key: 30, Val: 3},
		{LSN: 4, Op: OpDelete, Key: 20, Val: 0},
	}
	for i, w := range want {
		if recs[i] != w {
			t.Fatalf("rec[%d] = %+v, want %+v", i, recs[i], w)
		}
	}
	// Partial read from the middle.
	if n, err = s.Read(3, recs[:1]); err != nil || n != 1 || recs[0].Key != 30 {
		t.Fatalf("mid read = %d (%+v), %v", n, recs[0], err)
	}
	// Reading at the tail returns 0 without blocking.
	if n, _ = s.Read(5, recs); n != 0 {
		t.Fatalf("tail read = %d, want 0", n)
	}
	if err := s.Fsync(); err != nil {
		t.Fatal(err)
	}
}

func TestShipReopenResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ship")
	s, err := OpenShip(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(OpUpsert, []uint64{7, 8}, []uint64{70, 80}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// firstLSN is ignored on reopen of a valid log.
	s, err = OpenShip(path, 999)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.NextLSN(); got != 3 {
		t.Fatalf("reopened NextLSN = %d, want 3", got)
	}
	recs := make([]Record, 4)
	n, err := s.Read(1, recs)
	if err != nil || n != 2 || recs[1] != (Record{LSN: 2, Op: OpUpsert, Key: 8, Val: 80}) {
		t.Fatalf("reopened read = %d %+v, %v", n, recs[:n], err)
	}
}

func TestShipTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ship")
	s, err := OpenShip(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(OpInsert, []uint64{1, 2, 3}, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-write.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	s, err = OpenShip(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.NextLSN(); got != 7 {
		t.Fatalf("NextLSN after torn tail = %d, want 7", got)
	}
	// The log heals: the next append reuses the torn record's LSN.
	if first, err := s.Append(OpInsert, []uint64{9}, []uint64{9}); err != nil || first != 7 {
		t.Fatalf("append after tear: first=%d err=%v, want 7", first, err)
	}
	recs := make([]Record, 4)
	if n, err := s.Read(5, recs); err != nil || n != 3 || recs[2].Key != 9 {
		t.Fatalf("read after heal = %d %+v, %v", n, recs[:n], err)
	}
}

// TestShipTruncateBefore drops a prefix and checks the file shrinks,
// the retained records stay readable at their LSNs, reads below the new
// start fail, and a reopen resumes with the truncated start.
func TestShipTruncateBefore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ship")
	s, err := OpenShip(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	const total = 10000
	for i := 0; i < total; i += 100 {
		keys := make([]uint64, 100)
		vals := make([]uint64, 100)
		for j := range keys {
			keys[j] = uint64(i + j)
			vals[j] = uint64(i+j) * 7
		}
		if _, err := s.Append(OpInsert, keys, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // trim prealloc so sizes compare honestly
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if s, err = OpenShip(path, 1); err != nil {
		t.Fatal(err)
	}
	const cut = 9001 // keep [9001, 10001)
	if err := s.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}
	if got := s.StartLSN(); got != cut {
		t.Fatalf("StartLSN = %d, want %d", got, cut)
	}
	if got := s.NextLSN(); got != total+1 {
		t.Fatalf("NextLSN = %d, want %d", got, total+1)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// The rewritten file is the retained suffix plus its reserve: the
	// 9000 dropped records are gone, the next appends allocate nothing.
	const retained = headerBytes + (total+1-cut)*recordBytes
	if after.Size() != reserveChunk || s.size.Load() != retained || retained >= before.Size() {
		t.Fatalf("after truncate: file %d bytes (want one reserve chunk), records %d bytes (want %d, below %d)",
			after.Size(), s.size.Load(), retained, before.Size())
	}
	recs := make([]Record, 32)
	if _, err := s.Read(cut-1, recs); err == nil {
		t.Fatal("read below the truncated start succeeded")
	}
	if n, err := s.Read(cut, recs); err != nil || n == 0 || recs[0] != (Record{LSN: cut, Op: OpInsert, Key: cut - 1, Val: (cut - 1) * 7}) {
		t.Fatalf("read at new start = %d %+v, %v", n, recs[0], err)
	}
	// Idempotent / clamped calls are no-ops.
	if err := s.TruncateBefore(cut - 500); err != nil {
		t.Fatal(err)
	}
	if got := s.StartLSN(); got != cut {
		t.Fatalf("StartLSN moved backwards: %d", got)
	}
	// Appends continue at the same LSN sequence after truncation.
	if first, err := s.Append(OpDelete, []uint64{42}, nil); err != nil || first != total+1 {
		t.Fatalf("append after truncate: first=%d err=%v, want %d", first, err, total+1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if trimmed, err := os.Stat(path); err != nil || trimmed.Size() != retained+recordBytes {
		t.Fatalf("closed file: %v bytes, err %v; want trimmed to %d", trimmed.Size(), err, retained+recordBytes)
	}
	if s, err = OpenShip(path, 1); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.StartLSN() != cut || s.NextLSN() != total+2 {
		t.Fatalf("reopen after truncate: start=%d next=%d, want %d, %d",
			s.StartLSN(), s.NextLSN(), cut, total+2)
	}
}

// TestShipTruncateConcurrent races TruncateBefore against an appender
// and a tail reader: the reader must see every record it asks for in
// order (it reads at or ahead of the truncation horizon), and nothing
// may corrupt. Run with -race.
func TestShipTruncateConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ship")
	s, err := OpenShip(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const total = 20000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i += 100 {
			keys := make([]uint64, 100)
			for j := range keys {
				keys[j] = uint64(i + j)
			}
			if _, err := s.Append(OpUpsert, keys, keys); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Keep the newest 1000 records.
			if next := s.NextLSN(); next > 1000 {
				if err := s.TruncateBefore(next - 1000); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	cur := uint64(1)
	recs := make([]Record, 64)
	for cur < total+1 {
		// A tail reader tracks the start: after a truncation raced past
		// it, it jumps forward (the chained-subscriber re-seed path).
		if start := s.StartLSN(); cur < start {
			cur = start
		}
		n, err := s.Read(cur, recs)
		if err != nil {
			// The truncation horizon may pass cur between the check and
			// the read; that surfaces as below-start, never as corrupt.
			if errors.Is(err, ErrShipCorrupt) {
				t.Fatal(err)
			}
			continue
		}
		if n == 0 {
			ch := s.Changed()
			if s.NextLSN() > cur {
				continue
			}
			<-ch
			continue
		}
		for i := 0; i < n; i++ {
			if recs[i].LSN != cur+uint64(i) || recs[i].Key != cur+uint64(i)-1 {
				t.Fatalf("wrong record %+v at cursor %d", recs[i], cur)
			}
		}
		cur += uint64(n)
	}
	close(stop)
	wg.Wait()
}

// TestShipConcurrentTailFollow races one appender against a tail
// follower using the Changed() notification protocol and checks the
// follower sees every record exactly once, in order.
func TestShipConcurrentTailFollow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ship")
	s, err := OpenShip(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const total = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i += 50 {
			keys := make([]uint64, 0, 50)
			vals := make([]uint64, 0, 50)
			for j := i; j < i+50 && j < total; j++ {
				keys = append(keys, uint64(j))
				vals = append(vals, uint64(j)*3)
			}
			if _, err := s.Append(OpInsert, keys, vals); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	cur := uint64(1)
	recs := make([]Record, 64)
	for cur < total+1 {
		n, err := s.Read(cur, recs)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			ch := s.Changed()
			if s.NextLSN() > cur {
				continue // an append raced the channel grab
			}
			<-ch
			continue
		}
		for i := 0; i < n; i++ {
			if recs[i].LSN != cur+uint64(i) || recs[i].Key != cur+uint64(i)-1 {
				t.Fatalf("out-of-order record %+v at cursor %d", recs[i], cur)
			}
		}
		cur += uint64(n)
	}
	wg.Wait()
}

// TestShipAppendRotatesOnlyForWaiters: an append wakes tail followers by
// closing and replacing the notification channel, and pays for a new
// channel only when someone took the current one. A log nobody follows
// appends without allocating; a channel taken before an append — the
// window between the grab and the select in the tail-follow protocol —
// is closed by it; and one taken after it is not.
func TestShipAppendRotatesOnlyForWaiters(t *testing.T) {
	s, err := OpenShip(filepath.Join(t.TempDir(), "ship"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys, vals := []uint64{1, 2, 3, 4}, []uint64{5, 6, 7, 8}
	appendOnce := func() {
		if _, err := s.Append(OpUpsert, keys, vals); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(10000, appendOnce); allocs != 0 {
		t.Fatalf("an append nobody waits for allocates %v objects, want 0", allocs)
	}

	ch := s.Changed()
	if s.NextLSN() != 4*10001+1 { // AllocsPerRun makes one warm-up call
		t.Fatalf("NextLSN = %d after 10001 appends of 4", s.NextLSN())
	}
	appendOnce() // lands after the grab and the re-check, before the select
	select {
	case <-ch:
	default:
		t.Fatal("an append after Changed() did not close the channel it returned")
	}
	ch = s.Changed()
	select {
	case <-ch:
		t.Fatal("a channel taken after the last append is already closed")
	default:
	}
	appendOnce()
	<-ch
}

// TestShipReserveTailIgnored: the ship log takes its extent as written
// zeros, ahead of appends and again in TruncateBefore's rewritten file.
// A crash leaves that tail in place; OpenShip must stop at the last
// record, resume there, and leave nothing behind it for a later scan.
func TestShipReserveTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ship")
	s, err := OpenShip(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	const total = 5000
	keys, vals := make([]uint64, total), make([]uint64, total)
	for i := range keys {
		keys[i], vals[i] = uint64(i), uint64(i)*3
	}
	if _, err := s.Append(OpUpsert, keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := s.Fsync(); err != nil {
		t.Fatal(err)
	}
	crashAndReopen := func(when string, start, next uint64) {
		t.Helper()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		records := headerBytes + int64(next-start)*recordBytes
		if info.Size() != alignUp(records, reserveChunk) {
			t.Fatalf("%s: file is %d bytes for %d bytes of records, want them plus a reserve up to the next %d-byte chunk",
				when, info.Size(), records, reserveChunk)
		}
		tail := make([]byte, info.Size()-records)
		if _, err := s.f.ReadAt(tail, records); err != nil {
			t.Fatal(err)
		}
		for i, b := range tail {
			if b != 0 {
				t.Fatalf("%s: reserve byte %d is %#x, want written zeros", when, i, b)
			}
		}
		if err := s.f.Close(); err != nil { // die: no trimming Close
			t.Fatal(err)
		}
		if s, err = OpenShip(path, 1); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if s.StartLSN() != start || s.NextLSN() != next {
			t.Fatalf("%s: reopened at [%d, %d), want [%d, %d)", when, s.StartLSN(), s.NextLSN(), start, next)
		}
		if info, err = os.Stat(path); err != nil || info.Size() != records {
			t.Fatalf("%s: reopened file is %d bytes (err %v), want cut to its %d bytes of records", when, info.Size(), err, records)
		}
		recs := make([]Record, 1)
		if n, err := s.Read(next-1, recs); err != nil || n != 1 || recs[0].Key != next-2 {
			t.Fatalf("%s: last record = %+v (%d, %v)", when, recs[0], n, err)
		}
	}
	crashAndReopen("after append", 1, total+1)
	// The reopened log reserves afresh for its next append.
	if _, err := s.Append(OpUpsert, []uint64{total}, []uint64{total * 3}); err != nil {
		t.Fatal(err)
	}
	crashAndReopen("after reopen and append", 1, total+2)
	if _, err := s.Append(OpUpsert, []uint64{total + 1}, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateBefore(total - 98); err != nil {
		t.Fatal(err)
	}
	crashAndReopen("after TruncateBefore", total-98, total+3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
