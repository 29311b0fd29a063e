package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"extbuf/internal/iomodel"
)

// The recycling tests hold Reset to the argument it rests on: a log that
// keeps its extent across generations must never hand recovery a record
// of an older one. A long-lived log walks many epochs, so stale records
// of several generations pile up behind the live ones; at every epoch
// boundary the Reset → append → Sync sequence is killed at each of its
// writes on a clone of the log, and the two file images either side of
// it are mixed page by page, as a crash before the next fsync may. Every
// such image must open to a prefix of the old generation (which the
// replay filter skips) or a prefix of the new one (never acknowledged).

// generation is the model of one epoch: record i has LSN first + i, a
// key naming the epoch and a value naming the position.
type generation struct {
	id    uint64
	first uint64
	n     int
}

func (g generation) next() uint64 { return g.first + uint64(g.n) }

func (g generation) op(i int) Op { return Op(1 + (g.id+uint64(i))%4) }

// hasPrefix reports whether recs are g's first len(recs) records.
func (g generation) hasPrefix(recs []Record) bool {
	if len(recs) > g.n {
		return false
	}
	for i, r := range recs {
		if r != (Record{LSN: g.first + uint64(i), Op: g.op(i), Key: g.id<<32 | uint64(i), Val: ^uint64(i)}) {
			return false
		}
	}
	return true
}

// write drives the sequence under test on l: recycle into g, append its
// records, make them durable.
func (g generation) write(l *Log) error {
	if err := l.Reset(g.first); err != nil {
		return err
	}
	for i := 0; i < g.n; i++ {
		if _, err := l.Append(g.op(i), g.id<<32|uint64(i), ^uint64(i)); err != nil {
			return err
		}
	}
	return l.Sync()
}

// checkCrashImage opens the file at path — an image some crash between
// old's last Sync and now's could leave — as the table would, above the
// checkpoint that closed old. What it recovers must be a prefix of one
// of the two generations; the log must resume at or above the checkpoint;
// and what is appended next must be all a second recovery adds.
func checkCrashImage(t testing.TB, path string, old, now generation, label string) {
	t.Helper()
	l, recs, err := Open(path, nil, now.first)
	if err != nil {
		t.Fatalf("%s: open: %v", label, err)
	}
	switch {
	case now.hasPrefix(recs):
	case old.first < now.first && old.hasPrefix(recs) && l.NextLSN() == now.first:
		// The old generation, whole: every record is below the checkpoint.
	default:
		t.Fatalf("%s: recovered %d records that are a prefix of neither generation %d (first %d, %d records) nor %d (first %d, %d records); first %+v last %+v",
			label, len(recs), old.id, old.first, old.n, now.id, now.first, now.n, recs[0], recs[len(recs)-1])
	}
	if l.NextLSN() < now.first {
		t.Fatalf("%s: log resumes at LSN %d, below the checkpoint's %d", label, l.NextLSN(), now.first)
	}
	resumed := l.NextLSN()
	const more = 3
	for i := uint64(0); i < more; i++ {
		if _, err := l.Append(OpUpsert, 1<<60|i, i); err != nil {
			t.Fatalf("%s: append after recovery: %v", label, err)
		}
	}
	if err := l.Spill(); err != nil {
		t.Fatalf("%s: spill after recovery: %v", label, err)
	}
	if err := l.f.Close(); err != nil { // die again: no trimming Close
		t.Fatal(err)
	}
	l2, recs2, err := Open(path, nil, now.first)
	if err != nil {
		t.Fatalf("%s: second open: %v", label, err)
	}
	defer l2.Close()
	if l2.NextLSN() != resumed+more || len(recs2) < more {
		t.Fatalf("%s: second recovery ends at LSN %d with %d records, want %d", label, l2.NextLSN(), len(recs2), resumed+more)
	}
	for i, r := range recs2[len(recs2)-more:] {
		if r != (Record{LSN: resumed + uint64(i), Op: OpUpsert, Key: 1<<60 | uint64(i), Val: uint64(i)}) {
			t.Fatalf("%s: second recovery's record %d from the end = %+v", label, more-i, r)
		}
	}
}

// mixPages builds the image a crash after b was written over a, with only
// some pages persisted, may leave: b where pick says so, else a (zeros
// where a is shorter). Past b's records the two images agree, so only
// the pages under them are mixed.
func mixPages(a, b []byte, bSize int64, pick func(page int) bool) []byte {
	const page = 4096
	m := append([]byte(nil), b...)
	for p := 0; int64(p)*page < bSize && p*page < len(m); p++ {
		if pick(p) {
			continue
		}
		dst := m[p*page : min((p+1)*page, len(m))]
		clear(dst)
		if p*page < len(a) {
			copy(dst, a[p*page:])
		}
	}
	return m
}

func mustRead(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mustWrite stores a file image without its trailing zeros: to the scan
// a reserve of zeros and the end of the file are the same thing, and a
// megabyte of them per image is most of what these tests would write.
func mustWrite(t testing.TB, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, bytes.TrimRight(b, "\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// recycleWalk runs a long-lived log through the epochs of the given
// lengths, checking every crash image along the way (see the comment at
// the top of the file). mixes is the number of random page mixes per
// epoch, on top of the two canonical ones. It returns how often a Reset
// shrank the file and how often an epoch grew it.
func recycleWalk(t testing.TB, lengths []int, mixes int, rng *rand.Rand) (shrunk, grown int) {
	t.Helper()
	dir := t.TempDir()
	path, scratch := filepath.Join(dir, "live.wal"), filepath.Join(dir, "crash.wal")
	l, _, err := Open(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cur := generation{first: 1}
	for e, n := range lengths {
		now := generation{id: uint64(e + 1), first: cur.next(), n: n}
		before := mustRead(t, path)

		// Death at every write of Reset → append → Sync, on a clone of the
		// live log over a copy of its file, stale generations and all.
		for k := int64(1); ; k++ {
			label := fmt.Sprintf("epoch %d (%d records over %d) killed at write %d", e, now.n, cur.n, k)
			mustWrite(t, scratch, before)
			f, err := os.OpenFile(scratch, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			cr := iomodel.NewCrasher(iomodel.CrashPlan{FailAfterWrites: k, TornWrite: k%2 == 0, Seed: uint64(e)})
			clone := &Log{f: cr.WrapFile(f), first: l.first, next: l.next, size: l.size, prealloc: l.prealloc}
			err = now.write(clone)
			clone.f.Close()
			if err == nil {
				if _, recs, err := Open(scratch, nil, now.first); err != nil || len(recs) != now.n || !now.hasPrefix(recs) {
					t.Fatalf("%s: survived, but recovered %d of %d records (err %v)", label, len(recs), now.n, err)
				}
				break
			}
			if !cr.Crashed() {
				t.Fatalf("%s: %v", label, err)
			}
			checkCrashImage(t, scratch, cur, now, label)
		}

		// The live log: Reset, and what a reopen sees right after it.
		highWater, extent := l.size, l.prealloc
		if err := l.Reset(now.first); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if limit := alignUp(highWater, reserveChunk); info.Size() > limit || info.Size() != l.prealloc {
			t.Fatalf("epoch %d: file is %d bytes after Reset (extent %d), want at most the %d-byte epoch rounded up to %d",
				e, info.Size(), l.prealloc, highWater, limit)
		}
		if info.Size() < extent {
			shrunk++
		}
		mustWrite(t, scratch, mustRead(t, path))
		checkCrashImage(t, scratch, cur, generation{id: now.id, first: now.first}, fmt.Sprintf("epoch %d reopened after Reset", e))

		extent = l.prealloc
		for i := 0; i < now.n; i++ {
			if _, err := l.Append(now.op(i), now.id<<32|uint64(i), ^uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if l.prealloc > extent {
			grown++
		}

		// Any subset of the pages written since the last fsync may have
		// reached the disk: old header over new records, new header over
		// old records, and pages in between out of order.
		after := mustRead(t, path)
		picks := []func(int) bool{
			func(p int) bool { return p > 0 },
			func(p int) bool { return p == 0 },
		}
		for i := 0; i < mixes; i++ {
			mask, dense := rng.Uint64(), rng.Intn(2) == 0
			picks = append(picks, func(p int) bool {
				if dense { // long runs of either side
					return mask>>(uint(p/8)%64)&1 == 1
				}
				return (mask*uint64(2*p+1))>>63 == 1
			})
		}
		for i, pick := range picks {
			mustWrite(t, scratch, mixPages(before, after, l.size, pick))
			checkCrashImage(t, scratch, cur, now, fmt.Sprintf("epoch %d (%d records over %d), page mix %d", e, now.n, cur.n, i))
		}
		cur = now
	}
	return shrunk, grown
}

// TestLogRecycleGenerations: sixty epochs of random length — empty ones,
// ones shorter than their predecessor, ones past the spill chunk, and
// two past the reserve chunk, each followed by short ones so that the
// file first keeps a large extent and then gives it back.
func TestLogRecycleGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lengths := make([]int, 60)
	for e := range lengths {
		switch r := rng.Intn(100); {
		case e == 10 || e == 40:
			lengths[e] = reserveChunk/recordBytes + 1 + rng.Intn(20000)
		case r < 15:
			lengths[e] = 0
		case r < 70:
			lengths[e] = 1 + rng.Intn(200)
		default:
			lengths[e] = 200 + rng.Intn(5000)
		}
	}
	mixes := 6
	if testing.Short() {
		mixes = 2
	}
	shrunk, grown := recycleWalk(t, lengths, mixes, rng)
	if shrunk < 2 || grown < 3 {
		t.Fatalf("the file shrank at %d Resets and grew in %d epochs: the shrink and reserve paths were not both walked", shrunk, grown)
	}
}

// TestResetBelowFirstEmptiesFile: recycling is only sound while firstLSN
// grows. A Reset that does not raise it must not leave the old
// generation's records behind the new header, where they would validate.
func TestResetBelowFirstEmptiesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "same.wal")
	l, _, err := Open(path, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		if _, err := l.Append(OpInsert, i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(5); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(OpDelete, 77, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.f.Close(); err != nil { // die: keep whatever is behind the record
		t.Fatal(err)
	}
	_, recs, err := Open(path, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0] != (Record{LSN: 5, Op: OpDelete, Key: 77}) {
		t.Fatalf("recovered %+v, want the one record of the second generation", recs)
	}
}

// TestOpenBelowCheckpointStartsAfresh: a crash inside Reset can leave the
// old header over an old generation partly overwritten by the new one.
// The valid prefix then ends below the checkpoint; a log that resumed
// there would hand out LSNs the replay filter skips.
func TestOpenBelowCheckpointStartsAfresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.wal")
	l, _, err := Open(path, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if _, err := l.Append(OpInsert, i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Ten records, LSNs 1..10 — but the checkpoint says 40 were absorbed.
	l, recs, err := Open(path, nil, 41)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 0 || l.NextLSN() != 41 {
		t.Fatalf("recovered %d records, resuming at LSN %d; want none, 41", len(recs), l.NextLSN())
	}
}

// FuzzLogRecycle walks a short-lived version of the generations test:
// each input byte pair is one epoch's length, every third epoch scaled
// so that it can pass the spill chunk, and the bytes seed the page mixes.
func FuzzLogRecycle(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 200, 0, 7, 0})
	f.Add([]byte{143, 1, 1, 0, 143, 1, 0, 0, 90, 0, 143, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{40, 0, 39, 0, 41, 0, 194, 0, 195, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 12 {
			data = data[:12]
		}
		var lengths []int
		seed := int64(len(data))
		for i := 0; i+1 < len(data); i += 2 {
			n := (int(data[i]) | int(data[i+1])<<8) % 400
			if i%6 == 0 {
				n *= 9 // up to 3591 records: past one spill chunk
			}
			lengths = append(lengths, n)
			seed = seed*131 + int64(n)
		}
		recycleWalk(t, lengths, 2, rand.New(rand.NewSource(seed)))
	})
}
