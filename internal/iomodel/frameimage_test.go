package iomodel

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// A frame is its slot image: these tests hold the bytes a store writes
// to the format the encoder it replaced produced, and the bytes it
// reads to what the decoder it replaced returned.

// referenceEncode is the per-entry encoder FileStore used before frames
// became slot images, kept as the format's reference: 8-byte header
// (count, next+1, little-endian), entries as little-endian (key, val)
// words, everything after them zero up to slotBytes.
func referenceEncode(entries []Entry, next BlockID, slotBytes int) []byte {
	buf := make([]byte, slotBytes)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(entries)))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(int32(next+1)))
	for i, e := range entries {
		off := blockHeaderBytes + i*entryBytes
		binary.LittleEndian.PutUint64(buf[off:off+8], e.Key)
		binary.LittleEndian.PutUint64(buf[off+8:off+16], e.Val)
	}
	return buf
}

// layouts are the slot layouts a file can have: packed, and padded to
// either sector size in use.
var layouts = []IOOptions{
	{},
	{Mode: IOModeODirect, Sector: 512},
	{Mode: IOModeODirect, Sector: 4096},
}

// readSlot returns the raw bytes of physical slot phys of s's file.
func readSlot(t testing.TB, s *FileStore, phys int64) []byte {
	t.Helper()
	buf := make([]byte, s.slotBytes)
	f, err := os.Open(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadAt(buf, phys*s.slotBytes); err != nil {
		t.Fatal(err)
	}
	return buf
}

// checkFrameImage writes (entries, next) as a block through a one-frame
// pool whose frame last held a full block of other data, and requires
// the slot on disk to be byte-equal to the reference encoding; then it
// plants the reference bytes in another slot and requires a fault of
// that slot to return the same entries and pointer.
func checkFrameImage(t testing.TB, b int, opt IOOptions, entries []Entry, next BlockID) {
	t.Helper()
	forceNoDirect = true // layout under test, not the fd: plain reads of the file must see the writes
	defer func() { forceNoDirect = false }()
	s, err := NewFileStoreIO(filepath.Join(t.TempDir(), "img.blocks"), b, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	full := make([]Entry, b)
	for i := range full {
		full[i] = Entry{Key: ^uint64(0), Val: ^uint64(0)}
	}
	other, id, planted := s.Alloc(), s.Alloc(), s.Alloc()
	s.WriteBlock(other, full)
	s.WriteBlock(id, entries) // evicts other; the frame still holds its bytes
	s.SetNext(id, next)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want := referenceEncode(entries, next, int(s.slotBytes))
	if got := readSlot(t, s, int64(id)); !bytes.Equal(got, want) {
		t.Fatalf("b=%d layout %+v: slot image differs from the reference encoding\n got %x\nwant %x", b, opt, got, want)
	}

	if _, err := s.f.WriteAt(want, int64(planted)*s.slotBytes); err != nil {
		t.Fatal(err)
	}
	if got := s.ReadBlock(planted, nil); !slices.Equal(got, entries) {
		t.Fatalf("b=%d layout %+v: load of reference bytes = %v, want %v", b, opt, got, entries)
	}
	if got := s.Next(planted); got != next {
		t.Fatalf("b=%d layout %+v: load of reference bytes: next = %d, want %d", b, opt, got, next)
	}
}

func TestFrameImageMatchesReferenceEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, opt := range layouts {
		for _, b := range []int{1, 7, 64} {
			for round := 0; round < 20; round++ {
				entries := make([]Entry, rng.Intn(b+1))
				for i := range entries {
					entries[i] = Entry{Key: rng.Uint64(), Val: rng.Uint64()}
				}
				next := BlockID(rng.Int31()) - 1 // NilBlock included
				checkFrameImage(t, b, opt, entries, next)
			}
		}
	}
}

// FuzzFrameImage is TestFrameImageMatchesReferenceEncoding with the
// fuzzer choosing the block: data is cut into 16-byte entries.
func FuzzFrameImage(f *testing.F) {
	f.Add([]byte{}, int32(-1), uint8(4), uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 64), int32(0), uint8(4), uint8(1))
	f.Add([]byte("0123456789abcdef0123456789abcdefXYZ"), int32(1<<31-2), uint8(200), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, next int32, bRaw, layout uint8) {
		b := int(bRaw)%64 + 1
		entries := make([]Entry, 0, b)
		for ; len(data) >= entryBytes && len(entries) < b; data = data[entryBytes:] {
			entries = append(entries, Entry{
				Key: binary.BigEndian.Uint64(data[0:8]),
				Val: binary.BigEndian.Uint64(data[8:16]),
			})
		}
		checkFrameImage(t, b, layouts[int(layout)%len(layouts)], entries, BlockID(next))
	})
}

// TestSealZeroesStaleTail: bytes past a block's live entries never
// reach the file, whether they are the block's own deleted entries or
// what the frame's previous occupant left behind. The pool has one
// frame, so touching another block is an eviction.
func TestSealZeroesStaleTail(t *testing.T) {
	const b = 16
	full := make([]Entry, b)
	for i := range full {
		full[i] = Entry{Key: 0xa5a5a5a5a5a5a5a5, Val: 0x5a5a5a5a5a5a5a5a}
	}
	for _, opt := range layouts {
		forceNoDirect = true
		s, err := NewFileStoreIO(filepath.Join(t.TempDir(), "tail.blocks"), b, 1, opt)
		forceNoDirect = false
		if err != nil {
			t.Fatal(err)
		}
		other := s.Alloc()
		tailIsZero := func(id BlockID, live int, what string) {
			t.Helper()
			img := readSlot(t, s, int64(id))
			if n := binary.LittleEndian.Uint32(img[0:4]); int(n) != live {
				t.Fatalf("layout %+v, %s: count on disk = %d, want %d", opt, what, n, live)
			}
			tail := img[blockHeaderBytes+live*entryBytes:]
			if !bytes.Equal(tail, make([]byte, len(tail))) {
				t.Fatalf("layout %+v, %s: stale bytes past entry %d reached the file: %x", opt, what, live, tail)
			}
		}

		// Fill to B(), write out, fault back in, delete down to 3, evict.
		id := s.Alloc()
		s.WriteBlock(id, full)
		s.ReadBlock(other, nil)
		got := s.ReadBlock(id, nil)
		if len(got) != b {
			t.Fatalf("layout %+v: full block read back %d entries", opt, len(got))
		}
		s.WriteBlock(id, got[:3])
		s.ReadBlock(other, nil)
		tailIsZero(id, 3, "after deleting down to 3")

		// A whole-block write of fewer entries into the frame a full block
		// was just evicted from: the miss path that reads no entries.
		big, short := s.Alloc(), s.Alloc()
		s.WriteBlock(big, full)
		s.WriteBlock(short, full[:2])
		s.ReadBlock(other, nil)
		tailIsZero(short, 2, "after a short whole-block write into a recycled frame")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBigEndianSwapRoundTrips forces the big-endian host's path on this
// host: entry words are swapped around every transfer, so blocks
// round-trip through single-frame write-backs, gathered runs and the
// asynchronous pool, and the file holds each word byte-reversed from
// what this host's native path would have written — which on a real
// big-endian host is exactly the little-endian format.
func TestBigEndianSwapRoundTrips(t *testing.T) {
	for _, workers := range []int{1, 3} {
		s, err := NewFileStore(filepath.Join(t.TempDir(), "swab.blocks"), 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		s.swab = !hostBigEndian
		s.SetWritebackWorkers(workers)
		const blocks = 64
		block := func(i int) []Entry {
			es := make([]Entry, 1+i%8)
			for j := range es {
				es[j] = Entry{Key: 0x0102030405060708 + uint64(i), Val: uint64(j)<<56 | uint64(i)}
			}
			return es
		}
		for i := 0; i < blocks; i++ {
			s.WriteBlock(s.Alloc(), block(i)) // evictions: single-frame writes
			if i%16 == 15 {
				if err := s.Sync(); err != nil { // barrier: gathered runs
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < blocks; i++ {
			if got := s.ReadBlock(BlockID(i), nil); !slices.Equal(got, block(i)) {
				t.Fatalf("workers=%d: block %d = %v, want %v", workers, i, got, block(i))
			}
		}
		native := referenceEncode(block(5), NilBlock, int(s.slotBytes))
		swapWords(native[blockHeaderBytes : blockHeaderBytes+len(block(5))*entryBytes])
		if got := readSlot(t, s, 5); !bytes.Equal(got, native) {
			t.Fatalf("workers=%d: swapped image\n got %x\nwant %x", workers, got, native)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConfigureSubmissionPolicy pins who gets an asynchronous
// submitter when nobody asks for one by number: only a store whose fd
// really is O_DIRECT.
func TestConfigureSubmissionPolicy(t *testing.T) {
	open := func(mode string, noDirect bool, crasher *Crasher) *FileStore {
		t.Helper()
		forceNoDirect = noDirect
		defer func() { forceNoDirect = false }()
		s, err := OpenFileStoreIO(filepath.Join(t.TempDir(), "p.blocks"), 4, 8, crasher, IOOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	cases := []struct {
		name     string
		mode     string
		noDirect bool
		workers  int
		async    bool
	}{
		{"buffered default", IOModeBuffered, false, 0, false},
		{"buffered explicit pool", IOModeBuffered, false, 4, true},
		{"buffered explicit sync", IOModeBuffered, false, 1, false},
		{"odirect fell back", IOModeODirect, true, 0, false},
		{"uring fell back to buffered fd", IOModeUring, true, 0, false},
		{"odirect fell back, explicit pool", IOModeODirect, true, 2, true},
	}
	for _, c := range cases {
		s := open(c.mode, c.noDirect, nil)
		s.ConfigureSubmission(c.mode, c.workers)
		if s.AsyncWriteback() != c.async {
			t.Errorf("%s: async submitter = %v, want %v", c.name, s.AsyncWriteback(), c.async)
		}
		if c.noDirect && c.workers == 0 && s.Stats().UringFallbacks != 0 {
			t.Errorf("%s: counted a ring fallback for a ring nobody tried to build", c.name)
		}
	}
	// Granted O_DIRECT: the default builds a submitter (on a multi-CPU
	// host; one CPU keeps even that synchronous, as before).
	if s := open(IOModeODirect, false, nil); s.direct {
		s.ConfigureSubmission(IOModeODirect, 0)
		if want := runtime.GOMAXPROCS(0) > 1; s.AsyncWriteback() != want {
			t.Errorf("granted odirect default: async submitter = %v, want %v", s.AsyncWriteback(), want)
		}
	}
	s := open(IOModeODirect, false, NewCrasher(CrashPlan{FailAfterWrites: 1 << 30}))
	s.ConfigureSubmission(IOModeODirect, 4)
	if s.AsyncWriteback() {
		t.Error("crash-injected store accepted a submitter")
	}
}
