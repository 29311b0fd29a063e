package extbuf_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"extbuf"
)

// openIOModeTable opens a durable table at path under the given I/O
// mode.
func openIOModeTable(t *testing.T, path, mode string) extbuf.Table {
	t.Helper()
	tbl, err := extbuf.Open("buffered", extbuf.Config{
		Backend: "file", Path: path, IOMode: mode,
		BlockSize: 16, MemoryWords: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestIOModeUnknownRejected: a bad IOMode fails construction with the
// sentinel error on both scratch and durable paths.
func TestIOModeUnknownRejected(t *testing.T) {
	_, err := extbuf.New(extbuf.Config{Backend: "file", IOMode: "dax"})
	if !errors.Is(err, extbuf.ErrUnknownIOMode) {
		t.Fatalf("scratch: got %v, want ErrUnknownIOMode", err)
	}
	_, err = extbuf.New(extbuf.Config{
		Backend: "file", Path: filepath.Join(t.TempDir(), "t.blocks"), IOMode: "dax",
	})
	if !errors.Is(err, extbuf.ErrUnknownIOMode) {
		t.Fatalf("durable: got %v, want ErrUnknownIOMode", err)
	}
}

// TestIOModeSuperblockAdoption: a table created under a direct mode
// records the mode (and its layout sector) in the superblock. A zero-
// IOMode reopen adopts it, the layout-compatible uring mode may
// override it, and a buffered reopen — whose slot stride would misread
// every block — is rejected.
func TestIOModeSuperblockAdoption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.blocks")
	tbl := openIOModeTable(t, path, "odirect")
	const n = 2000
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	direct := tbl.StoreStats().DirectIO > 0
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{"", "odirect", "uring"} {
		tbl, err := extbuf.Open("buffered", extbuf.Config{Backend: "file", Path: path, IOMode: mode})
		if err != nil {
			t.Fatalf("reopen with IOMode %q: %v", mode, err)
		}
		for i := uint64(0); i < n; i += 97 {
			if v, ok := tbl.Lookup(i); !ok || v != i*3 {
				t.Fatalf("reopen %q: Lookup(%d) = %d, %v", mode, i, v, ok)
			}
		}
		if direct && tbl.StoreStats().ODirectFallbacks != 0 {
			t.Fatalf("reopen %q fell back to buffered on a filesystem that supports O_DIRECT", mode)
		}
		if err := tbl.Close(); err != nil {
			t.Fatal(err)
		}
	}

	_, err := extbuf.Open("buffered", extbuf.Config{Backend: "file", Path: path, IOMode: "buffered"})
	if !errors.Is(err, extbuf.ErrSuperblockMismatch) {
		t.Fatalf("buffered reopen of a direct-layout table: got %v, want ErrSuperblockMismatch", err)
	}
}

// TestIOModeBufferedSuperblockRejectsDirect is the converse: a
// buffered-layout table refuses a direct-mode reopen.
func TestIOModeBufferedSuperblockRejectsDirect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.blocks")
	tbl := openIOModeTable(t, path, "")
	if err := tbl.Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := extbuf.Open("buffered", extbuf.Config{Backend: "file", Path: path, IOMode: "odirect"})
	if !errors.Is(err, extbuf.ErrSuperblockMismatch) {
		t.Fatalf("odirect reopen of a buffered-layout table: got %v, want ErrSuperblockMismatch", err)
	}
}

// TestIOModeCrashInjectionStaysBuffered: crash-injected tables refuse
// the kernel-bypass syscall paths regardless of the requested mode, and
// the refusal is not recorded as a fallback — the crash matrix must see
// the same counters whatever IOMode says.
func TestIOModeCrashInjectionStaysBuffered(t *testing.T) {
	for _, mode := range []string{"odirect", "uring"} {
		path := filepath.Join(t.TempDir(), "t.blocks")
		tbl, err := extbuf.Open("buffered", extbuf.Config{
			Backend: "file", Path: path, IOMode: mode,
			Crash: &extbuf.CrashPlan{FailAfterWrites: 1 << 40},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 500; i++ {
			if err := tbl.Insert(i, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.Flush(); err != nil {
			t.Fatal(err)
		}
		st := tbl.StoreStats()
		if st.DirectIO != 0 || st.ODirectFallbacks != 0 || st.UringEnters != 0 || st.UringFallbacks != 0 {
			t.Fatalf("mode %s under crash injection leaked bypass counters: %+v", mode, st)
		}
		if err := tbl.Close(); err != nil {
			t.Fatal(err)
		}
		// The layout still matches the mode: a crash-free reopen under the
		// same mode recovers the data.
		tbl2, err := extbuf.Open("buffered", extbuf.Config{Backend: "file", Path: path, IOMode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := tbl2.Lookup(250); !ok || v != 250 {
			t.Fatalf("mode %s: post-crash-harness reopen lost data: %d, %v", mode, v, ok)
		}
		if err := tbl2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIOModeShardedDurable drives the full engine (sharded, durable,
// group commit) under each I/O mode through insert/flush/reopen.
func TestIOModeShardedDurable(t *testing.T) {
	for _, mode := range []string{"buffered", "odirect", "uring"} {
		t.Run(mode, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "eng.blocks")
			cfg := extbuf.Config{Backend: "file", Path: path, IOMode: mode, BlockSize: 16}
			eng, err := extbuf.NewSharded("buffered", cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			const n = 5000
			for i := uint64(1); i <= n; i++ {
				if err := eng.Insert(i, i^0xabc); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
			st := eng.StoreStats()
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if mode != "buffered" && st.DirectIO == 0 && st.ODirectFallbacks == 0 {
				t.Fatalf("mode %s: neither direct fds nor recorded fallbacks: %+v", mode, st)
			}

			eng2, err := extbuf.NewSharded("buffered", cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer eng2.Close()
			for i := uint64(1); i <= n; i += 131 {
				if v, ok := eng2.Lookup(i); !ok || v != i^0xabc {
					t.Fatal(fmt.Errorf("mode %s: Lookup(%d) = %d, %v after reopen", mode, i, v, ok))
				}
			}
		})
	}
}

// TestBufferedStoreWritesInline pins what a zero WritebackWorkers
// selects: a table whose block file goes through the page cache writes
// inline, one whose fd really is O_DIRECT gets a submitter, and an
// explicit worker count is honoured whatever the mode. (The fourth
// case — a direct mode whose O_DIRECT open fell back — needs the
// store's open hook: iomodel's TestConfigureSubmissionPolicy.)
func TestBufferedStoreWritesInline(t *testing.T) {
	open := func(cfg extbuf.Config) extbuf.Table {
		t.Helper()
		cfg.Backend, cfg.Path = "file", filepath.Join(t.TempDir(), "t.blocks")
		tbl, err := extbuf.Open("buffered", cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tbl.Close() })
		return tbl
	}
	if extbuf.AsyncWritebackForTest(open(extbuf.Config{})) {
		t.Error("zero Config: a buffered table built a writeback submitter")
	}
	if !extbuf.AsyncWritebackForTest(open(extbuf.Config{WritebackWorkers: 4})) {
		t.Error("WritebackWorkers: 4 under buffered I/O built no submitter")
	}
	if extbuf.AsyncWritebackForTest(open(extbuf.Config{IOMode: "odirect", WritebackWorkers: 1})) {
		t.Error("WritebackWorkers: 1 under odirect built a submitter")
	}
	direct := open(extbuf.Config{IOMode: "odirect"})
	switch {
	case direct.StoreStats().DirectIO == 0:
		if extbuf.AsyncWritebackForTest(direct) {
			t.Error("odirect fell back to a buffered fd but built a submitter")
		}
	case runtime.GOMAXPROCS(0) > 1:
		if !extbuf.AsyncWritebackForTest(direct) {
			t.Error("IOMode odirect on a filesystem that grants it built no submitter")
		}
	}
}
