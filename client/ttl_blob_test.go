package client_test

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"extbuf"
	"extbuf/client"
	"extbuf/internal/server"
)

// startSweepingServer is startServer with the TTL sweeper on a tight
// interval, so tests observe reclamation without waiting.
func startSweepingServer(t *testing.T) (string, func()) {
	t.Helper()
	eng, err := extbuf.NewSharded("buffered", extbuf.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, server.Config{
		Engine: eng, Logf: t.Logf,
		SweepEvery: 5 * time.Millisecond, SweepMax: 128,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	return lis.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		eng.Close()
	}
}

// TestTTLRoundTrip drives EXPIRE/UPSERTTTL over the wire: expired keys
// vanish from reads, live ones stay, and the sweeper physically
// reclaims the expired ones.
func TestTTLRoundTrip(t *testing.T) {
	addr, stop := startSweepingServer(t)
	defer stop()
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	keys := make([]uint64, 200)
	vals := make([]uint64, 200)
	for i := range keys {
		keys[i], vals[i] = uint64(i+1), uint64(i*7)
	}
	if _, err := cl.Upsert(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}

	// Expire the first half a hair in the future, so the EXPIRE itself
	// sees them alive but every later read sees them gone.
	dl := client.DeadlineAfter(10 * time.Millisecond)
	deads := make([]uint64, 100)
	for i := range deads {
		deads[i] = dl
	}
	founds, tok, err := cl.Expire(ctx, keys[:100], deads)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range founds {
		if !f {
			t.Fatalf("EXPIRE key %d: not found", keys[i])
		}
	}
	// A missing key must report found=false, not fail.
	founds, _, err = cl.Expire(ctx, []uint64{9999}, []uint64{dl})
	if err != nil || founds[0] {
		t.Fatalf("EXPIRE missing key: (%v, %v), want (false, nil)", founds[0], err)
	}
	time.Sleep(20 * time.Millisecond)

	got, ok, err := cl.Lookup(ctx, keys, tok)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if want := i >= 100; ok[i] != want {
			t.Fatalf("key %d after expiry: found=%v, want %v", keys[i], ok[i], want)
		}
		if i >= 100 && got[i] != vals[i] {
			t.Fatalf("key %d: %d, want %d", keys[i], got[i], vals[i])
		}
	}

	// The sweeper reclaims: server Len drops to the live half.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := cl.Len(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n == 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("len %d after sweeping, want 100", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Expiry.Swept != 100 {
		t.Fatalf("stats: swept %d, want 100", st.Expiry.Swept)
	}
	if st.Expiry.Tracked != 0 {
		t.Fatalf("stats: %d tracked after sweep, want 0", st.Expiry.Tracked)
	}

	// UPSERTTTL with a live deadline is readable; a plain upsert then
	// clears the TTL.
	if _, err := cl.UpsertTTL(ctx, []uint64{501}, []uint64{42}, []uint64{client.DeadlineAfter(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cl.Lookup(ctx, []uint64{501}, client.ReadToken{}); !ok[0] {
		t.Fatal("UPSERTTTL key invisible before its deadline")
	}
	st, _ = cl.Stats(ctx)
	if st.Expiry.Tracked != 1 {
		t.Fatalf("tracked %d, want 1", st.Expiry.Tracked)
	}
	if _, err := cl.Upsert(ctx, []uint64{501}, []uint64{43}); err != nil {
		t.Fatal(err)
	}
	st, _ = cl.Stats(ctx)
	if st.Expiry.Tracked != 0 {
		t.Fatalf("tracked %d after TTL-clearing upsert, want 0", st.Expiry.Tracked)
	}
}

// TestCASRoundTrip checks CAS over the wire: success, stale-old
// failure, and absent-key failure.
func TestCASRoundTrip(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	if _, err := cl.Upsert(ctx, []uint64{1, 2}, []uint64{10, 20}); err != nil {
		t.Fatal(err)
	}
	swapped, tok, err := cl.CompareSwap(ctx,
		[]uint64{1, 2, 3}, []uint64{10, 99, 0}, []uint64{11, 21, 31})
	if err != nil {
		t.Fatal(err)
	}
	if !swapped[0] || swapped[1] || swapped[2] {
		t.Fatalf("swapped = %v, want [true false false]", swapped)
	}
	vals, ok, err := cl.Lookup(ctx, []uint64{1, 2, 3}, tok)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 11 || vals[1] != 20 || ok[2] {
		t.Fatalf("after CAS: vals=%v ok=%v", vals, ok)
	}
}

// TestScanRoundTrip pages the whole table over the wire and checks the
// union of pages is exactly the inserted set.
func TestScanRoundTrip(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	const n = 5000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i], vals[i] = uint64(i+1), uint64(i*3)
	}
	for off := 0; off < n; off += 2500 {
		if _, err := cl.Upsert(ctx, keys[off:off+2500], vals[off:off+2500]); err != nil {
			t.Fatal(err)
		}
	}

	seen := make(map[uint64]uint64, n)
	cursor, pages := uint64(0), 0
	for cursor != client.ScanDone {
		ks, vs, next, err := cl.Scan(ctx, cursor, 512)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range ks {
			if prev, dup := seen[k]; dup && prev != vs[i] {
				t.Fatalf("key %d scanned twice with different values", k)
			}
			seen[k] = vs[i]
		}
		cursor = next
		pages++
		if pages > 10000 {
			t.Fatal("scan does not terminate")
		}
	}
	if pages < 2 {
		t.Fatalf("scan of %d keys took %d page(s); paging untested", n, pages)
	}
	if len(seen) != n {
		t.Fatalf("scan saw %d keys, want %d", len(seen), n)
	}
	for i, k := range keys {
		if seen[k] != vals[i] {
			t.Fatalf("key %d: scanned %d, want %d", k, seen[k], vals[i])
		}
	}
}

// TestBlobRoundTrip checks client-side chunked blobs at the size
// boundaries, plus overwrite and delete.
func TestBlobRoundTrip(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	sizes := []int{0, 1, 7, 8, 9, 100, client.MaxBlobLen}
	for i, size := range sizes {
		key := uint64(i + 1)
		data := bytes.Repeat([]byte{byte(i + 1)}, size)
		if size > 2 {
			data[size/2] = 0xEE
		}
		tok, err := cl.PutBlob(ctx, key, data)
		if err != nil {
			t.Fatalf("put %d bytes: %v", size, err)
		}
		got, found, err := cl.GetBlob(ctx, key, tok)
		if err != nil || !found {
			t.Fatalf("get %d bytes: (%v, %v)", size, found, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("blob %d: round-trip mismatch (%d vs %d bytes)", key, len(got), len(data))
		}
	}

	// Overwrite with a shorter blob; the stale tail chunks are unreachable.
	if _, err := cl.PutBlob(ctx, 6, []byte("short")); err != nil {
		t.Fatal(err)
	}
	got, found, err := cl.GetBlob(ctx, 6, client.ReadToken{})
	if err != nil || !found || string(got) != "short" {
		t.Fatalf("after overwrite: (%q, %v, %v)", got, found, err)
	}

	// Delete, then reads miss.
	found, _, err = cl.DeleteBlob(ctx, 6)
	if err != nil || !found {
		t.Fatalf("delete: (%v, %v)", found, err)
	}
	if _, found, _ = cl.GetBlob(ctx, 6, client.ReadToken{}); found {
		t.Fatal("blob readable after delete")
	}
	if found, _, _ = cl.DeleteBlob(ctx, 6); found {
		t.Fatal("second delete reported a blob")
	}

	// Oversized and out-of-range keys are rejected client-side.
	if _, err := cl.PutBlob(ctx, 1, make([]byte, client.MaxBlobLen+1)); err == nil {
		t.Fatal("oversized blob accepted")
	}
	if _, err := cl.PutBlob(ctx, client.MaxBlobKey+1, []byte("x")); err == nil {
		t.Fatal("out-of-range blob key accepted")
	}
}
