package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// pattern builds a deterministic pseudo-random byte sequence.
func pattern(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestRingByteExactness writes several windows' worth of data in ragged
// chunks and checks that a concurrent reader, a late reader, and the
// materializer all observe exactly the written bytes.
func TestRingByteExactness(t *testing.T) {
	const total = 1 << 20 // 4x the window
	want := pattern(total)
	r := NewRing(t.TempDir(), 256<<10)

	var live []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b, err := io.ReadAll(r.Reader(context.Background()))
		if err != nil {
			t.Errorf("live reader: %v", err)
		}
		live = b
	}()

	rng := rand.New(rand.NewSource(3))
	for off := 0; off < total; {
		n := 1 + rng.Intn(64<<10)
		if off+n > total {
			n = total - off
		}
		if _, err := r.Write(want[off : off+n]); err != nil {
			t.Fatalf("write: %v", err)
		}
		off += n
	}
	r.Close(nil)
	wg.Wait()

	if !bytes.Equal(live, want) {
		t.Fatalf("live reader saw %d bytes, want %d (content mismatch)", len(live), total)
	}
	lateB, err := io.ReadAll(r.Reader(context.Background()))
	if err != nil || !bytes.Equal(lateB, want) {
		t.Fatalf("late reader mismatch (err=%v, %d bytes)", err, len(lateB))
	}
	mat, err := r.Bytes(0)
	if err != nil || !bytes.Equal(mat, want) {
		t.Fatalf("Bytes mismatch (err=%v, %d bytes)", err, len(mat))
	}
}

// TestRingMemoryBound checks the spill actually happens: after writing far
// more than the window, the in-memory buffer stays at most window bytes.
func TestRingMemoryBound(t *testing.T) {
	const window = 32 << 10
	r := NewRing(t.TempDir(), window)
	chunk := pattern(4 << 10)
	for i := 0; i < 64; i++ { // 256 KiB through a 32 KiB window
		if _, err := r.Write(chunk); err != nil {
			t.Fatalf("write: %v", err)
		}
		r.mu.Lock()
		n := len(r.buf)
		r.mu.Unlock()
		if n > window {
			t.Fatalf("in-memory buffer %d exceeds window %d", n, window)
		}
	}
	r.mu.Lock()
	spilled, file := r.spilled, r.file
	r.mu.Unlock()
	if file == nil || spilled == 0 {
		t.Fatalf("expected spill file after overflow (spilled=%d)", spilled)
	}
	r.Close(nil)
	b, err := r.Bytes(0)
	if err != nil || int64(len(b)) != r.Size() {
		t.Fatalf("materialize after spill: err=%v len=%d size=%d", err, len(b), r.Size())
	}
}

// TestRingSmallNeverSpills checks a sub-window artifact never touches disk.
func TestRingSmallNeverSpills(t *testing.T) {
	r := NewRing(t.TempDir(), 64<<10)
	r.Write(pattern(1000))
	r.Close(nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.file != nil {
		t.Fatal("small write created a spill file")
	}
}

// TestRingTerminalError checks a mid-stream producer failure reaches the
// reader after the bytes written so far.
func TestRingTerminalError(t *testing.T) {
	r := NewRing(t.TempDir(), 0)
	want := pattern(999)
	r.Write(want)
	boom := errors.New("producer exploded")
	r.Close(boom)

	got, err := io.ReadAll(r.Reader(context.Background()))
	if !errors.Is(err, boom) {
		t.Fatalf("reader error = %v, want %v", err, boom)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reader got %d bytes before error, want %d", len(got), len(want))
	}
	if !errors.Is(r.Err(), boom) {
		t.Fatalf("Err() = %v", r.Err())
	}
	if _, err := r.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close = %v, want ErrClosed", err)
	}
}

// TestRingETag checks the incremental hash matches the strong ETag the
// buffered path would compute over the same bytes.
func TestRingETag(t *testing.T) {
	r := NewRing(t.TempDir(), 1<<10)
	want := pattern(10 << 10)
	for i := 0; i < len(want); i += 777 {
		end := i + 777
		if end > len(want) {
			end = len(want)
		}
		r.Write(want[i:end])
	}
	if r.ETag() != "" {
		t.Fatal("ETag before close should be empty")
	}
	r.Close(nil)
	sum := sha256.Sum256(want)
	if want := `"` + hex.EncodeToString(sum[:]) + `"`; r.ETag() != want {
		t.Fatalf("ETag = %s, want %s", r.ETag(), want)
	}
}

// TestRingReaderContextCancel checks a parked reader unblocks when its
// context dies.
func TestRingReaderContextCancel(t *testing.T) {
	r := NewRing(t.TempDir(), 0)
	ctx, cancel := context.WithCancel(context.Background())
	rd := r.Reader(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := rd.Read(make([]byte, 16))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("read = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader never unparked after cancel")
	}
}

// TestRingBytesBound checks the inline bound is enforced.
func TestRingBytesBound(t *testing.T) {
	r := NewRing(t.TempDir(), 0)
	r.Write(pattern(2048))
	r.Close(nil)
	if _, err := r.Bytes(1024); err == nil {
		t.Fatal("Bytes over bound should fail")
	}
	if b, err := r.Bytes(2048); err != nil || len(b) != 2048 {
		t.Fatalf("Bytes at bound: err=%v len=%d", err, len(b))
	}
}

// TestRingSpillAmortised checks the spill hysteresis: 1 MiB in 4 KiB
// chunks through a 32 KiB window costs at most one spill per window/2
// bytes written, not one per chunk, and the content stays byte-exact.
func TestRingSpillAmortised(t *testing.T) {
	const (
		window = 32 << 10
		total  = 1 << 20
		chunk  = 4 << 10
	)
	want := pattern(total)
	r := NewRing(t.TempDir(), window)
	for off := 0; off < total; off += chunk {
		if _, err := r.Write(want[off : off+chunk]); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	r.Close(nil)
	r.mu.Lock()
	spills := r.spills
	r.mu.Unlock()
	if limit := (total + window/2 - 1) / (window / 2); spills > limit {
		t.Fatalf("%d spills for %d bytes through a %d-byte window, want <= %d", spills, total, window, limit)
	}
	got, err := r.Bytes(0)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Bytes mismatch (err=%v, %d bytes)", err, len(got))
	}
}
