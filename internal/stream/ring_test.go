package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
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
// reader on the kept blob all observe exactly the written bytes.
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
	blob, err := r.Keep(false)
	if err != nil {
		t.Fatalf("keep: %v", err)
	}
	wg.Wait()

	if !bytes.Equal(live, want) {
		t.Fatalf("live reader saw %d bytes, want %d (content mismatch)", len(live), total)
	}
	lateB, err := io.ReadAll(r.Reader(context.Background()))
	if err != nil || !bytes.Equal(lateB, want) {
		t.Fatalf("late reader mismatch (err=%v, %d bytes)", err, len(lateB))
	}
	if got := readBlob(t, blob, int64(total)); !bytes.Equal(got, want) {
		t.Fatalf("kept blob mismatch (%d bytes)", len(got))
	}
}

// readAll drains a fresh reader over r.
func readAll(t *testing.T, r *Ring) []byte {
	t.Helper()
	b, err := io.ReadAll(r.Reader(context.Background()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return b
}

// readBlob reads a kept blob back through Open.
func readBlob(t *testing.T, path string, size int64) []byte {
	t.Helper()
	r, err := Open(path, size)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	return readAll(t, r)
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
	if b := readAll(t, r); int64(len(b)) != r.Size() {
		t.Fatalf("read after spill: len=%d size=%d", len(b), r.Size())
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

// TestRingKeep checks the keep-or-unlink ending: a kept ring lands as a
// blob named by its ETag's digest, fsync'd or not, which Open serves back
// byte-exact under the same ETag; a closed or released ring leaves no
// file behind.
func TestRingKeep(t *testing.T) {
	for _, n := range []int{0, 100, 5000} { // empty, in-window, spilled
		dir := t.TempDir()
		want := pattern(n)
		r := NewRing(dir, 1024)
		r.Write(want)
		blob, err := r.Keep(n%2 == 0)
		if err != nil {
			t.Fatalf("%d bytes: keep: %v", n, err)
		}
		if etag := r.ETag(); blob != filepath.Join(dir, etag[1:len(etag)-1]) {
			t.Fatalf("%d bytes: blob %s not named by ETag %s", n, blob, etag)
		}
		if got := readAll(t, r); !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: kept ring read %d bytes", n, len(got))
		}
		r.Release()
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("%d bytes: store holds %d files, want the blob alone", n, len(ents))
		}
		o, err := Open(blob, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, o); !bytes.Equal(got, want) || o.ETag() != r.ETag() || !o.Closed() {
			t.Fatalf("%d bytes: reopened blob differs", n)
		}
		o.Release()
		if _, err := r.Keep(false); !errors.Is(err, ErrClosed) {
			t.Fatalf("second keep = %v, want ErrClosed", err)
		}
	}

	for _, end := range []func(*Ring){
		func(r *Ring) { r.Close(nil) },
		func(r *Ring) { r.Close(errors.New("failed")) },
		func(r *Ring) {}, // never closed: Release alone
	} {
		dir := t.TempDir()
		r := NewRing(dir, 1024)
		r.Write(pattern(5000))
		end(r)
		r.Release()
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Fatalf("unkept ring left %s behind", ents[0].Name())
		}
	}
}

// TestOpenRejectsDamagedBlob checks a missing or short blob never opens.
func TestOpenRejectsDamagedBlob(t *testing.T) {
	dir := t.TempDir()
	r := NewRing(dir, 0)
	r.Write(pattern(2048))
	blob, err := r.Keep(false)
	if err != nil {
		t.Fatal(err)
	}
	r.Release()
	if _, err := Open(blob, 4096); err == nil {
		t.Fatal("short blob opened")
	}
	os.Remove(blob)
	if _, err := Open(blob, 2048); err == nil {
		t.Fatal("missing blob opened")
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
	if got := readAll(t, r); !bytes.Equal(got, want) {
		t.Fatalf("read mismatch (%d bytes)", len(got))
	}
}

// TestRingWriteAllocs pins the write path allocation-free once the window
// exists: spills reuse it, and no wake channel is made while no reader
// is parked.
func TestRingWriteAllocs(t *testing.T) {
	r := NewRing(t.TempDir(), 32<<10)
	defer r.Release()
	chunk := pattern(4 << 10)
	r.Write(chunk)
	if n := testing.AllocsPerRun(200, func() { r.Write(chunk) }); n != 0 {
		t.Fatalf("%.1f allocations per write, want 0", n)
	}
}

// BenchmarkRingWrite writes 4 KiB and 32 KiB chunks into a ring whose one
// reader has drained everything and parked, so every write wakes it, as a
// live download keeps up with the trace exporter. Every 8 MiB the ring is
// closed and replaced, like one streamed artifact after another, which
// bounds the spill file. allocs/MiB counts every allocation in the
// process, the reader's included, per MiB streamed.
func BenchmarkRingWrite(b *testing.B) {
	for _, size := range []int{4 << 10, 32 << 10} {
		b.Run(fmt.Sprintf("write=%dKiB", size>>10), func(b *testing.B) { benchRingWrite(b, size) })
	}
}

func benchRingWrite(b *testing.B, size int) {
	const artifact = 8 << 20
	chunk := bytes.Repeat([]byte("0123456789abcdef"), size/16)
	dir := b.TempDir()
	var r *Ring
	var done chan struct{}
	open := func() {
		r, done = NewRing(dir, 0), make(chan struct{})
		go func(rd *Reader, done chan struct{}) {
			buf := make([]byte, 32<<10)
			for {
				if _, err := rd.Read(buf); err != nil {
					break
				}
			}
			close(done)
		}(r.Reader(context.Background()), done)
	}
	finish := func() {
		r.Close(nil)
		<-done
	}
	parked := func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.parked
	}

	b.SetBytes(int64(size))
	b.ReportAllocs()
	open()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	written := 0
	for i := 0; i < b.N; i++ {
		if written+size > artifact {
			finish()
			open()
			written = 0
		}
		for !parked() {
			runtime.Gosched()
		}
		if _, err := r.Write(chunk); err != nil {
			b.Fatal(err)
		}
		written += size
	}
	finish()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	mib := float64(b.N) * float64(size) / (1 << 20)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/mib, "allocs/MiB")
}
