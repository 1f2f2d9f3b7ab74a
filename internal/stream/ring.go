// Package stream provides the bounded-memory transport between an
// incrementally produced artifact and its concurrent readers: a spill
// ring. The producer (a trace exporter, a metrics encoder) writes bytes
// as the simulation emits them; any number of readers — live HTTP
// streams, the end-of-run cache landing — read the same byte sequence
// from any offset. Memory stays O(window): the ring keeps at most the
// newest `window` bytes in RAM and spills older bytes to a lazily
// created temp file, so an arbitrarily long trace costs the server a
// fixed buffer plus disk, never trace-sized heap.
//
// The byte contract is exact: every reader observes precisely the bytes
// written, in order, with no gaps — a streamed artifact is byte-identical
// to its buffered twin by construction. A SHA-256 runs incrementally over
// the writes, so the strong ETag of the finished artifact is available
// without ever materializing it.
package stream

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"sync"
)

// DefaultWindow is the in-memory window a zero-configured ring keeps.
const DefaultWindow = 256 << 10

// ErrClosed rejects writes after Close.
var ErrClosed = errors.New("stream: ring closed")

// Ring is a bounded spill ring: an io.Writer whose contents remain fully
// readable while at most the newest window bytes stay in memory. Safe for
// one writer and many concurrent readers.
type Ring struct {
	mu     sync.Mutex
	window int
	dir    string

	buf     []byte // bytes [spilled, size)
	spilled int64  // bytes flushed to the spill file, i.e. file length
	spills  int    // writes to the spill file
	size    int64  // total bytes written
	file    *os.File
	fileErr error

	hash   hash.Hash
	etag   string
	closed bool
	err    error

	// wake is closed and replaced whenever data arrives or the ring
	// closes; readers park on the current instance.
	wake chan struct{}
}

// NewRing builds a ring spilling to dir (the OS temp dir when empty) once
// writes exceed window bytes (DefaultWindow when <= 0). The spill file is
// created lazily — a small artifact never touches disk.
func NewRing(dir string, window int) *Ring {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Ring{
		window: window,
		dir:    dir,
		hash:   sha256.New(),
		wake:   make(chan struct{}),
	}
}

// Write appends p to the ring, spilling bytes beyond the memory window to
// the temp file. It never blocks on readers — a slow reader costs disk,
// not backpressure into the simulation.
func (r *Ring) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrClosed
	}
	if r.fileErr != nil {
		return 0, r.fileErr
	}
	r.hash.Write(p)
	r.buf = append(r.buf, p...)
	r.size += int64(len(p))
	if len(r.buf) > r.window {
		// Spill down to half the window, not to the window itself: the
		// next spill is then window/2 bytes away, so each spill is one
		// large write and the memmove behind it costs O(1) per byte.
		if err := r.spillLocked(len(r.buf) - r.window/2); err != nil {
			r.fileErr = err
			return 0, err
		}
	}
	r.wakeLocked()
	return len(p), nil
}

// spillLocked flushes the oldest n buffered bytes to the spill file.
func (r *Ring) spillLocked(n int) error {
	if r.file == nil {
		f, err := os.CreateTemp(r.dir, "rtk-stream-*.spill")
		if err != nil {
			return fmt.Errorf("stream: spill: %w", err)
		}
		// Unlink immediately: the file lives exactly as long as the ring
		// holds it open, however the process exits.
		_ = os.Remove(f.Name())
		r.file = f
	}
	if _, err := r.file.WriteAt(r.buf[:n], r.spilled); err != nil {
		return fmt.Errorf("stream: spill: %w", err)
	}
	r.spilled += int64(n)
	r.spills++
	r.buf = append(r.buf[:0], r.buf[n:]...)
	return nil
}

// wakeLocked rouses every parked reader.
func (r *Ring) wakeLocked() {
	close(r.wake)
	r.wake = make(chan struct{})
}

// Close marks the stream terminal. A nil err means the producer finished
// cleanly: readers drain the remaining bytes and get io.EOF. A non-nil
// err is a mid-stream failure: readers drain and then receive it. Closing
// twice keeps the first terminal state.
func (r *Ring) Close(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	r.err = err
	r.etag = `"` + hex.EncodeToString(r.hash.Sum(nil)) + `"`
	r.wakeLocked()
}

// Release drops the spill file. Call once no reader will touch the ring
// again (job eviction); it does not wake or fail readers.
func (r *Ring) Release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.file != nil {
		_ = r.file.Close()
		r.file = nil
	}
}

// Size returns the total bytes written so far.
func (r *Ring) Size() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Closed reports whether the stream is terminal.
func (r *Ring) Closed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Err returns the terminal error (nil before Close or on clean close).
func (r *Ring) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// ETag returns the strong entity tag of the full content — the quoted hex
// SHA-256, the same tag the buffered serving path computes. Empty until
// the ring is closed.
func (r *Ring) ETag() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.etag
}

// readAtLocked copies available bytes at off into p. Caller holds r.mu
// and guarantees off < r.size.
func (r *Ring) readAtLocked(p []byte, off int64) (int, error) {
	if off >= r.spilled {
		return copy(p, r.buf[off-r.spilled:]), nil
	}
	// Spilled region: read from the file without holding readers to the
	// memory window. Cap at the spilled boundary; the next call continues
	// from memory.
	want := int64(len(p))
	if rem := r.spilled - off; rem < want {
		want = rem
	}
	n, err := r.file.ReadAt(p[:want], off)
	if err != nil && err != io.EOF {
		return n, fmt.Errorf("stream: spill read: %w", err)
	}
	return n, nil
}

// Bytes materializes the full content, refusing past max (<= 0 means no
// bound). Only valid once the ring is closed; the server uses it to land
// small finished artifacts in the result cache.
func (r *Ring) Bytes(max int64) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		return nil, errors.New("stream: Bytes before Close")
	}
	if max > 0 && r.size > max {
		return nil, fmt.Errorf("stream: content %d bytes exceeds inline bound %d", r.size, max)
	}
	out := make([]byte, r.size)
	for off := int64(0); off < r.size; {
		n, err := r.readAtLocked(out[off:], off)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("stream: short read at %d of %d", off, r.size)
		}
		off += int64(n)
	}
	return out, nil
}

// Reader is a sequential blocking reader over the ring's full byte
// sequence from offset 0. Read blocks until bytes arrive, the ring
// closes, or the reader's context is done.
type Reader struct {
	ring *Ring
	ctx  context.Context
	off  int64
}

// Reader returns a new sequential reader. ctx bounds every blocking
// Read (a disconnected HTTP client's request context unparks the
// handler); context.Background blocks until data or close.
func (r *Ring) Reader(ctx context.Context) *Reader {
	return &Reader{ring: r, ctx: ctx}
}

// Read implements io.Reader: the exact written byte sequence, then the
// terminal state (io.EOF on clean close, the producer's error otherwise).
func (rd *Reader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r := rd.ring
	for {
		r.mu.Lock()
		if rd.off < r.size {
			n, err := r.readAtLocked(p, rd.off)
			r.mu.Unlock()
			rd.off += int64(n)
			return n, err
		}
		if r.closed {
			err := r.err
			r.mu.Unlock()
			if err == nil {
				err = io.EOF
			}
			return 0, err
		}
		wake := r.wake
		r.mu.Unlock()
		select {
		case <-wake:
		case <-rd.ctx.Done():
			return 0, rd.ctx.Err()
		}
	}
}

// Offset returns how many bytes this reader has consumed.
func (rd *Reader) Offset() int64 { return rd.off }
