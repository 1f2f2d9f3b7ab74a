// Package stream provides the bounded-memory transport between an
// incrementally produced artifact and its concurrent readers: a spill
// ring. The producer (a trace exporter, a metrics encoder) writes bytes
// as the simulation emits them; any number of readers — live HTTP
// streams, later downloads — read the same byte sequence from any offset.
// Memory stays O(window): the ring keeps at most the newest `window`
// bytes in RAM and spills older bytes to a lazily created ".ring-*" file
// in its directory, so an arbitrarily long trace costs the server a fixed
// buffer plus disk, never trace-sized heap.
//
// The byte contract is exact: every reader observes precisely the bytes
// written, in order, with no gaps — a streamed artifact is byte-identical
// to its buffered twin by construction. A SHA-256 runs incrementally over
// the writes, so the strong ETag of the finished artifact is available
// without reading it back.
//
// A ring ends one of two ways: Close unlinks the spool file, while Keep
// renames it to the content's SHA-256, a blob that Open serves again.
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
	"path/filepath"
	"sync"
)

// DefaultWindow is the in-memory window a zero-configured ring keeps.
const DefaultWindow = 256 << 10

// ErrClosed rejects writes after Close.
var ErrClosed = errors.New("stream: ring closed")

var errReleased = errors.New("stream: ring released")

// windows recycles the memory windows of kept rings (*[]byte): after Keep
// a ring reads only from its file, so a server streaming one artifact
// after another reuses a few windows instead of allocating one each.
var windows sync.Pool

// newWindow returns an empty buffer that holds a full window plus one
// write of up to window/2 bytes, so a ring's buffer never regrows.
func newWindow(window int) []byte {
	if b, ok := windows.Get().(*[]byte); ok && cap(*b) >= window+window/2 {
		return *b
	}
	return make([]byte, 0, window+window/2)
}

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
	path    string // the spool file's name until it is unlinked or kept
	fileErr error

	hash   hash.Hash
	etag   string
	closed bool
	err    error

	// wake is closed and replaced when data arrives or the ring closes,
	// if a reader has parked on it since it was made (parked); readers
	// park on the current instance.
	wake   chan struct{}
	parked bool
}

// NewRing builds a ring spilling to dir (the OS temp dir when empty) once
// writes exceed window bytes (DefaultWindow when <= 0). The spool file is
// created lazily — a small artifact that is never kept never touches disk.
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
// the spool file. It never blocks on readers — a slow reader costs disk,
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
	if r.buf == nil {
		r.buf = newWindow(r.window)
	}
	r.buf = append(r.buf, p...)
	if len(r.buf) > r.window {
		// Spill down to half the window, not to the window itself: the
		// next spill is then window/2 bytes away, so each spill is one
		// large write and the memmove behind it costs O(1) per byte.
		if err := r.spillLocked(len(r.buf) - r.window/2); err != nil {
			// A failed write stays unwritten: readers never see p.
			r.buf = r.buf[:len(r.buf)-len(p)]
			r.fileErr = err
			return 0, err
		}
	}
	r.hash.Write(p)
	r.size += int64(len(p))
	r.wakeLocked()
	return len(p), nil
}

// spillLocked flushes the oldest n buffered bytes to the spill file.
func (r *Ring) spillLocked(n int) error {
	if r.file == nil {
		f, err := os.CreateTemp(r.dir, ".ring-*")
		if err != nil {
			return fmt.Errorf("stream: spill: %w", err)
		}
		r.file, r.path = f, f.Name()
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
	if r.parked {
		close(r.wake)
		r.wake, r.parked = make(chan struct{}), false
	}
}

// Close marks the stream terminal. A nil err means the producer finished
// cleanly: readers drain the remaining bytes and get io.EOF. A non-nil
// err is a mid-stream failure: readers drain and then receive it. Closing
// twice keeps the first terminal state. The spool file is unlinked; open
// readers keep reading through the ring's descriptor.
func (r *Ring) Close(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closeLocked(err)
	r.unlinkLocked()
}

func (r *Ring) closeLocked(err error) {
	r.closed = true
	r.err = err
	r.etag = `"` + hex.EncodeToString(r.hash.Sum(nil)) + `"`
	r.wakeLocked()
}

// unlinkLocked drops the spool file's name, if it still has one.
func (r *Ring) unlinkLocked() {
	if r.path != "" {
		_ = os.Remove(r.path)
		r.path = ""
	}
}

// Keep is Close(nil) for content that outlives the ring: the in-memory
// tail flushes to the spool file (fsync'd when sync is set), which is
// renamed to "<dir>/<sha256-hex>", the ETag's digest; Keep returns that
// path. On an error the ring still closes cleanly and the file is
// unlinked.
func (r *Ring) Keep(sync bool) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return "", ErrClosed
	}
	r.closeLocked(nil)
	err := r.fileErr
	if err == nil {
		err = r.spillLocked(len(r.buf))
	}
	if err == nil && sync {
		err = r.file.Sync()
	}
	var blob string
	if err == nil {
		blob = filepath.Join(filepath.Dir(r.path), r.etag[1:len(r.etag)-1])
		err = os.Rename(r.path, blob)
	}
	if err != nil {
		r.unlinkLocked()
		return "", fmt.Errorf("stream: keep: %w", err)
	}
	if cap(r.buf) >= r.window {
		buf := r.buf[:0]
		windows.Put(&buf)
	}
	r.path, r.buf = "", nil
	return blob, nil
}

// Open serves a blob Keep landed as a finished read-only ring. A blob
// that is missing or not size bytes long is an error, never a partial
// serve.
func Open(path string, size int64) (*Ring, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stream: open blob: %w", err)
	}
	if fi, err := f.Stat(); err != nil || fi.Size() != size {
		f.Close()
		return nil, fmt.Errorf("stream: blob %s is not %d bytes", path, size)
	}
	return &Ring{
		file: f, spilled: size, size: size, closed: true,
		etag: `"` + filepath.Base(path) + `"`,
		wake: make(chan struct{}),
	}, nil
}

// Release closes the spool file and unlinks it unless Keep named it.
// Call once no reader will touch the ring again (job eviction); it does
// not wake or fail readers.
func (r *Ring) Release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.file != nil {
		_ = r.file.Close()
		r.file = nil
	}
	r.unlinkLocked()
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
	if r.file == nil {
		return 0, errReleased
	}
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
		r.parked = true
		r.mu.Unlock()
		select {
		case <-wake:
		case <-rd.ctx.Done():
			return 0, rd.ctx.Err()
		}
	}
}
