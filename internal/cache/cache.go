// Package cache is the fleet's content-addressed result store: a bounded
// LRU of completed run results keyed by canonical Spec hash (run.Hash),
// with in-flight singleflight deduplication. The determinism contract
// (artifacts are pure functions of the Spec) is what makes it sound — a
// cached entry is byte-for-byte the result a fresh simulation would
// produce — and the canonical encoding is what makes it effective: specs
// that spell defaults differently still land on one key.
//
// An entry's artifacts live in memory or as blobs: files in the artifact
// store named by the SHA-256 of their content. Two capacity bounds apply
// independently: MaxEntries caps the record count and MaxBytes caps the
// summed artifact bytes wherever they live; crossing either evicts
// least-recently-used entries. Singleflight is exposed as an explicit
// flight object rather than a blocking Do(fn) call because the
// job server is asynchronous: the leader runs the simulation on a pool
// worker and completes the flight, while followers park on Done() without
// holding a worker.
package cache

import (
	"container/list"
	"context"
	"io"
	"maps"
	"os"
	"sync"

	"repro/internal/run"
	"repro/internal/stream"
)

// Config bounds the cache.
type Config struct {
	// MaxEntries caps the number of cached results (<= 0: 512).
	MaxEntries int
	// MaxBytes caps the summed artifact bytes across entries (<= 0: 256 MiB).
	MaxBytes int64
	// Dir, when non-empty, is the persistent artifact store: entries
	// evicted from the LRU persist there as indexes naming their blobs,
	// and misses fall back to them — so a restarted server warms itself
	// from its predecessor's store. Empty makes the store ephemeral:
	// evicted entries and their blobs are deleted.
	Dir string
}

// DefaultMaxEntries and DefaultMaxBytes are the bounds a zero Config gets.
const (
	DefaultMaxEntries = 512
	DefaultMaxBytes   = 256 << 20
)

// Cache is the bounded content-addressed result store. Safe for
// concurrent use.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	dir        string
	bytes      int64
	ll         *list.List // front = most recently used
	entries    map[string]*list.Element
	flights    map[string]*Flight

	hits, misses, deduped, evictions uint64
	spills, diskHits, diskErrors     uint64
}

type entry struct {
	key   string
	res   run.Result      // Stats and the in-memory artifacts
	blobs map[string]Blob // the artifacts kept in the store
	size  int64
}

// Blob is an artifact kept as a content-addressed file in the store.
type Blob struct {
	Path string // <store>/<sha256-hex>
	Size int64
}

// Hit is a cached result. Its blob-backed artifacts are in Rings, opened
// as finished rings the caller must Release.
type Hit struct {
	run.Result
	Rings map[string]*stream.Ring
}

// New builds a cache with the given bounds.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.Dir != "" {
		sweep(cfg.Dir)
	}
	return &Cache{
		maxEntries: cfg.MaxEntries,
		maxBytes:   cfg.MaxBytes,
		dir:        cfg.Dir,
		ll:         list.New(),
		entries:    make(map[string]*list.Element),
		flights:    make(map[string]*Flight),
	}
}

// Flight is one in-flight computation of a key. The leader calls Complete
// exactly once; followers select on Done and then read Result. The result
// run.Result shares artifact byte slices with the cache — callers must
// treat them as immutable (the serving contract already does: artifacts
// are written once and only ever streamed out).
type Flight struct {
	c    *Cache
	key  string
	done chan struct{}
	res  run.Result
	err  error
}

// Done is closed when the leader completes the flight.
func (f *Flight) Done() <-chan struct{} { return f.done }

// Result returns the flight's outcome. Only valid after Done is closed.
func (f *Flight) Result() (run.Result, error) { return f.res, f.err }

// Complete resolves the flight: a nil error stores res in the cache, any
// error just wakes the followers with it (failures are never cached — a
// failed run is not a pure function of the Spec, it is a function of
// deadlines and cancellation). Complete must be called exactly once, by
// the leader.
func (f *Flight) Complete(res run.Result, err error) {
	c := f.c
	c.mu.Lock()
	delete(c.flights, f.key)
	if err == nil {
		c.insertLocked(&entry{key: f.key, res: res})
	}
	c.mu.Unlock()
	f.res, f.err = res, err
	close(f.done)
}

// Begin is the cache's single entry point: it returns a hit, or joins the
// key's in-flight computation, or opens a new flight with the caller as
// leader.
//
//	hit, flight, leader := c.Begin(key)
//	switch {
//	case flight == nil:   // hit: serve hit.Artifacts and hit.Rings
//	case leader:          // run the simulation, then flight.Complete(...)
//	default:              // follower: <-flight.Done(); flight.Result()
//	}
func (c *Cache) Begin(key string) (hit Hit, f *Flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit, ok := c.hitLocked(key); ok {
		return hit, nil, false
	}
	if f, ok := c.flights[key]; ok {
		c.deduped++
		return Hit{}, f, false
	}
	c.misses++
	f = &Flight{c: c, key: key, done: make(chan struct{})}
	c.flights[key] = f
	return Hit{}, f, true
}

// Lookup returns the cached result for key without opening a flight.
func (c *Cache) Lookup(key string) (Hit, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitLocked(key)
}

// Get is Lookup with every artifact read into memory.
func (c *Cache) Get(key string) (run.Result, bool) {
	hit, ok := c.Lookup(key)
	if !ok || len(hit.Rings) == 0 {
		return hit.Result, ok
	}
	res := run.Result{Stats: hit.Stats, Artifacts: make(map[string][]byte, len(hit.Artifacts)+len(hit.Rings))}
	maps.Copy(res.Artifacts, hit.Artifacts)
	for name, r := range hit.Rings {
		b, err := io.ReadAll(r.Reader(context.Background()))
		r.Release()
		res.Artifacts[name] = b
		ok = ok && err == nil
	}
	return res, ok
}

// hitLocked finds key in memory or the disk tier and opens its blobs. A
// blob that is missing or short turns the hit into a miss counted in
// disk_errors, never a partial serve. Caller holds c.mu.
func (c *Cache) hitLocked(key string) (Hit, bool) {
	el, inMemory := c.entries[key]
	if !inMemory {
		if el = c.reloadLocked(key); el == nil {
			return Hit{}, false
		}
	}
	e := el.Value.(*entry)
	var rings map[string]*stream.Ring // nil for an in-memory entry: hits stay allocation-free
	if len(e.blobs) > 0 {
		rings = make(map[string]*stream.Ring, len(e.blobs))
	}
	for name, b := range e.blobs {
		r, err := stream.Open(b.Path, b.Size)
		if err != nil {
			for _, r := range rings {
				r.Release()
			}
			c.diskErrors++
			c.removeLocked(el)
			c.unindexLocked(key)
			return Hit{}, false
		}
		rings[name] = r
	}
	c.ll.MoveToFront(el)
	if inMemory {
		c.hits++
	} else {
		c.diskHits++
	}
	return Hit{Result: e.res, Rings: rings}, true
}

// Put stores a completed in-memory result under key without a flight.
func (c *Cache) Put(key string, res run.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(&entry{key: key, res: res})
}

// Keep caches a finished streamed run: each ring ends with
// stream.Ring.Keep, fsync'd only in a persistent store, and the entry
// holds res plus the resulting blobs. If the store fails, every ring
// still closes cleanly, the failure counts in disk_errors, and nothing is
// cached.
func (c *Cache) Keep(key string, res run.Result, rings map[string]*stream.Ring) {
	e := &entry{key: key, res: res, blobs: make(map[string]Blob, len(rings))}
	var err error
	for name, r := range rings {
		if err != nil {
			r.Close(nil)
			continue
		}
		var path string
		if path, err = r.Keep(c.dir != ""); err == nil {
			e.blobs[name] = Blob{Path: path, Size: r.Size()}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.diskErrors++
		c.dropBlobs(e.blobs)
		return
	}
	c.insertLocked(e)
}

// insertLocked stores e and evicts LRU entries past either bound. It
// returns e's element, or the existing one if another leader raced e's
// key in (determinism makes them identical). Caller holds c.mu.
func (c *Cache) insertLocked(e *entry) *list.Element {
	if el, ok := c.entries[e.key]; ok {
		c.ll.MoveToFront(el)
		return el
	}
	e.size = entrySize(e)
	el := c.ll.PushFront(e)
	c.entries[e.key] = el
	c.bytes += e.size
	for (len(c.entries) > c.maxEntries || c.bytes > c.maxBytes) && c.ll.Len() > 1 {
		victim := c.ll.Back()
		c.evictions++
		c.spillLocked(victim.Value.(*entry))
		c.removeLocked(victim)
	}
	return el
}

// removeLocked drops an entry from the LRU, and its blobs with it.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
	c.dropBlobs(e.blobs)
}

// dropBlobs deletes blobs from an ephemeral store, bounding its disk use
// like RAM; a blob another entry shares goes too, making that entry's
// next hit a counted miss. A persistent store keeps blobs for its indexes.
func (c *Cache) dropBlobs(blobs map[string]Blob) {
	if c.dir != "" {
		return
	}
	for _, b := range blobs {
		_ = os.Remove(b.Path)
	}
}

// entrySize is the accounting weight of one entry: artifact bytes plus a
// small fixed overhead.
func entrySize(e *entry) int64 {
	const overhead = 512
	n := int64(overhead)
	for name, b := range e.res.Artifacts {
		n += int64(len(name)) + int64(len(b))
	}
	for name, b := range e.blobs {
		n += int64(len(name)) + b.Size
	}
	return n
}

// Stats is a snapshot of the cache's counters and occupancy.
type Stats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Deduped   uint64 `json:"deduped"`
	Evictions uint64 `json:"evictions"`
	InFlight  int    `json:"in_flight"`
	// Disk-tier counters (DiskErrors also counts lost blobs).
	Spills     uint64 `json:"spills,omitempty"`
	DiskHits   uint64 `json:"disk_hits,omitempty"`
	DiskErrors uint64 `json:"disk_errors,omitempty"`
}

// Stats returns a consistent snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:    len(c.entries),
		Bytes:      c.bytes,
		Hits:       c.hits,
		Misses:     c.misses,
		Deduped:    c.deduped,
		Evictions:  c.evictions,
		InFlight:   len(c.flights),
		Spills:     c.spills,
		DiskHits:   c.diskHits,
		DiskErrors: c.diskErrors,
	}
}
