package cache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/run"
	"repro/internal/stream"
)

// hashKey fabricates a content-hash-shaped key (keyPat requires lowercase
// hex, >= 16 chars — like run.Hash output).
func hashKey(i int) string {
	return fmt.Sprintf("%064x", 0xabc0+i)
}

// artifact returns one artifact of a hit, reading a blob-backed one from
// its ring (which it releases).
func artifact(t *testing.T, hit Hit, name string) string {
	t.Helper()
	if r, ok := hit.Rings[name]; ok {
		defer r.Release()
		b, err := io.ReadAll(r.Reader(context.Background()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return string(b)
	}
	return string(hit.Artifacts[name])
}

// TestSpillReloadSameCache: an LRU-evicted entry lands on disk as blobs
// plus an index, and a later miss for it is served from the blobs,
// re-promoted into memory.
func TestSpillReloadSameCache(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{MaxEntries: 2, Dir: dir})
	for i := 0; i < 3; i++ {
		lead(t, c, hashKey(i), fmt.Sprintf("payload%d", i))
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Spills != 1 {
		t.Fatalf("want 1 eviction + 1 spill, got %+v", st)
	}
	spilled := filepath.Join(dir, hashKey(0)+".json")
	if _, err := os.Stat(spilled); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}

	// Miss on the evicted key is served from disk, no flight opened.
	hit, f, _ := c.Begin(hashKey(0))
	if f != nil {
		t.Fatalf("expected disk hit, got a flight")
	}
	if got := artifact(t, hit, "a.txt"); got != "payload0" {
		t.Fatalf("wrong payload from disk: %q", got)
	}
	st = c.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("want 1 disk hit, got %+v", st)
	}
	// Reload promoted the entry back into memory (evicting another).
	if res2, ok := c.Get(hashKey(0)); !ok || string(res2.Artifacts["a.txt"]) != "payload0" {
		t.Fatalf("promoted entry not in memory")
	}
}

// TestSpillWarmsRestart: a fresh Cache pointed at the predecessor's spill
// directory serves its entries — the restart warm-up path.
func TestSpillWarmsRestart(t *testing.T) {
	dir := t.TempDir()
	old := New(Config{MaxEntries: 1, Dir: dir})
	lead(t, old, hashKey(1), "survivor")
	lead(t, old, hashKey(2), "evictor") // evicts + spills hashKey(1)

	fresh := New(Config{Dir: dir})
	res, ok := fresh.Get(hashKey(1))
	if !ok || string(res.Artifacts["a.txt"]) != "survivor" {
		t.Fatalf("restart miss: ok=%v res=%+v", ok, res)
	}
	if st := fresh.Stats(); st.DiskHits != 1 || st.Entries != 1 {
		t.Fatalf("fresh stats: %+v", st)
	}
}

// TestSpillCorruptFileDeleted: a torn or tampered spill file is deleted and
// counted, never served.
func TestSpillCorruptFileDeleted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, hashKey(3)+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Config{Dir: dir})
	if _, ok := c.Get(hashKey(3)); ok {
		t.Fatalf("corrupt spill file served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt spill file not deleted: %v", err)
	}
	if st := c.Stats(); st.DiskErrors != 1 {
		t.Fatalf("want 1 disk error, got %+v", st)
	}
}

// TestSpillDisabled: without Dir nothing is written and nothing reloads.
func TestSpillDisabled(t *testing.T) {
	c := New(Config{MaxEntries: 1})
	lead(t, c, hashKey(4), "a")
	lead(t, c, hashKey(5), "b")
	if _, ok := c.Get(hashKey(4)); ok {
		t.Fatalf("evicted entry resurrected without a spill dir")
	}
	if st := c.Stats(); st.Spills != 0 || st.DiskHits != 0 {
		t.Fatalf("spill counters moved without a dir: %+v", st)
	}
}

// TestSpillRejectsUnsafeKey: keys that are not content hashes never become
// filenames.
func TestSpillRejectsUnsafeKey(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{MaxEntries: 1, Dir: dir})
	lead(t, c, "../../etc/passwd", "x")
	lead(t, c, hashKey(6), "y") // evicts the unsafe key
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("unsafe key produced a file: %v", ents[0].Name())
	}
}

// keepRing writes payload through a ring spooling into dir.
func keepRing(dir, payload string) *stream.Ring {
	r := stream.NewRing(dir, 16)
	r.Write([]byte(payload))
	return r
}

// TestKeepEphemeral: kept rings become blobs named by their ETags; the
// entry serves them back, MaxBytes counts them, and eviction from an
// ephemeral store deletes them.
func TestKeepEphemeral(t *testing.T) {
	store := t.TempDir()
	c := New(Config{MaxEntries: 1})
	ring := keepRing(store, "streamed trace bytes")
	c.Keep(hashKey(1), run.Result{Artifacts: map[string][]byte{"m.json": []byte("{}")}},
		map[string]*stream.Ring{"trace.json": ring})
	ring.Release()
	etag := ring.ETag()
	blob := filepath.Join(store, etag[1:len(etag)-1])
	if _, err := os.Stat(blob); err != nil {
		t.Fatalf("blob not named by ETag: %v", err)
	}
	if st := c.Stats(); st.Bytes < int64(len("streamed trace bytes")) {
		t.Fatalf("blob bytes not counted: %+v", st)
	}

	hit, ok := c.Lookup(hashKey(1))
	if !ok || hit.Rings["trace.json"].ETag() != etag {
		t.Fatalf("blob-backed hit: ok=%v", ok)
	}
	if got := artifact(t, hit, "trace.json"); got != "streamed trace bytes" {
		t.Fatalf("blob payload %q", got)
	}
	if got := artifact(t, hit, "m.json"); got != "{}" {
		t.Fatalf("in-memory payload %q", got)
	}
	if res, ok := c.Get(hashKey(1)); !ok || string(res.Artifacts["trace.json"]) != "streamed trace bytes" {
		t.Fatalf("Get did not read the blob back: %v", res.Artifacts)
	}

	lead(t, c, hashKey(2), "evictor")
	if _, err := os.Stat(blob); !os.IsNotExist(err) {
		t.Fatalf("evicted blob survived in the ephemeral store: %v", err)
	}
	if ents, _ := os.ReadDir(store); len(ents) != 0 {
		t.Fatalf("store not empty: %s", ents[0].Name())
	}
}

// TestKeepPersistentIndex: in a persistent store an evicted blob-backed
// entry becomes an index naming the blob, and a fresh cache serves it.
func TestKeepPersistentIndex(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{MaxEntries: 1, Dir: dir})
	ring := keepRing(dir, "kept across restarts")
	c.Keep(hashKey(1), run.Result{}, map[string]*stream.Ring{"trace.json": ring})
	ring.Release()
	lead(t, c, hashKey(2), "evictor")
	if st := c.Stats(); st.Spills != 1 || st.DiskErrors != 0 {
		t.Fatalf("stats: %+v", st)
	}

	fresh := New(Config{Dir: dir})
	hit, ok := fresh.Lookup(hashKey(1))
	if !ok || hit.Rings["trace.json"].ETag() != ring.ETag() {
		t.Fatalf("restart miss: ok=%v", ok)
	}
	if got := artifact(t, hit, "trace.json"); got != "kept across restarts" {
		t.Fatalf("payload %q", got)
	}
}

// TestMissingBlobIsMiss: a blob deleted or truncated behind a live entry
// turns the hit into a counted miss that opens a flight, never a partial
// serve.
func TestMissingBlobIsMiss(t *testing.T) {
	for _, damage := range []func(string) error{
		os.Remove,
		func(p string) error { return os.Truncate(p, 3) },
	} {
		store := t.TempDir()
		c := New(Config{})
		ring := keepRing(store, "soon to be damaged")
		c.Keep(hashKey(1), run.Result{}, map[string]*stream.Ring{"trace.json": ring})
		ring.Release()
		etag := ring.ETag()
		if err := damage(filepath.Join(store, etag[1:len(etag)-1])); err != nil {
			t.Fatal(err)
		}
		if _, f, leader := c.Begin(hashKey(1)); f == nil || !leader {
			t.Fatal("damaged blob served as a hit")
		}
		if st := c.Stats(); st.DiskErrors != 1 || st.Entries != 0 {
			t.Fatalf("stats: %+v", st)
		}
	}
}

// TestSweepLeftovers: opening a persistent store removes the temp files a
// crash leaves between create and rename, and nothing else.
func TestSweepLeftovers(t *testing.T) {
	dir := t.TempDir()
	old := New(Config{MaxEntries: 1, Dir: dir})
	lead(t, old, hashKey(1), "survivor")
	lead(t, old, hashKey(2), "evictor")
	for _, junk := range []string{".spill-123", ".ring-456"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := os.ReadDir(dir)

	fresh := New(Config{Dir: dir})
	after, _ := os.ReadDir(dir)
	if len(after) != len(before)-2 {
		t.Fatalf("sweep left %d of %d files", len(after), len(before))
	}
	for _, e := range after {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("leftover %s survived the sweep", e.Name())
		}
	}
	if res, ok := fresh.Get(hashKey(1)); !ok || string(res.Artifacts["a.txt"]) != "survivor" {
		t.Fatalf("sweep damaged a valid entry: ok=%v", ok)
	}
}

// oldSpillFile is an entry in the disk format before indexes: artifacts
// inline as base64 in the JSON.
func oldSpillFile(key string) []byte {
	return []byte(fmt.Sprintf(`{"key":%q,"stats":{"scenario":"videogame"},"artifacts":{"a.txt":%q}}`,
		key, base64.StdEncoding.EncodeToString([]byte("payload"))))
}

// FuzzLoadIndex feeds arbitrary bytes to the disk tier as an index next
// to a valid blob. Whatever the bytes, loading never panics, and it is
// either a miss that deletes the index and counts a disk error, or a hit
// that serves only the planted blob's exact bytes.
func FuzzLoadIndex(f *testing.F) {
	const payload = "blob payload"
	key := hashKey(7)
	f.Add(oldSpillFile(key))
	f.Add([]byte(fmt.Sprintf(`{"key":%q,"stats":{},"blobs":{}}`, key)))
	f.Add([]byte(fmt.Sprintf(`{"key":%q,"stats":{},"blobs":{"a.txt":{"sha256":%q,"size":%d}}}`,
		key, blobName(payload), len(payload))))
	f.Add([]byte(fmt.Sprintf(`{"key":%q,"stats":{},"blobs":{"a.txt":{"sha256":%q,"size":3}}}`,
		key, blobName(payload))))
	f.Add([]byte(`{"key":"../x","blobs":{"a":{"sha256":"../../etc/passwd","size":1}}}`))
	f.Add([]byte("{not json"))
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, blobName(payload)), []byte(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		idx := filepath.Join(dir, key+".json")
		if err := os.WriteFile(idx, body, 0o644); err != nil {
			t.Fatal(err)
		}
		c := New(Config{Dir: dir})
		res, ok := c.Get(key)
		if !ok {
			if _, err := os.Stat(idx); !os.IsNotExist(err) {
				t.Fatalf("rejected index not deleted: %v", err)
			}
			if st := c.Stats(); st.DiskErrors != 1 {
				t.Fatalf("rejected index not counted: %+v", st)
			}
			return
		}
		for name, b := range res.Artifacts {
			if !bytes.Equal(b, []byte(payload)) {
				t.Fatalf("%q served %q, not the planted blob", name, b)
			}
		}
	})
}

// TestOldSpillFormatIsMiss: an entry in the pre-index inline format loads
// as a counted miss and is deleted.
func TestOldSpillFormatIsMiss(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, hashKey(8)+".json")
	if err := os.WriteFile(path, oldSpillFile(hashKey(8)), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Config{Dir: dir})
	if _, f, leader := c.Begin(hashKey(8)); f == nil || !leader {
		t.Fatal("old-format spill file served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("old-format file not deleted: %v", err)
	}
	if st := c.Stats(); st.DiskErrors != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// blobName is the store's name for a blob holding payload.
func blobName(payload string) string {
	sum := sha256.Sum256([]byte(payload))
	return hex.EncodeToString(sum[:])
}
