package cache

import (
	"bytes"
	"container/list"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/run"
	"repro/internal/stream"
)

// Disk tier: an entry evicted from the in-memory LRU of a persistent
// store persists as "<spec-hash>.json", an index naming its blobs. The
// key IS the content hash of the canonical spec and a blob's name IS the
// hash of its bytes, so the files are self-describing and survive
// restarts. Every file lands whole (blobs via stream.Ring.Keep, indexes
// via atomicWrite), and a blob is durable before any index names it. An
// index that fails to decode, or names a blob that is missing or short,
// is deleted and counted, never served.

// index is the on-disk entry format. Blobs is required, so a file in any
// other format fails to decode.
type index struct {
	Key   string             `json:"key"`
	Stats run.Stats          `json:"stats"`
	Blobs map[string]blobRef `json:"blobs"`
}

type blobRef struct {
	SHA256 string `json:"sha256"`
	Size   int64  `json:"size"`
}

// keyPat and digestPat guard filenames against keys and blob names that
// are not plain content hashes.
var (
	keyPat    = regexp.MustCompile(`^[0-9a-f]{16,128}$`)
	digestPat = regexp.MustCompile(`^[0-9a-f]{64}$`)
)

// sweep creates a persistent store, or removes the temp files a crash
// between create and rename left in it. Hash-named files stay.
func sweep(dir string) {
	_ = os.MkdirAll(dir, 0o755)
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if n := e.Name(); strings.HasPrefix(n, ".spill-") || strings.HasPrefix(n, ".ring-") {
			_ = os.Remove(filepath.Join(dir, n))
		}
	}
}

func (c *Cache) indexPath(key string) string { return filepath.Join(c.dir, key+".json") }

// spillLocked persists an evicted entry: its in-memory artifacts become
// blobs, then its index is written. Caller holds c.mu. Errors are
// counted, not returned: the entry was evicted either way.
func (c *Cache) spillLocked(e *entry) {
	if c.dir == "" || !keyPat.MatchString(e.key) {
		return
	}
	idx := index{Key: e.key, Stats: e.res.Stats, Blobs: make(map[string]blobRef, len(e.res.Artifacts)+len(e.blobs))}
	for name, b := range e.blobs {
		idx.Blobs[name] = blobRef{SHA256: filepath.Base(b.Path), Size: b.Size}
	}
	for name, body := range e.res.Artifacts {
		// The window holds all of body, so Keep reports any store error.
		r := stream.NewRing(c.dir, len(body))
		r.Write(body)
		path, err := r.Keep(true)
		r.Release()
		if err != nil {
			c.diskErrors++
			return
		}
		idx.Blobs[name] = blobRef{SHA256: filepath.Base(path), Size: int64(len(body))}
	}
	body, err := json.Marshal(idx)
	if err == nil {
		err = atomicWrite(c.indexPath(e.key), body)
	}
	if err != nil {
		c.diskErrors++
		return
	}
	c.spills++
}

// unindexLocked deletes key's index, if the store is persistent.
func (c *Cache) unindexLocked(key string) {
	if c.dir != "" && keyPat.MatchString(key) {
		_ = os.Remove(c.indexPath(key))
	}
}

// reloadLocked promotes key's index, if any, back into the LRU, its
// artifacts still on disk; hitLocked then checks the blobs it names.
// Caller holds c.mu.
func (c *Cache) reloadLocked(key string) *list.Element {
	if c.dir == "" || !keyPat.MatchString(key) {
		return nil
	}
	body, err := os.ReadFile(c.indexPath(key))
	if err != nil {
		return nil
	}
	var idx index
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	ok := dec.Decode(&idx) == nil && idx.Key == key && idx.Blobs != nil
	e := &entry{key: key, res: run.Result{Stats: idx.Stats}, blobs: make(map[string]Blob, len(idx.Blobs))}
	for name, ref := range idx.Blobs {
		ok = ok && digestPat.MatchString(ref.SHA256)
		e.blobs[name] = Blob{Path: filepath.Join(c.dir, ref.SHA256), Size: ref.Size}
	}
	if !ok {
		c.diskErrors++
		c.unindexLocked(key)
		return nil
	}
	return c.insertLocked(e)
}

// atomicWrite lands body at path via a same-directory temp file, fsync and
// rename, so readers only ever see complete files.
func atomicWrite(path string, body []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".spill-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(body); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
