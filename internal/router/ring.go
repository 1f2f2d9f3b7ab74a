package router

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over shard names. Placement depends only
// on the member names and the vnode count — both configuration — so a
// restarted router (or an independently started replica of it) routes
// every key to the same shard. That determinism is what makes the
// per-shard result caches effective: one Spec hash always lands on the
// shard that holds its cached result.
type Ring struct {
	points []ringPoint // sorted by hash
	vnodes int
}

type ringPoint struct {
	hash  uint64
	shard string
}

// defaultVnodes spreads each shard over enough ring positions that load
// imbalance stays within a few percent for small fleets.
const defaultVnodes = 128

// NewRing builds a ring over the given shard names. vnodes <= 0 uses the
// default. Duplicate names collapse to one member.
func NewRing(shards []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	seen := make(map[string]bool, len(shards))
	r := &Ring{vnodes: vnodes}
	for _, s := range shards {
		if seen[s] {
			continue
		}
		seen[s] = true
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(s + "#" + strconv.Itoa(i)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on name so equal hashes cannot make placement depend
		// on input order.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Pick returns the shard owning key: the first ring point clockwise from
// the key's hash. Empty rings return "".
func (r *Ring) Pick(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].shard
}

// Successors returns up to n distinct shards in clockwise ring order
// starting from the key's owner. The first element is Pick(key); the rest
// are the failover order — the same deterministic sequence every router
// replica computes, so retries also route consistently.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	var out []string
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

// hash64 is fnv64a with a splitmix64 finalizer. Raw FNV clusters on the
// short, similar strings vnode labels are made of ("s1#12"), which skews
// ring ownership badly; the avalanche step spreads them.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
