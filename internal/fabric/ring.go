// Package fabric shards the lab batch service horizontally: a coordinator
// consistent-hashes job keys across N labd workers, each owning its own
// store shard, and streams one merged NDJSON response that preserves job
// order. The fabric stays correct under
// failure — per-shard retry with backoff, hedged requests to a replica
// when a shard runs long, bounded in-flight jobs per shard with 503 +
// Retry-After backpressure, and work-stealing reassignment of queued jobs
// from skewed shards — so a cluster answers byte-identically to a single
// in-process flywheel.Sweep, just faster and for many clients at once.
//
// Placement is cache affinity, not correctness: any worker can simulate
// any job (results are deterministic), so stealing and failover never
// change an answer, only which shard's store warms up.
package fabric

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over worker names. Each worker projects
// vnodes points onto the ring so load spreads evenly; a key's owners are
// the first distinct workers clockwise from the key's hash. The mapping is
// deterministic across processes and stable under membership change: adding
// or removing one worker moves only the keys adjacent to its points, so a
// restarted cluster re-warms mostly from its own shard stores.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over the given worker names (order-insensitive;
// the names themselves position the points). vnodes <= 0 defaults to 64.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{nodes: append([]string(nil), nodes...)}
	for i, n := range r.nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hashString(fmt.Sprintf("%s#%d", n, v)), i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Owners returns the first n distinct workers clockwise from key's hash:
// the primary placement followed by its replicas for retry and hedging.
// n is clamped to the worker count.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.nodes) == 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; len(owners) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			owners = append(owners, r.nodes[p.node])
		}
	}
	return owners
}

// Owner returns key's primary placement.
func (r *Ring) Owner(key string) string {
	o := r.Owners(key, 1)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}
