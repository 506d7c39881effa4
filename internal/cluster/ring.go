// Package cluster turns independent compaqt-serve processes into one
// digest-sharded serving tier. Placement is a consistent-hash ring:
// every member (a peer base URL) owns the arc of the sha256 key space
// behind its virtual nodes, so the content digests that already key
// the compile cache and the persistent store double as the partition
// key. A node that does not hold an image forwards the GET to the
// key's owner over the resilient client (retries) and fills
// its own store from the answer; a compiled image is published to the
// owner and its ring successors (replication factor R), so every shard
// survives a node loss.
//
// Membership is gossiped: nodes -join a seed and push-pull a versioned
// SWIM-style member table (alive/suspect with incarnation numbers),
// and the ring grows as never-before-seen members arrive. Liveness is
// orthogonal to placement: as in SWIM, the gossip exchange is the
// active check, so a peer that fails one (or a forward's transport) is
// marked suspect, and a suspect peer is skipped by every ring lookup —
// without rebuilding the ring — until an exchange reaches it again or
// it refutes the suspicion. The tier
// self-heals by anti-entropy repair: every name binding carries a
// version, and each node pulls, from whichever live peer lists it, the
// newest binding of every name it owns or holds a copy of — what a
// down peer missed and what a rebind superseded alike.
package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"

	"compaqt/internal/cache"
)

// Ring is an immutable consistent-hash ring over a fixed member list.
// Each member is placed at vnodes seeded pseudo-random points on the
// 64-bit circle; a key belongs to the first point at or clockwise of
// its own position. Lookups take an optional liveness predicate so a
// down member's arcs fall through to its successors without rebuilding
// the ring (and with minimal key movement when it heals).
type Ring struct {
	members []string
	vnodes  int
	points  []point // sorted by (hash, member)
}

// point is one virtual node: a position on the circle and the index of
// the member it belongs to.
type point struct {
	hash   uint64
	member int32
}

// DefaultVNodes is the virtual-node count per member of every
// Cluster's ring (which always uses seed 0, so members agree on
// placement with nothing to configure): enough that three members
// balance within a few percent, cheap enough that placement stays
// microseconds. NewRing also selects it for vnodes <= 0.
const DefaultVNodes = 64

// NewRing builds a ring over members (deduplicated, order-independent:
// the member list is sorted so every node derives the identical ring
// from the same -join seeds regardless of their order). The seed
// perturbs every placement point, so distinct clusters sharing a
// member URL do not correlate their arcs.
func NewRing(members []string, vnodes int, seed uint64) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member URL")
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		vnodes:  vnodes,
		points:  make([]point, 0, len(uniq)*vnodes),
	}
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: placement(seed, m, v), member: int32(mi)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// placement hashes one virtual node's position from (seed, member,
// vnode index) through the same pooled sha256 state the content
// digests use.
func placement(seed uint64, member string, v int) uint64 {
	d := cache.NewHasher()
	d.WriteUint64(seed)
	d.WriteString(member)
	d.WriteUint64(uint64(v))
	k := d.Key()
	d.Release()
	return binary.BigEndian.Uint64(k[:8])
}

// KeyFor derives the routing key of an image name: its sha256. Most
// served images are already named by content (pulse keys, digest
// names), so this is a digest of a digest — still uniform — while
// arbitrary human names hash just as evenly. Both the GET forwarding
// path and the compile publish path route through this one function,
// which is what keeps them agreeing on an owner.
func KeyFor(name string) cache.Key {
	d := cache.NewHasher()
	d.WriteString(name)
	k := d.Key()
	d.Release()
	return k
}

// Members returns the ring's member list (sorted, deduplicated).
func (r *Ring) Members() []string { return r.members }

// VNodes returns the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Successors returns up to n distinct members responsible for key, in
// ring order starting at its owner, skipping members alive reports
// false for (a nil alive keeps everyone). Fewer than n members — or
// none — come back when the ring (or its live subset) is smaller.
func (r *Ring) Successors(key cache.Key, n int, alive func(string) bool) []string {
	if n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	pos := binary.BigEndian.Uint64(key[:8])
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= pos })
	out := make([]string, 0, n)
	taken := make(map[int32]bool, n)
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if taken[p.member] {
			continue
		}
		m := r.members[p.member]
		if alive != nil && !alive(m) {
			// Mark it taken anyway: a down member's later vnodes must not
			// be reconsidered, its whole identity is skipped.
			taken[p.member] = true
			continue
		}
		taken[p.member] = true
		out = append(out, m)
		if len(out) == n {
			break
		}
	}
	return out
}

// Owner returns the live member owning key, when one exists.
func (r *Ring) Owner(key cache.Key, alive func(string) bool) (string, bool) {
	s := r.Successors(key, 1, alive)
	if len(s) == 0 {
		return "", false
	}
	return s[0], true
}

// Shares returns each member's fraction of the key space — the ring
// view /v1/cluster reports, and what the balance property tests pin.
func (r *Ring) Shares() map[string]float64 {
	shares := make(map[string]float64, len(r.members))
	if len(r.members) == 1 {
		shares[r.members[0]] = 1
		return shares
	}
	const whole = float64(1<<63) * 2 // 2^64 without overflow
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		span := p.hash - prev // wraps correctly in uint64 arithmetic
		shares[r.members[p.member]] += float64(span) / whole
		prev = p.hash
	}
	return shares
}
