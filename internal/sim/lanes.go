// Named lanes and their merge: the substrate behind every per-shard
// observer (the ping ledger, the packet tracer, the flight recorder,
// a scale world's probe slots).
//
// A lane is one shard's append-only record buffer (one "world" lane on
// the single-loop engine). Only its own shard's events write it, so
// recording needs no locks, and each lane is in nondecreasing virtual
// time because one scheduler's clock never runs backwards. Reads merge
// the lanes by (virtual time, lane), each lane keeping its own order
// within a tie: the order a stable sort of the concatenated lanes by
// (time, lane) would give, in one pass without sorting.

package sim

// Lanes is a registry of named lanes, kept in creation order — the
// lane order MergeLanes breaks ties by.
type Lanes[L any] struct {
	names []string
	lanes []L
}

// Lane returns the named lane, creating it with mk on first use.
func (s *Lanes[L]) Lane(name string, mk func() L) L {
	for i, n := range s.names {
		if n == name {
			return s.lanes[i]
		}
	}
	l := mk()
	s.names = append(s.names, name)
	s.lanes = append(s.lanes, l)
	return l
}

// Names lists the lane names in creation order.
func (s *Lanes[L]) Names() []string { return s.names }

// All returns the lanes in creation order.
func (s *Lanes[L]) All() []L { return s.lanes }

// MergeLanes visits every item of every lane in (virtual time, lane
// index) order, same-instant items of one lane in their lane order.
// items reads a lane's records and at an item's virtual time. Each
// lane must already be in time order; MergeLanes panics if one is not.
func MergeLanes[L, T any](lanes []L, items func(L) []T, at func(*T) Time, visit func(lane int, item *T)) {
	// h is a binary min-heap over the lanes with items left, keyed by
	// (time of the lane's next item, lane index).
	type cursor struct {
		t     Time
		lane  int
		next  int
		items []T
	}
	h := make([]cursor, 0, len(lanes))
	for i, l := range lanes {
		if its := items(l); len(its) > 0 {
			h = append(h, cursor{t: at(&its[0]), lane: i, items: its})
		}
	}
	less := func(a, b *cursor) bool { return a.t < b.t || a.t == b.t && a.lane < b.lane }
	down := func(i int) {
		for {
			least, l, r := i, 2*i+1, 2*i+2
			if l < len(h) && less(&h[l], &h[least]) {
				least = l
			}
			if r < len(h) && less(&h[r], &h[least]) {
				least = r
			}
			if least == i {
				return
			}
			h[i], h[least] = h[least], h[i]
			i = least
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		c := &h[0]
		visit(c.lane, &c.items[c.next])
		c.next++
		if c.next == len(c.items) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			t := at(&c.items[c.next])
			if t < c.t {
				panic("sim: MergeLanes lane out of time order")
			}
			c.t = t
		}
		down(0)
	}
}
