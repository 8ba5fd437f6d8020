package telemetry

import "sort"

// Collector is one node's bounded telemetry buffer: a ring of at most
// capacity records that absorbs records between drains. When the
// producer outruns the drain cadence the oldest records are overwritten
// and counted as drops — the backpressure-free semantics of a real
// per-host telemetry daemon, where monitoring must never stall the
// training job it watches.
type Collector struct {
	Node int

	buf     []Record // ring storage, grown on demand up to capacity
	limit   int      // bound on buffered records (the capacity)
	head    int      // index of the oldest buffered record
	n       int      // buffered count
	pushed  uint64
	dropped uint64
}

// minCollectorRing is the ring's first allocation: enough for the few
// records a streaming drain cadence buffers per node and instant.
const minCollectorRing = 16

// NewCollector creates a collector buffering at most capacity records
// (minimum 1). Capacity is a bound, not an allocation: storage starts
// empty and doubles on demand, so a fleet of mostly idle collectors
// stays small.
func NewCollector(node, capacity int) *Collector {
	if capacity < 1 {
		capacity = 1
	}
	return &Collector{Node: node, limit: capacity}
}

// Push buffers one record, overwriting (and counting as dropped) the
// oldest once capacity records are buffered.
func (c *Collector) Push(r Record) {
	c.pushed++
	if c.n == len(c.buf) {
		if len(c.buf) == c.limit {
			// Overwrite the oldest.
			c.buf[c.head] = r
			c.head = (c.head + 1) % len(c.buf)
			c.dropped++
			return
		}
		c.grow()
	}
	c.buf[(c.head+c.n)%len(c.buf)] = r
	c.n++
}

// grow doubles the full ring (clamped to capacity), linearising the
// buffered records to start at index 0.
func (c *Collector) grow() {
	size := min(max(2*len(c.buf), minCollectorRing), c.limit)
	buf := make([]Record, size)
	k := copy(buf, c.buf[c.head:])
	copy(buf[k:], c.buf[:c.head])
	c.buf, c.head = buf, 0
}

// Len reports the buffered record count.
func (c *Collector) Len() int { return c.n }

// Pushed reports how many records were ever offered.
func (c *Collector) Pushed() uint64 { return c.pushed }

// Dropped reports how many records were lost to ring overwrites.
func (c *Collector) Dropped() uint64 { return c.dropped }

// Drain appends the buffered records to dst in push (= event-time) order
// and empties the ring. Drained slots are cleared so the ring keeps no
// payload reachable; the read position advances past them.
func (c *Collector) Drain(dst []Record) []Record {
	for ; c.n > 0; c.n-- {
		dst = append(dst, c.buf[c.head])
		c.buf[c.head] = Record{}
		c.head = (c.head + 1) % len(c.buf)
	}
	return dst
}

// MergeByTime orders a batch of records drained from several collectors
// into one deterministic event-time stream: ascending Time, ties broken
// by collecting Node, then by each collector's push order. Every
// collector drains in push order and the simulation clock is monotonic,
// so the stable sort reduces to an interleave — records from one node
// never reorder relative to each other.
func MergeByTime(records []Record) []Record {
	sort.SliceStable(records, func(i, j int) bool {
		if records[i].Time != records[j].Time {
			return records[i].Time < records[j].Time
		}
		return records[i].Node < records[j].Node
	})
	return records
}
