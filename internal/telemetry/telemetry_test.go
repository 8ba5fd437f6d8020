package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"c4/internal/accl"
	"c4/internal/sim"
)

func TestCollectorRingDropsOldest(t *testing.T) {
	c := NewCollector(3, 4)
	for i := 0; i < 6; i++ {
		c.Push(Record{Time: sim.Time(i), Node: 3, Kind: KindMsg})
	}
	if c.Len() != 4 || c.Pushed() != 6 || c.Dropped() != 2 {
		t.Fatalf("len=%d pushed=%d dropped=%d, want 4/6/2", c.Len(), c.Pushed(), c.Dropped())
	}
	got := c.Drain(nil)
	if len(got) != 4 {
		t.Fatalf("drained %d records", len(got))
	}
	for i, rec := range got {
		if rec.Time != sim.Time(i+2) {
			t.Fatalf("record %d has time %v, want %v (oldest two dropped)", i, rec.Time, sim.Time(i+2))
		}
	}
	if c.Len() != 0 {
		t.Fatal("drain did not empty the ring")
	}
	// Reuse after drain keeps working.
	c.Push(Record{Time: 99})
	if got := c.Drain(nil); len(got) != 1 || got[0].Time != 99 {
		t.Fatalf("post-drain push lost: %v", got)
	}

	// A ring that grows on demand behaves exactly like a preallocated
	// one: pushes interleaved with drains, growth steps landing while the
	// buffered records wrap the end of the storage, and overwrites once
	// capacity is reached. Capacity 37 makes the last growth step clamp.
	const capacity = 37
	grown, fixed := NewCollector(0, capacity), newFixedRing(capacity)
	next := sim.Time(0)
	var wrapped bool
	for _, pushes := range []int{3, 5, 14, 1, 20, 9, 30, 0, 2, 45, 7, 80, 36, 37, 38} {
		for i := 0; i < pushes; i++ {
			next++
			r := Record{Time: next, Kind: KindMsg, Msg: &accl.MsgEvent{Seq: int(next)}}
			if grown.n == len(grown.buf) && len(grown.buf) < capacity && grown.head > 0 {
				wrapped = true // this push grows the ring across a wrap
			}
			grown.Push(r)
			fixed.push(r)
		}
		if grown.Len() != fixed.n || grown.Pushed() != fixed.pushed || grown.Dropped() != fixed.dropped {
			t.Fatalf("after %d pushes: len/pushed/dropped = %d/%d/%d, preallocated ring %d/%d/%d",
				pushes, grown.Len(), grown.Pushed(), grown.Dropped(), fixed.n, fixed.pushed, fixed.dropped)
		}
		got, want := grown.Drain(nil), fixed.drain()
		if len(got) != len(want) {
			t.Fatalf("drained %d records, preallocated ring %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Time != want[i].Time || got[i].Msg != want[i].Msg {
				t.Fatalf("drain position %d: time %v, preallocated ring %v", i, got[i].Time, want[i].Time)
			}
		}
		if len(grown.buf) > capacity {
			t.Fatalf("ring storage %d exceeds capacity %d", len(grown.buf), capacity)
		}
	}
	if !wrapped {
		t.Fatal("no growth step happened across a wrap")
	}
	if len(grown.buf) != capacity {
		t.Fatalf("ring storage %d, want it grown to capacity %d", len(grown.buf), capacity)
	}
}

// fixedRing is the preallocated ring the growing Collector must match.
type fixedRing struct {
	buf             []Record
	head, n         int
	pushed, dropped uint64
}

func newFixedRing(capacity int) *fixedRing { return &fixedRing{buf: make([]Record, capacity)} }

func (f *fixedRing) push(r Record) {
	f.pushed++
	if f.n == len(f.buf) {
		f.buf[f.head] = r
		f.head = (f.head + 1) % len(f.buf)
		f.dropped++
		return
	}
	f.buf[(f.head+f.n)%len(f.buf)] = r
	f.n++
}

func (f *fixedRing) drain() []Record {
	var out []Record
	for i := 0; i < f.n; i++ {
		out = append(out, f.buf[(f.head+i)%len(f.buf)])
	}
	f.head, f.n = 0, 0
	return out
}

// holdsPayload reports whether any slot of recs' backing array, up to its
// capacity, still references a payload.
func holdsPayload(recs []Record) bool {
	for _, r := range recs[:cap(recs)] {
		if r.Nodes != nil || r.Coll != nil || r.Msg != nil || r.Wait != nil {
			return true
		}
	}
	return false
}

func TestDrainedBuffersHoldNoPayload(t *testing.T) {
	c := NewCollector(1, 8)
	for i := 0; i < 11; i++ { // wrap and overwrite
		c.Push(RecordOfMsg(accl.MsgEvent{Seq: i, SrcNode: 1, End: sim.Time(i)}))
	}
	if got := c.Drain(nil); len(got) != 8 || got[0].Msg.Seq != 3 {
		t.Fatalf("drain = %d records starting at seq %d", len(got), got[0].Msg.Seq)
	}
	if holdsPayload(c.buf) {
		t.Fatal("drained collector ring still references payloads")
	}

	eng := sim.NewEngine()
	var seen int
	p := NewPipeline(eng, PipelineConfig{}, SinkFunc(func(Record) { seen++ }))
	p.OnCommCreate(accl.CommInfo{Comm: 1, Nodes: []int{0, 1}})
	eng.After(sim.Millisecond, func() {
		p.OnCollective(accl.CollEvent{Time: eng.Now(), Comm: 1, Seq: 1, Node: 0, Op: accl.OpAllReduce})
		p.OnWait(accl.WaitEvent{Time: eng.Now(), Comm: 1, Seq: 1, Waiter: 1, On: 0, Dur: 1})
		p.OnMessage(accl.MsgEvent{Comm: 1, Seq: 1, SrcNode: 1, DstNode: 0, Bytes: 1, End: eng.Now()})
	})
	eng.Run()
	p.Stop()
	if seen != 4 {
		t.Fatalf("sink saw %d records, want 4", seen)
	}
	if cap(p.scratch) == 0 || holdsPayload(p.scratch) {
		t.Fatalf("pipeline drain batch (cap %d) still references payloads", cap(p.scratch))
	}
	for _, n := range p.nodes {
		if holdsPayload(p.collectors[n].buf) {
			t.Fatalf("collector %d still references payloads after the drain", n)
		}
	}
}

func TestMergeByTimeDeterministicOrder(t *testing.T) {
	mk := func(tm sim.Time, node, seq int) Record {
		return Record{Time: tm, Node: node, Kind: KindColl,
			Coll: &accl.CollEvent{Seq: seq}}
	}
	// Two nodes drained in node order, interleaved times with a tie at 5.
	batch := []Record{
		mk(1, 0, 1), mk(5, 0, 2), mk(9, 0, 3), // node 0
		mk(2, 1, 1), mk(5, 1, 2), // node 1
	}
	merged := MergeByTime(append([]Record(nil), batch...))
	var order []int
	for _, r := range merged {
		order = append(order, r.Node)
	}
	want := []int{0, 1, 0, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("merge order = %v, want %v", order, want)
		}
	}
	// Ties break by node; within a node, push order is preserved.
	if merged[1].Time != 2 || merged[2].Time != 5 || merged[2].Node != 0 {
		t.Fatalf("tie-break wrong: %v", merged)
	}
}

func TestEWMAWarmupAndSmoothing(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatal("fresh EWMA not zero")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first observation must seed directly, got %v", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("EWMA = %v, want 15", e.Value())
	}
	if e.Count() != 2 {
		t.Fatalf("count = %d", e.Count())
	}
}

func TestDecayAccumFades(t *testing.T) {
	d := DecayAccum{Tau: sim.Second}
	d.Add(0, 1.0)
	if got := d.ValueAt(0); got != 1.0 {
		t.Fatalf("value at add time = %v", got)
	}
	if got := d.ValueAt(sim.Second); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Fatalf("one tau later = %v, want e^-1", got)
	}
	// Adding later decays the old mass first.
	d.Add(sim.Second, 1.0)
	want := 1 + math.Exp(-1)
	if got := d.ValueAt(sim.Second); math.Abs(got-want) > 1e-12 {
		t.Fatalf("accumulated = %v, want %v", got, want)
	}
	// Queries never mutate: asking about the past returns current mass.
	if got := d.ValueAt(0); got != d.ValueAt(sim.Second) {
		t.Fatalf("past query mutated or diverged: %v", got)
	}
}

func TestQuantileSketchMedian(t *testing.T) {
	q := NewQuantileSketch(0.1, 1000, 256)
	if q.Quantile(0.5) != 0 {
		t.Fatal("empty sketch must report 0")
	}
	for i := 0; i < 1000; i++ {
		q.Observe(100) // tight cluster
	}
	med := q.Quantile(0.5)
	if med < 90 || med > 110 {
		t.Fatalf("median of constant-100 stream = %v", med)
	}
	// A minority of outliers must not drag the median.
	for i := 0; i < 100; i++ {
		q.Observe(1)
	}
	med = q.Quantile(0.5)
	if med < 90 || med > 110 {
		t.Fatalf("median with 9%% outliers = %v", med)
	}
	if q.Count() != 1100 {
		t.Fatalf("count = %d", q.Count())
	}
	// Extremes clamp to the range.
	q.Observe(0)   // below lo -> first bin
	q.Observe(1e9) // above hi -> last bin
	if got := q.Quantile(0); got <= 0 {
		t.Fatalf("q0 = %v", got)
	}
	if got := q.Quantile(1); got > 1000*1.1 {
		t.Fatalf("q1 = %v beyond range", got)
	}
}

func TestDelayMatrixIncrementalUpdates(t *testing.T) {
	m := NewDelayMatrix(0.5)
	// 4-node all-to-all at 100, with pair (1,2) at 25 (4x slow).
	for round := 0; round < 10; round++ {
		for s := 0; s < 4; s++ {
			for d := 0; d < 4; d++ {
				if s == d {
					continue
				}
				bw := 100.0
				if s == 1 && d == 2 {
					bw = 25
				}
				m.Observe(s, d, bw)
			}
		}
	}
	if v, n := m.Pair(1, 2); n != 10 || math.Abs(v-25) > 1e-9 {
		t.Fatalf("pair(1,2) = %v/%d", v, n)
	}
	med := m.Median()
	if med < 80 || med > 120 {
		t.Fatalf("median = %v, want ≈100", med)
	}
	if v, _, dsts := m.Row(1); dsts != 3 || v >= 100 || v <= 25 {
		t.Fatalf("row(1) = %v with %d dsts", v, dsts)
	}
	if _, _, srcs := m.Col(2); srcs != 3 {
		t.Fatalf("col(2) sources = %d", srcs)
	}
	if m.Updates() != 120 {
		t.Fatalf("updates = %d, want 120 (one per record)", m.Updates())
	}
	if v, n := m.Pair(9, 9); v != 0 || n != 0 {
		t.Fatal("unknown pair not zero")
	}
	if v, n, d := m.Row(9); v != 0 || n != 0 || d != 0 {
		t.Fatal("unknown row not zero")
	}
	if v, n, s := m.Col(9); v != 0 || n != 0 || s != 0 {
		t.Fatal("unknown col not zero")
	}
}

func TestStreamRoundTrip(t *testing.T) {
	records := streamRoundTripRecords()
	var buf bytes.Buffer
	w := NewStreamWriter(&buf)
	for _, r := range records {
		w.Observe(r)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Written() != uint64(len(records)) {
		t.Fatalf("written = %d", w.Written())
	}
	got, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("round-trip count %d != %d", len(got), len(records))
	}
	for i := range records {
		a, b := records[i], got[i]
		if a.Time != b.Time || a.Kind != b.Kind || a.Node != b.Node || a.Comm != b.Comm {
			t.Fatalf("record %d header diverged: %+v vs %+v", i, a, b)
		}
		switch a.Kind {
		case KindMsg:
			if *a.Msg != *b.Msg {
				t.Fatalf("msg diverged: %+v vs %+v", *a.Msg, *b.Msg)
			}
		case KindColl:
			if *a.Coll != *b.Coll {
				t.Fatalf("coll diverged: %+v vs %+v", *a.Coll, *b.Coll)
			}
		case KindWait:
			if *a.Wait != *b.Wait {
				t.Fatalf("wait diverged: %+v vs %+v", *a.Wait, *b.Wait)
			}
		}
	}
	if !strings.Contains(records[3].String(), "msg") {
		t.Fatal("record rendering missing kind")
	}
}

func TestReadStreamRejectsGarbage(t *testing.T) {
	if _, err := ReadStream(strings.NewReader("{\"t_ns\":1,\"kind\":\"nope\"}\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ReadStream(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	if recs, err := ReadStream(strings.NewReader("\n\n")); err != nil || len(recs) != 0 {
		t.Fatalf("blank lines: %v, %v", recs, err)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindCommCreate: "comm-create", KindCommClose: "comm-close",
		KindColl: "coll", KindMsg: "msg", KindWait: "wait", Kind(99): "unknown",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

// failAfterWriter fails every write once n bytes have been accepted — the
// disk-full / broken-pipe model for the stream-error regression tests.
type failAfterWriter struct {
	n       int
	written int
	err     error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		w.err = errWriterBroken
		return 0, w.err
	}
	w.written += len(p)
	return len(p), nil
}

var errWriterBroken = fmt.Errorf("telemetry test: writer broken")

func TestStreamWriterSurfacesWriteErrors(t *testing.T) {
	// Regression: Observe used to swallow encoder errors, so a broken
	// writer silently dropped every subsequent record. The first failure
	// must stick and surface through both Err and Flush.
	sw := NewStreamWriter(&failAfterWriter{n: 8 << 10})
	rec := Record{Time: 5, Node: 1, Comm: 2, Kind: KindMsg,
		Msg: &accl.MsgEvent{Comm: 2, Seq: 9, SrcNode: 1, DstNode: 3, Bytes: 1 << 20}}
	var broken uint64
	for i := 0; i < 1000; i++ {
		sw.Observe(rec)
		if sw.Err() != nil {
			broken = sw.Written()
			break
		}
	}
	if sw.Err() == nil {
		t.Fatal("writer broke after 8KiB but Err() stayed nil for 1000 records")
	}
	if got := sw.Flush(); got != sw.Err() {
		t.Fatalf("Flush() = %v, want the sticky Err() %v", got, sw.Err())
	}
	// Further records are dropped, not counted as serialized.
	sw.Observe(rec)
	if sw.Written() != broken {
		t.Fatalf("Written() advanced after the error: %d -> %d", broken, sw.Written())
	}
}

func TestStreamWriterFlushSurfacesBufferedError(t *testing.T) {
	// A failure smaller than the bufio buffer only shows up when the
	// buffer drains: Flush must latch it into Err.
	sw := NewStreamWriter(&failAfterWriter{n: 0})
	sw.Observe(Record{Time: 1, Node: 0, Kind: KindCommClose, Comm: 1})
	if sw.Err() != nil {
		t.Fatal("error before any flush — buffered write should succeed")
	}
	if sw.Flush() == nil {
		t.Fatal("Flush() = nil on a writer that accepts nothing")
	}
	if sw.Err() == nil {
		t.Fatal("Flush error did not stick in Err()")
	}
}

func TestEncodeRecordMatchesStreamWriter(t *testing.T) {
	rec := Record{Time: 7, Node: 2, Comm: 3, Kind: KindWait,
		Wait: &accl.WaitEvent{Time: 7, Comm: 3, Seq: 4, Waiter: 2, On: 5, Dur: 11}}
	line, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.Observe(rec)
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, buf.Bytes()) {
		t.Fatalf("EncodeRecord %q != StreamWriter line %q", line, buf.Bytes())
	}
	// And the line round-trips through the stream reader.
	recs, err := ReadStream(bytes.NewReader(line))
	if err != nil || len(recs) != 1 || recs[0].Wait.Dur != 11 {
		t.Fatalf("round trip: recs=%v err=%v", recs, err)
	}
}
