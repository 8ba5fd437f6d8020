package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"testing"

	"c4/internal/accl"
	"c4/internal/sim"
)

// toWire maps a well-formed record onto wireRecord. json.Marshal of its
// result is the oracle AppendRecord must reproduce byte for byte.
func toWire(r Record) wireRecord {
	w := wireRecord{TNs: int64(r.Time), Kind: r.Kind.String(), Node: r.Node, Comm: r.Comm}
	switch r.Kind {
	case KindCommCreate:
		w.Nodes = r.Nodes
	case KindColl:
		ev := r.Coll
		w.Seq, w.Op, w.Algo, w.Bytes = ev.Seq, string(ev.Op), ev.Algo, ev.Bytes
		if ev.Phase == accl.PhaseComplete {
			w.Phase = "complete"
		} else {
			w.Phase = "arrive"
		}
	case KindMsg:
		ev := r.Msg
		w.Seq, w.Bytes = ev.Seq, ev.Bytes
		w.Src, w.Dst = ev.SrcNode, ev.DstNode
		w.Rail, w.Plane, w.Sport, w.QPN = ev.Rail, ev.Plane, ev.Sport, ev.QPN
		w.StartNs, w.EndNs = int64(ev.Start), int64(ev.End)
	case KindWait:
		ev := r.Wait
		w.Seq, w.Waiter, w.On, w.DurNs = ev.Seq, ev.Waiter, ev.On, int64(ev.Dur)
	}
	return w
}

// oracleLine is the reflection encoder's line for r.
func oracleLine(r Record) ([]byte, error) {
	b, err := json.Marshal(toWire(r))
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkAgainstOracle asserts AppendRecord, appending after a prefix,
// produces the oracle's bytes, or fails exactly when the oracle fails
// and then leaves the buffer unextended.
func checkAgainstOracle(t *testing.T, r Record) {
	t.Helper()
	const prefix = "prefix:"
	want, werr := oracleLine(r)
	got, gerr := AppendRecord([]byte(prefix), r)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("record %+v: AppendRecord error %v, oracle error %v", r, gerr, werr)
	}
	if gerr != nil {
		if string(got) != prefix {
			t.Fatalf("failed AppendRecord extended the buffer: %q", got)
		}
		return
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("record %+v:\n got %q\nwant %q", r, got[len(prefix):], want)
	}
}

// streamRoundTripRecords is one record of every kind, with the optional
// fields both set and left zero.
func streamRoundTripRecords() []Record {
	return []Record{
		{Time: 0, Node: -1, Kind: KindCommCreate, Comm: 1, Nodes: []int{0, 2}},
		RecordOfColl(accl.CollEvent{Time: 5, Comm: 1, Seq: 1, Node: 0,
			Op: accl.OpAllReduce, Algo: "ring", Bytes: 1 << 20, Phase: accl.PhaseArrive}),
		RecordOfColl(accl.CollEvent{Time: 9, Comm: 1, Seq: 1, Node: 0,
			Op: accl.OpAllReduce, Phase: accl.PhaseComplete}),
		RecordOfMsg(accl.MsgEvent{Comm: 1, Seq: 1, SrcNode: 0, DstNode: 2,
			Rail: 0, Plane: 1, Sport: 77, QPN: 5, Bytes: 512, Start: 6, End: 8}),
		RecordOfWait(accl.WaitEvent{Time: 7, Comm: 1, Seq: 1, Waiter: 2, On: 0, Dur: 3}),
		{Time: 10, Node: -1, Kind: KindCommClose, Comm: 1},
	}
}

// fuzzRecord builds a well-formed record of kind k%5 from fuzz inputs.
// Msg and wait records map a/b onto their two peer fields.
func fuzzRecord(k uint8, tns int64, node, comm, seq int, op, algo string, complete bool,
	nbytes float64, a, b, rail, plane int, sport uint16, qpn int, start, end int64,
	nodes []byte, nilNodes bool) Record {
	r := Record{Time: sim.Time(tns), Node: node, Comm: comm, Kind: Kind(k % 5)}
	switch r.Kind {
	case KindCommCreate:
		if !nilNodes {
			r.Nodes = make([]int, len(nodes))
			for i, n := range nodes {
				r.Nodes[i] = int(int8(n))
			}
		}
	case KindColl:
		phase := accl.PhaseArrive
		if complete {
			phase = accl.PhaseComplete
		}
		r.Coll = &accl.CollEvent{Time: r.Time, Comm: comm, Seq: seq, Node: node,
			Op: accl.OpType(op), Algo: algo, Bytes: nbytes, Phase: phase}
	case KindMsg:
		r.Msg = &accl.MsgEvent{Comm: comm, Seq: seq, SrcNode: a, DstNode: b,
			Rail: rail, Plane: plane, Sport: sport, QPN: qpn, Bytes: nbytes,
			Start: sim.Time(start), End: sim.Time(end)}
	case KindWait:
		r.Wait = &accl.WaitEvent{Time: r.Time, Comm: comm, Seq: seq,
			Waiter: a, On: b, Dur: sim.Time(end - start)}
	}
	return r
}

func FuzzAppendRecord(f *testing.F) {
	// seed adds a record of every kind around one choice of the
	// interesting inputs: strings, bytes, sport and membership.
	seed := func(op, algo string, nbytes float64, sport uint16, nodes []byte, nilNodes bool) {
		for k := uint8(0); k < 5; k++ {
			f.Add(k, int64(806849759), 3, 1, 7, op, algo, k%2 == 0, nbytes,
				3, 8, 1, 2, sport, 5, int64(806900000), int64(812345678), nodes, nilNodes)
		}
	}
	seed("allreduce", "ring", 650117120, 3, []byte{0, 1, 2}, false)
	seed("<script>&amp;", "a>b", 1, 1, nil, true)
	seed(`quo"te\back`, "tab\there", 1e-6, 65535, []byte{}, false)
	seed("\x00\x01\x1f\x7f", "nl\ncr\r", 1e21, 65535, nil, false)
	seed("héllo ✓ 世界", "\u2028\u2029", 9.999999999999999e-7, 0, []byte{0xff}, false)
	seed("\xff\xfe bad utf8 \xc3", "\xed\xa0\x80", 1e20, 0, nil, true)
	seed("", "", math.Copysign(0, -1), 0, []byte{}, true)
	seed("sub", "normal", 5e-324, 1, []byte{0x80, 0x7f}, false)
	seed("max", "float", math.MaxFloat64, 1, nil, false)
	seed("neg", "exp", -1.5e-7, 1, nil, false)
	seed("nan", "", math.NaN(), 1, nil, false)
	seed("inf", "", math.Inf(-1), 1, nil, false)
	f.Add(uint8(3), int64(-1), -1, -5, -9, "", "", false, -123.25,
		-1, -2, -3, -4, uint16(1), -6, int64(math.MinInt64), int64(math.MaxInt64), []byte(nil), false)

	f.Fuzz(func(t *testing.T, k uint8, tns int64, node, comm, seq int, op, algo string,
		complete bool, nbytes float64, a, b, rail, plane int, sport uint16, qpn int,
		start, end int64, nodes []byte, nilNodes bool) {
		checkAgainstOracle(t, fuzzRecord(k, tns, node, comm, seq, op, algo, complete,
			nbytes, a, b, rail, plane, sport, qpn, start, end, nodes, nilNodes))
	})
}

// sameRecord compares records field by field; a nil and an empty
// membership are the same (omitempty writes neither).
func sameRecord(a, b Record) bool {
	if a.Time != b.Time || a.Node != b.Node || a.Kind != b.Kind || a.Comm != b.Comm ||
		!slices.Equal(a.Nodes, b.Nodes) {
		return false
	}
	switch {
	case (a.Coll == nil) != (b.Coll == nil), (a.Msg == nil) != (b.Msg == nil),
		(a.Wait == nil) != (b.Wait == nil):
		return false
	case a.Coll != nil && *a.Coll != *b.Coll, a.Msg != nil && *a.Msg != *b.Msg,
		a.Wait != nil && *a.Wait != *b.Wait:
		return false
	}
	return true
}

func FuzzReadStream(f *testing.F) {
	var all bytes.Buffer
	for _, r := range streamRoundTripRecords() {
		line, err := EncodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
		all.Write(line)
	}
	f.Add(all.Bytes())
	f.Add([]byte(`{"t_ns":1,"kind":"coll","node":0,"comm":1,"op":"\u003cx\u003e","phase":"weird","bytes":1e-7}`))
	f.Add([]byte(`{"t_ns":2,"kind":"comm-create","node":-1,"comm":1,"nodes":[]}`))
	f.Add([]byte("{\"t_ns\":3,\"kind\":\"msg\",\"node\":0,\"comm\":1,\"bytes\":-0}\n\n"))
	f.Add([]byte(`{"t_ns":1,"kind":"nope"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, r := range recs {
			line, err := EncodeRecord(r)
			if err != nil {
				t.Fatalf("record %d decoded from the stream does not re-encode: %v", i, err)
			}
			again, err := ReadStream(bytes.NewReader(line))
			if err != nil || len(again) != 1 {
				t.Fatalf("re-encoded line %q: %d records, err %v", line, len(again), err)
			}
			if !sameRecord(r, again[0]) {
				t.Fatalf("record %d changed through re-encoding:\n%+v\n%+v", i, r, again[0])
			}
		}
	})
}

func TestAppendRecordRejectsMalformedRecords(t *testing.T) {
	for _, r := range []Record{
		{Kind: KindColl},
		{Kind: KindMsg},
		{Kind: KindWait},
		{Kind: Kind(99)},
		RecordOfMsg(accl.MsgEvent{Bytes: math.NaN()}),
		RecordOfColl(accl.CollEvent{Bytes: math.Inf(1)}),
	} {
		got, err := AppendRecord([]byte("x"), r)
		if err == nil {
			t.Fatalf("record %+v encoded as %q, want an error", r, got)
		}
		if string(got) != "x" {
			t.Fatalf("failed encode extended the buffer: %q", got)
		}
		// The stream writer latches the error instead of panicking.
		sw := NewStreamWriter(io.Discard)
		sw.Observe(r)
		if sw.Err() == nil || sw.Written() != 0 {
			t.Fatalf("StreamWriter accepted %+v", r)
		}
	}
}

func TestStreamWriterObserveAllocationFree(t *testing.T) {
	for _, r := range streamRoundTripRecords() {
		t.Run(r.Kind.String(), func(t *testing.T) {
			sw := NewStreamWriter(io.Discard)
			for i := 0; i < 4; i++ {
				sw.Observe(r) // warm the line buffer
			}
			if allocs := testing.AllocsPerRun(1000, func() { sw.Observe(r) }); allocs != 0 {
				t.Fatalf("Observe(%v) allocates %.1f times per record, want 0", r.Kind, allocs)
			}
			if sw.Err() != nil {
				t.Fatal(sw.Err())
			}
		})
	}
}
