package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"c4/internal/accl"
	"c4/internal/sim"
)

// The JSONL stream format: one record per line, nanosecond-integer
// timestamps for exact round-tripping (replay must be bit-identical to
// the live run). Field reference — documented in README.md:
//
//	t_ns   event time (virtual ns)            all kinds
//	kind   comm-create|comm-close|coll|msg|wait
//	node   collecting node (-1 = control)      all kinds
//	comm   communicator id                     all kinds
//	nodes  membership                          comm-create
//	seq    operation sequence number           coll, msg, wait
//	op     collective op, phase arrive|complete  coll
//	bytes  payload bytes                       coll, msg
//	src/dst, rail/plane/sport/qpn, start_ns/end_ns   msg
//	waiter/on, dur_ns                          wait
//
// Lines are written by AppendRecord, a hand-written encoder that appends
// straight into a caller's buffer: no reflection and, once the buffer has
// grown, no allocation per record. Its output is byte-identical to
// encoding/json marshalling wireRecord (field order, omitempty, float
// formatting and string escaping); the fuzz tests pin that equivalence
// against json.Marshal as the oracle. wireRecord is the decode shape:
// ReadStream unmarshals each line into it with encoding/json.

// wireRecord is the JSONL line shape, as decoded by ReadStream.
type wireRecord struct {
	TNs  int64  `json:"t_ns"`
	Kind string `json:"kind"`
	Node int    `json:"node"`
	Comm int    `json:"comm"`

	Nodes []int `json:"nodes,omitempty"`

	Seq   int     `json:"seq,omitempty"`
	Op    string  `json:"op,omitempty"`
	Phase string  `json:"phase,omitempty"`
	Algo  string  `json:"algo,omitempty"`
	Bytes float64 `json:"bytes,omitempty"`

	Src     int    `json:"src,omitempty"`
	Dst     int    `json:"dst,omitempty"`
	Rail    int    `json:"rail,omitempty"`
	Plane   int    `json:"plane,omitempty"`
	Sport   uint16 `json:"sport,omitempty"`
	QPN     int    `json:"qpn,omitempty"`
	StartNs int64  `json:"start_ns,omitempty"`
	EndNs   int64  `json:"end_ns,omitempty"`

	Waiter int   `json:"waiter,omitempty"`
	On     int   `json:"on,omitempty"`
	DurNs  int64 `json:"dur_ns,omitempty"`
}

// AppendRecord appends r's JSONL line (trailing newline included) to dst
// and returns the extended buffer. The bytes are exactly what
// encoding/json produces for wireRecord. A data record without its
// payload, a record of unknown Kind and a NaN or infinite Bytes are
// errors; dst is then returned unextended.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	switch r.Kind {
	case KindCommCreate, KindCommClose:
	case KindColl:
		if r.Coll == nil {
			return dst, errNoPayload(r.Kind)
		}
	case KindMsg:
		if r.Msg == nil {
			return dst, errNoPayload(r.Kind)
		}
	case KindWait:
		if r.Wait == nil {
			return dst, errNoPayload(r.Kind)
		}
	default:
		return dst, fmt.Errorf("telemetry: cannot encode record kind %d", r.Kind)
	}
	n0 := len(dst)
	dst = append(dst, `{"t_ns":`...)
	dst = strconv.AppendInt(dst, int64(r.Time), 10)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, r.Kind.String()...)
	dst = append(dst, `","node":`...)
	dst = strconv.AppendInt(dst, int64(r.Node), 10)
	dst = append(dst, `,"comm":`...)
	dst = strconv.AppendInt(dst, int64(r.Comm), 10)

	var err error
	switch r.Kind {
	case KindCommCreate:
		if len(r.Nodes) > 0 {
			dst = append(dst, `,"nodes":[`...)
			for i, n := range r.Nodes {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(n), 10)
			}
			dst = append(dst, ']')
		}
	case KindColl:
		ev := r.Coll
		dst = appendIntField(dst, `,"seq":`, int64(ev.Seq))
		dst = appendStringField(dst, `,"op":`, string(ev.Op))
		if ev.Phase == accl.PhaseComplete {
			dst = append(dst, `,"phase":"complete"`...)
		} else {
			dst = append(dst, `,"phase":"arrive"`...)
		}
		dst = appendStringField(dst, `,"algo":`, ev.Algo)
		dst, err = appendFloatField(dst, `,"bytes":`, ev.Bytes)
	case KindMsg:
		ev := r.Msg
		dst = appendIntField(dst, `,"seq":`, int64(ev.Seq))
		dst, err = appendFloatField(dst, `,"bytes":`, ev.Bytes)
		dst = appendIntField(dst, `,"src":`, int64(ev.SrcNode))
		dst = appendIntField(dst, `,"dst":`, int64(ev.DstNode))
		dst = appendIntField(dst, `,"rail":`, int64(ev.Rail))
		dst = appendIntField(dst, `,"plane":`, int64(ev.Plane))
		dst = appendIntField(dst, `,"sport":`, int64(ev.Sport))
		dst = appendIntField(dst, `,"qpn":`, int64(ev.QPN))
		dst = appendIntField(dst, `,"start_ns":`, int64(ev.Start))
		dst = appendIntField(dst, `,"end_ns":`, int64(ev.End))
	case KindWait:
		ev := r.Wait
		dst = appendIntField(dst, `,"seq":`, int64(ev.Seq))
		dst = appendIntField(dst, `,"waiter":`, int64(ev.Waiter))
		dst = appendIntField(dst, `,"on":`, int64(ev.On))
		dst = appendIntField(dst, `,"dur_ns":`, int64(ev.Dur))
	}
	if err != nil {
		return dst[:n0], err
	}
	return append(dst, '}', '\n'), nil
}

func errNoPayload(k Kind) error {
	return fmt.Errorf("telemetry: %v record without its payload", k)
}

// appendIntField appends `key` and v, omitting a zero v (omitempty).
func appendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, key...)
	return strconv.AppendInt(dst, v, 10)
}

// appendStringField appends `key` and s as a JSON string, omitting an
// empty s (omitempty).
func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	dst = append(dst, key...)
	return appendJSONString(dst, s)
}

// appendJSONString quotes s as encoding/json does. Strings made only of
// printable ASCII without quote, backslash or the HTML-sensitive <, >, &
// are copied verbatim; anything else (control bytes, non-ASCII, invalid
// UTF-8) is rare in the stream and goes through json.Marshal, so the
// escaping rules exist in exactly one place.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a Go string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloatField appends `key` and f formatted as encoding/json formats
// a float64, omitting a zero f (omitempty; -0 included). NaN and ±Inf
// have no JSON form and are an error.
func appendFloatField(dst []byte, key string, f float64) ([]byte, error) {
	if f == 0 {
		return dst, nil
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("telemetry: unsupported float value %v", f)
	}
	dst = append(dst, key...)
	format := byte('f')
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Shorten a two-digit negative exponent as encoding/json does:
		// 1e-07 becomes 1e-7.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

func fromWire(w wireRecord) (Record, error) {
	rec := Record{Time: sim.Time(w.TNs), Node: w.Node, Comm: w.Comm}
	switch w.Kind {
	case "comm-create":
		rec.Kind = KindCommCreate
		rec.Nodes = w.Nodes
	case "comm-close":
		rec.Kind = KindCommClose
	case "coll":
		rec.Kind = KindColl
		phase := accl.PhaseArrive
		if w.Phase == "complete" {
			phase = accl.PhaseComplete
		}
		rec.Coll = &accl.CollEvent{
			Time: sim.Time(w.TNs), Comm: w.Comm, Seq: w.Seq, Node: w.Node,
			Op: accl.OpType(w.Op), Algo: w.Algo, Bytes: w.Bytes, Phase: phase,
		}
	case "msg":
		rec.Kind = KindMsg
		rec.Msg = &accl.MsgEvent{
			Comm: w.Comm, Seq: w.Seq, SrcNode: w.Src, DstNode: w.Dst,
			Rail: w.Rail, Plane: w.Plane, Sport: w.Sport, QPN: w.QPN,
			Bytes: w.Bytes, Start: sim.Time(w.StartNs), End: sim.Time(w.EndNs),
		}
	case "wait":
		rec.Kind = KindWait
		rec.Wait = &accl.WaitEvent{
			Time: sim.Time(w.TNs), Comm: w.Comm, Seq: w.Seq,
			Waiter: w.Waiter, On: w.On, Dur: sim.Time(w.DurNs),
		}
	default:
		return Record{}, fmt.Errorf("telemetry: unknown record kind %q", w.Kind)
	}
	return rec, nil
}

// EncodeRecord serializes one record as a JSONL line (trailing newline
// included), byte-identical to the lines a StreamWriter emits. The
// serving plane uses it to frame individual records into SSE events
// without re-implementing the wire format; the returned slice is fresh,
// so callers may retain it.
func EncodeRecord(r Record) ([]byte, error) {
	return AppendRecord(nil, r)
}

// StreamWriter serializes the record stream as JSONL. It implements
// Sink, so it plugs into a Pipeline beside the online detector. Each
// record is encoded into one reused line buffer, so the steady-state
// per-record path allocates nothing.
type StreamWriter struct {
	w    *bufio.Writer
	line []byte
	n    uint64
	err  error
}

// NewStreamWriter wraps a writer.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: bufio.NewWriter(w)}
}

// Observe implements Sink. The first encode or write error sticks —
// further records are dropped — and is reported by both Err and Flush,
// so a streaming caller can notice a broken writer mid-run and terminate
// the stream instead of silently losing the rest of it.
func (s *StreamWriter) Observe(r Record) {
	if s.err != nil {
		return
	}
	var err error
	s.line, err = AppendRecord(s.line[:0], r)
	if err == nil {
		_, err = s.w.Write(s.line)
	}
	if err != nil {
		s.err = err
		return
	}
	s.n++
}

// Written reports how many records were serialized.
func (s *StreamWriter) Written() uint64 { return s.n }

// Err reports the first encode or write error encountered, without
// flushing. It is the cheap liveness probe for long-lived streams: nil
// means every Observe so far was serialized (possibly still buffered).
func (s *StreamWriter) Err() error { return s.err }

// Flush drains the buffer and returns the first error encountered.
func (s *StreamWriter) Flush() error {
	if s.err != nil {
		return s.err
	}
	if err := s.w.Flush(); err != nil {
		s.err = err
	}
	return s.err
}

// ReadStream parses a JSONL telemetry stream. Blank lines are skipped; a
// malformed line fails with its line number.
func ReadStream(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var w wireRecord
		if err := json.Unmarshal(raw, &w); err != nil {
			return nil, fmt.Errorf("telemetry: stream line %d: %w", line, err)
		}
		rec, err := fromWire(w)
		if err != nil {
			return nil, fmt.Errorf("telemetry: stream line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading stream: %w", err)
	}
	return out, nil
}

// Replay drives a recorded stream through a fresh OnlineDetector,
// advancing a private engine to each record's event time so hang alarms
// fire exactly as they would have live — offline triage is bit-identical
// to the live run. tail extends the clock past the last record, letting
// timeout verdicts about the stream's silent end ripen (0 = stop at the
// last record: an ended capture is not a hang).
func Replay(records []Record, cfg DetectorConfig, tail sim.Time) *OnlineDetector {
	eng := sim.NewEngine()
	det := NewOnlineDetector(eng, cfg)
	for _, rec := range records {
		if rec.Time > eng.Now() {
			eng.RunUntil(rec.Time)
		}
		det.Observe(rec)
	}
	if tail > 0 {
		eng.RunFor(tail)
	}
	det.Stop()
	return det
}
