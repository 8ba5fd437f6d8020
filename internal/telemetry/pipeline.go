package telemetry

import (
	"sort"

	"c4/internal/accl"
	"c4/internal/sim"
)

// PipelineConfig tunes the collection side of the streaming pipeline.
type PipelineConfig struct {
	// BufCap bounds each node collector's ring: records drop only once
	// BufCap are buffered. It is a bound, not a preallocation — ring
	// storage grows on demand. Default 4096.
	BufCap int
	// DrainInterval is the collector drain cadence. Zero means streaming:
	// collectors drain at the end of the simulation instant that filled
	// them, so the detector sees a record at its event time. A positive
	// cadence batches records (cheaper, higher time-to-detect, and with
	// small rings a drop risk) — the knob the online/cadence-sweep
	// scenario sweeps.
	DrainInterval sim.Time
}

// Sink receives the merged event-time-ordered record stream. Sinks are
// pluggable: the online detector, the JSONL StreamWriter, the serving
// plane's SSE broadcast hub and test recorders all implement it and can
// be attached side by side on one Pipeline. A sink that can fail mid-
// stream (a writer) should additionally expose Err() so callers can
// terminate a broken stream instead of silently dropping records.
type Sink interface {
	Observe(Record)
}

// Consumer is the historical name for Sink.
type Consumer = Sink

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Record)

// Observe implements Sink.
func (f SinkFunc) Observe(r Record) { f(r) }

// ConsumerFunc is the historical name for SinkFunc.
type ConsumerFunc = SinkFunc

// Pipeline is the streaming telemetry collection plane. It implements
// accl.StatsSink: data-plane records (collectives, messages, waits) land
// in the producing node's bounded ring collector and reach the consumers
// on the drain cadence, merged across nodes in deterministic event-time
// order; control-plane records (communicator create/close) bypass the
// rings so consumers always know memberships before data arrives.
type Pipeline struct {
	cfg  PipelineConfig
	eng  *sim.Engine
	cons []Consumer

	collectors map[int]*Collector
	nodes      []int // sorted keys of collectors

	pending bool
	ticker  *sim.Event
	stopped bool

	drains  uint64
	records uint64
	scratch []Record
}

// NewPipeline creates a pipeline feeding the given consumers (typically
// an OnlineDetector and/or a StreamWriter) and starts the drain cadence.
func NewPipeline(eng *sim.Engine, cfg PipelineConfig, consumers ...Consumer) *Pipeline {
	if cfg.BufCap <= 0 {
		cfg.BufCap = 4096
	}
	p := &Pipeline{cfg: cfg, eng: eng, collectors: map[int]*Collector{}}
	for _, c := range consumers {
		if c != nil {
			p.cons = append(p.cons, c)
		}
	}
	if cfg.DrainInterval > 0 {
		p.scheduleTick()
	}
	return p
}

func (p *Pipeline) scheduleTick() {
	p.ticker = p.eng.After(p.cfg.DrainInterval, func() {
		p.drain()
		p.scheduleTick()
	})
}

// Stop halts the drain cadence after flushing what is buffered.
func (p *Pipeline) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	p.drain()
	if p.ticker != nil {
		p.ticker.Cancel()
		p.ticker = nil
	}
}

// Drains reports how many drain passes ran — the collection-overhead
// metric of the cadence sweep.
func (p *Pipeline) Drains() uint64 { return p.drains }

// Records reports how many records reached the consumers.
func (p *Pipeline) Records() uint64 { return p.records }

// Dropped totals ring-overwrite losses across collectors.
func (p *Pipeline) Dropped() uint64 {
	var n uint64
	for _, c := range p.collectors {
		n += c.Dropped()
	}
	return n
}

func (p *Pipeline) collector(node int) *Collector {
	c := p.collectors[node]
	if c == nil {
		c = NewCollector(node, p.cfg.BufCap)
		p.collectors[node] = c
		p.nodes = append(p.nodes, node)
		sort.Ints(p.nodes)
	}
	return c
}

// push buffers a data-plane record and, in streaming mode, arms the
// end-of-instant drain.
func (p *Pipeline) push(rec Record) {
	if p.stopped {
		return
	}
	p.collector(rec.Node).Push(rec)
	if p.cfg.DrainInterval == 0 && !p.pending {
		p.pending = true
		p.eng.After(0, func() {
			p.pending = false
			p.drain()
		})
	}
}

// drain empties every collector, merges the batch by event time and hands
// it to the consumers.
func (p *Pipeline) drain() {
	p.drains++
	batch := p.scratch[:0]
	for _, n := range p.nodes {
		batch = p.collectors[n].Drain(batch)
	}
	batch = MergeByTime(batch)
	for _, rec := range batch {
		p.records++
		for _, c := range p.cons {
			c.Observe(rec)
		}
	}
	// Clear the delivered records so the reused batch keeps no payload
	// reachable until it is overwritten.
	clear(batch)
	p.scratch = batch[:0]
}

// deliver hands a control-plane record straight to the consumers.
func (p *Pipeline) deliver(rec Record) {
	if p.stopped {
		return
	}
	p.records++
	for _, c := range p.cons {
		c.Observe(rec)
	}
}

// OnCommCreate implements accl.StatsSink.
func (p *Pipeline) OnCommCreate(ci accl.CommInfo) {
	for _, n := range ci.Nodes {
		p.collector(n) // provision collectors for all members
	}
	p.deliver(Record{
		Time: p.eng.Now(), Node: -1, Kind: KindCommCreate,
		Comm: ci.Comm, Nodes: append([]int(nil), ci.Nodes...),
	})
}

// OnCommClose implements accl.StatsSink. Buffered records of the closing
// communicator drain first so consumers never see data after the close.
func (p *Pipeline) OnCommClose(comm int) {
	p.drain()
	p.deliver(Record{Time: p.eng.Now(), Node: -1, Kind: KindCommClose, Comm: comm})
}

// OnCollective implements accl.StatsSink.
func (p *Pipeline) OnCollective(ev accl.CollEvent) { p.push(RecordOfColl(ev)) }

// OnMessage implements accl.StatsSink.
func (p *Pipeline) OnMessage(ev accl.MsgEvent) { p.push(RecordOfMsg(ev)) }

// OnWait implements accl.StatsSink.
func (p *Pipeline) OnWait(ev accl.WaitEvent) { p.push(RecordOfWait(ev)) }
