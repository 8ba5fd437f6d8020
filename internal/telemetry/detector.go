package telemetry

import (
	"fmt"
	"slices"
	"sort"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/sim"
)

// DetectorConfig tunes the online detector. Thresholds deliberately mirror
// c4d.Config so the two arms disagree only in *when* they can fire, never
// in *what* they consider anomalous.
type DetectorConfig struct {
	// HangTimeout is how long a collective may make no progress before the
	// hang alarms fire. Default 30 s.
	HangTimeout sim.Time
	// Kappa is the slowdown multiple considered anomalous. Default 2.
	Kappa float64
	// WaitKappa is how many times the runner-up the top straggler's
	// decayed waited-on time must exceed. Default 3.
	WaitKappa float64
	// MinWait is the decayed waited-on floor. Default 50 ms.
	MinWait sim.Time
	// WaitTau is the straggler accumulator's decay constant — the
	// streaming analogue of the batch reporting window. Default 5 s.
	WaitTau sim.Time
	// DedupInterval suppresses repeated identical detections. Default 60 s.
	DedupInterval sim.Time
	// Alpha is the bandwidth EWMA smoothing factor. Default 0.4.
	Alpha float64
	// MinPairObs is how many observations a pair needs before it can be
	// judged slow. Default 3.
	MinPairObs int
	// MinTotalObs is the global warmup before any slowness verdict.
	// Default 24.
	MinTotalObs int
	// MinLineObs is the distinct-peer breadth a row/column verdict needs
	// (below it, slowness stays at connection scope, matching the batch
	// analyzer's minLineCells). Default 3.
	MinLineObs int
}

// DefaultDetectorConfig returns the tuning used across the repository.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		HangTimeout:   30 * sim.Second,
		Kappa:         2,
		WaitKappa:     3,
		MinWait:       50 * sim.Millisecond,
		WaitTau:       5 * sim.Second,
		DedupInterval: 60 * sim.Second,
		Alpha:         0.4,
		MinPairObs:    3,
		MinTotalObs:   24,
		MinLineObs:    3,
	}
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	d := DefaultDetectorConfig()
	if c.HangTimeout <= 0 {
		c.HangTimeout = d.HangTimeout
	}
	if c.Kappa <= 0 {
		c.Kappa = d.Kappa
	}
	if c.WaitKappa <= 0 {
		c.WaitKappa = d.WaitKappa
	}
	if c.MinWait <= 0 {
		c.MinWait = d.MinWait
	}
	if c.WaitTau <= 0 {
		c.WaitTau = d.WaitTau
	}
	if c.DedupInterval <= 0 {
		c.DedupInterval = d.DedupInterval
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = d.Alpha
	}
	if c.MinPairObs <= 0 {
		c.MinPairObs = d.MinPairObs
	}
	if c.MinTotalObs <= 0 {
		c.MinTotalObs = d.MinTotalObs
	}
	if c.MinLineObs <= 0 {
		c.MinLineObs = d.MinLineObs
	}
	return c
}

// commWatch is the per-communicator incremental state.
type commWatch struct {
	comm  int
	nodes []int

	arriveSeq    map[int]int
	completeSeq  map[int]int
	seqFirstArr  map[int]sim.Time
	lastProgress sim.Time

	// Incrementally maintained view of the newest operation (seq maxArr):
	// how many members have arrived at it and whether anyone completed
	// it. These make hangDeadline O(1) per record; the full member scans
	// run only when an alarm actually fires.
	maxArr       int
	arrivedAtMax int
	completedMax bool

	// window holds, per recent operation, the members seen sending (tx)
	// and receiving (rx) its messages — the hang alarm's blame evidence.
	// It keeps the same ~8-op window as seqFirstArr; pruned entries stay
	// in the slice's spare capacity and are reused with their peer lists.
	window []opPeers

	matrix *DelayMatrix
	waits  map[int]*DecayAccum

	alarm   *sim.Event
	alarmAt sim.Time
}

// opPeers is one operation's entry in a commWatch's message window: the
// distinct members seen sending and receiving its messages.
type opPeers struct {
	seq    int
	tx, rx []int
}

// op returns the window entry for seq, or nil.
func (w *commWatch) op(seq int) *opPeers {
	for i := range w.window {
		if w.window[i].seq == seq {
			return &w.window[i]
		}
	}
	return nil
}

// addOp appends an empty entry for seq, reusing a pruned entry's peer
// lists when the slice has one in its spare capacity.
func (w *commWatch) addOp(seq int) *opPeers {
	if n := len(w.window); n < cap(w.window) {
		w.window = w.window[:n+1]
	} else {
		w.window = append(w.window, opPeers{})
	}
	op := &w.window[len(w.window)-1]
	op.seq, op.tx, op.rx = seq, op.tx[:0], op.rx[:0]
	return op
}

// pruneOps drops the entries of operations older than oldest, keeping
// the survivors in order and parking the dropped ones past the slice's
// length for reuse.
func (w *commWatch) pruneOps(oldest int) {
	k := 0
	for i := range w.window {
		if w.window[i].seq >= oldest {
			if i != k { // skip self-swaps: their slice writes pay write barriers
				w.window[k], w.window[i] = w.window[i], w.window[k]
			}
			k++
		}
	}
	w.window = w.window[:k]
}

// addPeer adds node to a peer set kept as a small slice.
func addPeer(set []int, node int) []int {
	if slices.Contains(set, node) {
		return set
	}
	return append(set, node)
}

// OnlineDetector turns the merged record stream into Detections the
// moment a threshold crosses. Slowness fires inside the Observe call that
// pushed an aggregate over the line; hangs — which are the *absence* of
// records — fire from engine alarms armed at the exact instant the
// timeout can first be satisfied. Either way, detection latency is set by
// the evidence, not by a reporting tick.
type OnlineDetector struct {
	cfg DetectorConfig
	eng *sim.Engine

	comms      map[int]*commWatch
	detections []c4d.Detection
	handlers   []func(c4d.Detection)
	lastFire   map[string]sim.Time
	updates    uint64
}

// NewOnlineDetector creates a detector bound to the engine (needed for
// hang alarms).
func NewOnlineDetector(eng *sim.Engine, cfg DetectorConfig) *OnlineDetector {
	return &OnlineDetector{
		cfg:      cfg.withDefaults(),
		eng:      eng,
		comms:    map[int]*commWatch{},
		lastFire: map[string]sim.Time{},
	}
}

// Config returns the effective configuration.
func (d *OnlineDetector) Config() DetectorConfig { return d.cfg }

// Subscribe registers a handler invoked on every new detection.
func (d *OnlineDetector) Subscribe(h func(c4d.Detection)) {
	d.handlers = append(d.handlers, h)
}

// Detections returns every detection fired so far.
func (d *OnlineDetector) Detections() []c4d.Detection {
	return append([]c4d.Detection(nil), d.detections...)
}

// Updates reports the total elementary state-update operations performed:
// one per record plus one per loop iteration taken on the per-record
// path. It is the streaming work metric the scale sweep compares against
// the batch master's MatrixCellVisits — and because loop iterations
// count, a regression that reintroduces a per-record member scan shows
// up as updates-per-record growing with fleet size.
func (d *OnlineDetector) Updates() uint64 { return d.updates }

// Stop cancels all pending hang alarms (end of simulation).
func (d *OnlineDetector) Stop() {
	for _, w := range d.comms {
		if w.alarm != nil {
			w.alarm.Cancel()
			w.alarm = nil
		}
	}
}

// Observe folds one stream record into the incremental state and fires
// any detection it completes.
func (d *OnlineDetector) Observe(rec Record) {
	d.updates++
	switch rec.Kind {
	case KindCommCreate:
		d.comms[rec.Comm] = &commWatch{
			comm:        rec.Comm,
			nodes:       append([]int(nil), rec.Nodes...),
			arriveSeq:   map[int]int{},
			completeSeq: map[int]int{},
			seqFirstArr: map[int]sim.Time{},
			matrix:      NewDelayMatrix(d.cfg.Alpha),
			waits:       map[int]*DecayAccum{},
		}
	case KindCommClose:
		if w := d.comms[rec.Comm]; w != nil {
			if w.alarm != nil {
				w.alarm.Cancel()
			}
			delete(d.comms, rec.Comm)
		}
	case KindColl:
		if w := d.comms[rec.Comm]; w != nil && rec.Coll != nil {
			d.observeColl(w, *rec.Coll)
		}
	case KindMsg:
		if w := d.comms[rec.Comm]; w != nil && rec.Msg != nil {
			d.observeMsg(w, *rec.Msg)
		}
	case KindWait:
		if w := d.comms[rec.Comm]; w != nil && rec.Wait != nil {
			d.observeWait(w, *rec.Wait)
		}
	}
}

func (d *OnlineDetector) emit(det c4d.Detection) {
	key := fmt.Sprintf("%d/%v/%v", det.Comm, det.Syndrome, det.Suspects)
	if last, ok := d.lastFire[key]; ok && det.At-last < d.cfg.DedupInterval {
		return
	}
	d.lastFire[key] = det.At
	d.detections = append(d.detections, det)
	for _, h := range d.handlers {
		h(det)
	}
}

func (d *OnlineDetector) observeColl(w *commWatch, ev accl.CollEvent) {
	switch ev.Phase {
	case accl.PhaseArrive:
		if old := w.arriveSeq[ev.Node]; ev.Seq > old {
			w.arriveSeq[ev.Node] = ev.Seq
			switch {
			case ev.Seq > w.maxArr:
				// A new newest operation: this node is its first member,
				// and nothing can have completed it yet (completion
				// implies arrival).
				w.maxArr = ev.Seq
				w.arrivedAtMax = 1
				w.completedMax = false
				// Bound memory: first-arrival times of long-finished
				// operations are useless (same window as w.window).
				for seq := range w.seqFirstArr {
					d.updates++
					if seq < w.maxArr-8 {
						delete(w.seqFirstArr, seq)
					}
				}
			case ev.Seq == w.maxArr && old < w.maxArr:
				w.arrivedAtMax++
			}
		}
		if t, ok := w.seqFirstArr[ev.Seq]; !ok || ev.Time < t {
			w.seqFirstArr[ev.Seq] = ev.Time
		}
	case accl.PhaseComplete:
		if ev.Seq > w.completeSeq[ev.Node] {
			w.completeSeq[ev.Node] = ev.Seq
		}
		if ev.Seq >= w.maxArr {
			w.completedMax = true
		}
	}
	d.rearmHangAlarm(w)
}

func (d *OnlineDetector) observeMsg(w *commWatch, ev accl.MsgEvent) {
	if ev.End > w.lastProgress {
		w.lastProgress = ev.End
	}
	op := w.op(ev.Seq)
	if op == nil {
		op = w.addOp(ev.Seq)
	}
	op.tx = addPeer(op.tx, ev.SrcNode)
	op.rx = addPeer(op.rx, ev.DstNode)
	// One update per window entry visited by the prune.
	d.updates += uint64(len(w.window))
	w.pruneOps(ev.Seq - 8)
	if dur := ev.Duration(); dur > 0 {
		bw := ev.Bytes * 8 / dur.Seconds() / 1e9 // Gbps
		w.matrix.Observe(ev.SrcNode, ev.DstNode, bw)
		d.checkCommSlow(w, ev.SrcNode, ev.DstNode)
	}
	d.rearmHangAlarm(w)
}

func (d *OnlineDetector) observeWait(w *commWatch, ev accl.WaitEvent) {
	acc := w.waits[ev.On]
	if acc == nil {
		acc = &DecayAccum{Tau: d.cfg.WaitTau}
		w.waits[ev.On] = acc
	}
	acc.Add(ev.Time, ev.Dur.Seconds())
	// O(1) precheck: the member scan can only produce a verdict when the
	// node this record updated clears the absolute floor, which healthy
	// jitter-level waits never do. The verdict itself is stamped at the
	// delivery instant — under a batched drain cadence the detector
	// cannot claim to have known before the drain.
	now := d.eng.Now()
	if acc.ValueAt(now) < d.cfg.MinWait.Seconds() {
		return
	}
	d.checkStraggler(w, now)
}

// checkCommSlow judges the pair (and its row/column) the record just
// updated against the sketch's healthy median.
func (d *OnlineDetector) checkCommSlow(w *commWatch, src, dst int) {
	if w.matrix.sketch.Count() < uint64(d.cfg.MinTotalObs) {
		return
	}
	med := w.matrix.Median()
	if med <= 0 {
		return
	}
	now := d.eng.Now()
	threshold := med / d.cfg.Kappa

	// Row/column verdicts first (broader evidence), mirroring the batch
	// analyzer's preference, but only with enough distinct peers to tell
	// a NIC side from a single bad cable.
	if v, n, dsts := w.matrix.Row(src); dsts >= d.cfg.MinLineObs &&
		n >= d.cfg.MinPairObs*d.cfg.MinLineObs && v > 0 && v < threshold {
		d.emit(c4d.Detection{
			At: now, Comm: w.comm, Syndrome: c4d.CommSlow, Suspects: []int{src},
			Severity: med / v, Detail: "streaming matrix row slow: source Tx degraded",
		})
		return
	}
	if v, n, srcs := w.matrix.Col(dst); srcs >= d.cfg.MinLineObs &&
		n >= d.cfg.MinPairObs*d.cfg.MinLineObs && v > 0 && v < threshold {
		d.emit(c4d.Detection{
			At: now, Comm: w.comm, Syndrome: c4d.CommSlow, Suspects: []int{dst},
			Severity: med / v, Detail: "streaming matrix column slow: destination Rx degraded",
		})
		return
	}
	if v, n := w.matrix.Pair(src, dst); n >= d.cfg.MinPairObs && v > 0 && v < threshold {
		d.emit(c4d.Detection{
			At: now, Comm: w.comm, Syndrome: c4d.CommSlow, Suspects: []int{src, dst},
			Severity: med / v, Detail: "streaming connection slow",
		})
	}
}

// checkStraggler compares decayed waited-on time across members.
func (d *OnlineDetector) checkStraggler(w *commWatch, now sim.Time) {
	var top, second float64
	topNode := -1
	nodes := make([]int, 0, len(w.waits))
	for n := range w.waits {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		d.updates++
		v := w.waits[n].ValueAt(now)
		if v > top {
			second = top
			top, topNode = v, n
		} else if v > second {
			second = v
		}
	}
	if topNode < 0 || top < d.cfg.MinWait.Seconds() {
		return
	}
	if second > 0 && top < d.cfg.WaitKappa*second {
		return
	}
	d.emit(c4d.Detection{
		At: now, Comm: w.comm, Syndrome: c4d.NonCommSlow, Suspects: []int{topNode},
		Severity: top / d.cfg.WaitTau.Seconds(),
		Detail:   fmt.Sprintf("peers' decayed wait on this node %.3fs", top),
	})
}

// hangDeadline computes the earliest instant a hang verdict could become
// true given current evidence, or 0 when none applies. O(1): it reads
// the incrementally maintained newest-op counters, never scanning the
// membership — this runs on every data record.
func (w *commWatch) hangDeadline(timeout sim.Time) sim.Time {
	if w.maxArr == 0 {
		return 0
	}
	firstArr := w.seqFirstArr[w.maxArr]
	switch {
	case w.arrivedAtMax < len(w.nodes):
		// A peer is missing from op maxArr: non-comm hang ripens at
		// firstArr + timeout.
		return firstArr + timeout
	case !w.completedMax:
		// Everyone entered, nobody finished: comm hang ripens timeout
		// after the last transport progress.
		last := w.lastProgress
		if firstArr > last {
			last = firstArr
		}
		return last + timeout
	}
	return 0
}

// rearmHangAlarm (re)schedules the comm's alarm at the current deadline.
func (d *OnlineDetector) rearmHangAlarm(w *commWatch) {
	deadline := w.hangDeadline(d.cfg.HangTimeout)
	if deadline == 0 {
		if w.alarm != nil {
			w.alarm.Cancel()
			w.alarm = nil
		}
		return
	}
	if w.alarm != nil && !w.alarm.Cancelled() && w.alarmAt == deadline {
		return
	}
	at := deadline
	if now := d.eng.Now(); at < now {
		at = now
	}
	w.alarmAt = deadline
	// Move the queued alarm in place; falls back to a fresh event when the
	// old one already fired or was cancelled. Reschedule assigns a fresh
	// sequence number, so the firing order matches cancel-and-recreate.
	if d.eng.Reschedule(w.alarm, at) {
		return
	}
	w.alarm = d.eng.Schedule(at, func() { d.hangAlarm(w) })
}

// hangAlarm re-evaluates the hang conditions at the exact deadline.
func (d *OnlineDetector) hangAlarm(w *commWatch) {
	w.alarm = nil
	if d.comms[w.comm] != w {
		return // closed and replaced
	}
	now := d.eng.Now()
	maxArr := w.maxArr
	if maxArr == 0 {
		return
	}
	firstArr := w.seqFirstArr[maxArr]
	age := now - firstArr

	allArrived := w.arrivedAtMax >= len(w.nodes)
	switch {
	case !allArrived && age >= d.cfg.HangTimeout:
		// Alarms are rare; the member scan to name the missing peers is
		// fine here.
		var missing []int
		for _, n := range w.nodes {
			if w.arriveSeq[n] < maxArr {
				missing = append(missing, n)
			}
		}
		d.emit(c4d.Detection{
			At: now, Comm: w.comm, Syndrome: c4d.NonCommHang, Suspects: missing,
			Severity: age.Seconds(),
			Detail:   fmt.Sprintf("no kernel launch for op %d (peers launched %v ago)", maxArr, age),
		})
	case allArrived && !w.completedMax:
		last := w.lastProgress
		if firstArr > last {
			last = firstArr
		}
		if now-last < d.cfg.HangTimeout {
			break
		}
		var tx, rx []int
		if op := w.op(maxArr); op != nil {
			tx, rx = op.tx, op.rx
		}
		var blamed []int
		for _, n := range w.nodes {
			if !slices.Contains(tx, n) && !slices.Contains(rx, n) {
				blamed = append(blamed, n)
			}
		}
		if len(tx) == 0 && len(rx) == 0 || len(blamed) == 0 || len(blamed) == len(w.nodes) {
			blamed = w.nodes[:1] // no discriminating evidence: same fallback as batch
		}
		d.emit(c4d.Detection{
			At: now, Comm: w.comm, Syndrome: c4d.CommHang, Suspects: blamed,
			Severity: (now - last).Seconds(),
			Detail:   fmt.Sprintf("op %d transport silent for %v", maxArr, now-last),
		})
	}
	// Keep watching: a persistent hang re-fires after dedup expires, and a
	// hang that develops later still has its alarm armed.
	w.alarmAt = now + d.cfg.HangTimeout
	w.alarm = d.eng.Schedule(w.alarmAt, func() { d.hangAlarm(w) })
}
