package accl

import (
	"fmt"
	"testing"

	"c4/internal/netsim"
	"c4/internal/sim"
	"c4/internal/topo"
)

// TestCollectivesReplayPinned runs a multi-op collective workload — a
// cross-group ring allreduce, an allgather, and a broadcast tree racing on
// one fabric — and requires every result (start, end, busbw) and the
// engine's fired-event count to match the values recorded while the
// per-flow reference was the production netsim kernel. The collective
// layer sees the network only through flow completion instants, so any
// kernel drift shows here bit for bit.
func TestCollectivesReplayPinned(t *testing.T) {
	const (
		wantResults = "allgather: start=0 end=2610469 bus=199.23381430693107\n" +
			"broadcast: start=0 end=8918414 bus=120.39605068793622\n" +
			"allreduce: start=0 end=12667530 bus=328.4578420576072\n"
		wantFired = 55
	)
	for _, workers := range []int{0, 4} {
		eng := sim.NewEngine()
		tp := topo.MustNew(topo.PaperTestbed())
		cfg := netsim.DefaultConfig()
		cfg.SettleWorkers = workers
		net := netsim.New(eng, tp, cfg)
		rec := &Recorder{}
		mk := func(nodes []int) *Communicator {
			c, err := NewCommunicator(Config{
				Engine: eng, Net: net, Provider: newPlannedProvider(tp), Sink: rec,
			}, nodes)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		var results string
		done := func(op string) func(Result) {
			return func(r Result) {
				results += fmt.Sprintf("%s: start=%d end=%d bus=%v\n", op, r.Start, r.End, r.BusGbps)
			}
		}
		mk([]int{0, 2, 4, 6}).AllReduce(256*MiB, nil, done("allreduce"))
		mk([]int{1, 3, 5, 7}).AllGather(64*MiB, nil, done("allgather"))
		mk([]int{8, 10, 12, 14}).Broadcast(128*MiB, nil, done("broadcast"))
		eng.Run()
		if results != wantResults {
			t.Errorf("workers=%d: results diverged from the pin:\n%s\nwant:\n%s", workers, results, wantResults)
		}
		if got := eng.Fired(); got != wantFired {
			t.Errorf("workers=%d: fired %d events, pinned %d", workers, got, wantFired)
		}
	}
}
