package main

import (
	"os"
	"testing"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// Preemption and allocation samples go to the calling layer.
		{[]string{"runtime.asyncPreempt", "c4/internal/netsim.(*Network).recompute", "c4/internal/sim.(*Engine).RunUntil"}, "netsim"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "c4/internal/c4d.(*Master).reportAll", "c4/internal/netsim.(*Network).settle"}, "c4d"},
		// Closures and generic instantiations name their package.
		{[]string{"c4/internal/sim.(*eventHeap[...]).Push", "c4/internal/accl.(*Comm).start.func1"}, "sim"},
		// Internal packages outside the reported list are summed.
		{[]string{"c4/internal/workload.Fig14Jobs", "c4.(*Session).runJob"}, "other"},
		{[]string{"runtime.mapassign", "c4.(*Session).runJob", "main.runSession"}, "session"},
		{[]string{"crypto/sha256.block", "main.(*outcome).seal"}, "bench"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, gcBackground},
		{nil, gcBackground},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
	if !isAlloc([]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "c4/internal/netsim.New"}) {
		t.Error("mallocgc stack not counted as allocation")
	}
	if !isAlloc([]string{"runtime.gcWriteBarrier2", "c4/internal/sim.(*Engine).Schedule"}) {
		t.Error("write-barrier stack not counted as allocation")
	}
	if isAlloc([]string{"runtime.asyncPreempt", "c4/internal/netsim.(*Network).recompute"}) {
		t.Error("preemption stack counted as allocation")
	}
}

// testdata/pipeline3d.cpu.pprof is a CPU profile the benchmark recorded
// on its pipeline3d workload. The expected table was computed
// independently from `go tool pprof -traces` output with the same rule.
func TestReduceRecordedProfile(t *testing.T) {
	data, err := os.ReadFile("testdata/pipeline3d.cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	lt := reduce(p)
	if lt.Samples != fixtureSamples || lt.TotalNs != fixtureTotalNs {
		t.Errorf("samples %d, total %d ns; want %d, %d ns", lt.Samples, lt.TotalNs, fixtureSamples, fixtureTotalNs)
	}
	for layer, want := range fixtureSelfNs {
		if got := lt.SelfNs[layer]; got != want {
			t.Errorf("%s: %d ns, want %d ns", layer, got, want)
		}
	}
	var sum int64
	for layer, ns := range lt.SelfNs {
		sum += ns
		if _, ok := fixtureSelfNs[layer]; !ok {
			t.Errorf("unexpected layer %s with %d ns", layer, ns)
		}
	}
	if sum != lt.TotalNs {
		t.Errorf("layers sum to %d ns, total is %d ns", sum, lt.TotalNs)
	}
	if lt.AllocNs != fixtureAllocNs {
		t.Errorf("allocation time %d ns, want %d ns", lt.AllocNs, fixtureAllocNs)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{{0x1f, 0x8b, 0}, {0x0a, 0x05, 0x08}, {0x0f}} {
		if _, err := parseProfile(data); err == nil {
			t.Errorf("parseProfile(% x) succeeded", data)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := &recorder{}
	// Spans with hand-set times: a run of 10 with children of 3 and 4.
	r.spans = []span{
		{Name: "run", Parent: -1, Start: 0, End: 10},
		{Name: "new_session", Parent: 0, Start: 1, End: 4},
		{Name: "session_run", Parent: 0, Start: 4, End: 8},
	}
	got := map[string]spanStat{}
	for _, st := range r.stats() {
		got[st.Name] = st
	}
	if st := got["run"]; st.Total != 10 || st.Self != 3 || st.Count != 1 {
		t.Errorf("run span: %+v, want total 10 self 3", st)
	}
	if st := got["session_run"]; st.Self != 4 {
		t.Errorf("session_run span: %+v, want self 4", st)
	}
}

// The fixture's table, from `go tool pprof -traces` with the same rule.
const (
	fixtureSamples = 161
	fixtureTotalNs = 1_610_000_000
	fixtureAllocNs = 580_000_000
)

var fixtureSelfNs = map[string]int64{
	"netsim":     1_050_000_000,
	"accl":       220_000_000,
	"sim":        210_000_000,
	"topo":       60_000_000,
	"plan":       20_000_000,
	"job":        10_000_000,
	gcBackground: 40_000_000,
}
