package telemetry

import (
	"fmt"
	"io"
	"testing"

	"c4/internal/c4d"
)

// The incremental-vs-full-recompute benchmark behind online/scale-sweep:
// one streaming DelayMatrix update per record versus one batch
// AnalyzeDelayMatrix pass over a same-sized window, and the JSONL
// encoding cost of one record per kind. Run via `make bench`.

// ringPairs enumerates an n-node ring's (src,dst) edges.
func ringPairs(n int) [][2]int {
	out := make([][2]int, n)
	for i := 0; i < n; i++ {
		out[i] = [2]int{i, (i + 1) % n}
	}
	return out
}

func BenchmarkIncrementalObserve(b *testing.B) {
	for _, nodes := range []int{8, 32, 128} {
		pairs := ringPairs(nodes)
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			m := NewDelayMatrix(0.4)
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				m.Observe(p[0], p[1], 100)
			}
		})
	}
}

func BenchmarkBatchAnalyzePass(b *testing.B) {
	for _, nodes := range []int{8, 32, 128} {
		bw := map[[2]int]float64{}
		for _, p := range ringPairs(nodes) {
			bw[p] = 100
		}
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c4d.AnalyzeDelayMatrix(bw, 2, 0.6)
			}
		})
	}
}

// BenchmarkStreamWriterObserve is the per-record cost of the JSONL sink:
// encode into the reused line buffer and copy into the bufio buffer.
func BenchmarkStreamWriterObserve(b *testing.B) {
	for _, r := range streamRoundTripRecords() {
		b.Run(r.Kind.String(), func(b *testing.B) {
			sw := NewStreamWriter(io.Discard)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sw.Observe(r)
			}
			if err := sw.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
