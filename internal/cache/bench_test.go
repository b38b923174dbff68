package cache

import (
	"context"
	"testing"

	"perfclone/internal/dyntrace"
	"perfclone/internal/workloads"
)

// BenchmarkAccess measures single-cache access throughput.
func BenchmarkAccess(b *testing.B) {
	c := MustNew(Config{Size: 16 << 10, Assoc: 2, LineSize: 32})
	s := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		c.Access((s*0x2545f4914f6cdd1d)%(64<<10), i%4 == 0)
	}
}

// BenchmarkSweep28 measures the Figure 4 inner loop: all 28 sweep
// configurations over the data-reference stream of a captured
// 1M-instruction dijkstra trace, reported as references per second.
func BenchmarkSweep28(b *testing.B) {
	w, err := workloads.ByName("dijkstra")
	if err != nil {
		b.Fatal(err)
	}
	t, err := dyntrace.Capture(w.Build(), 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	addrs, _ := t.Mem(0)
	cfgs := Sweep28()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepMisses(context.Background(), addrs, cfgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(addrs))*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}
