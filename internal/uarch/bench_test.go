package uarch

import (
	"context"
	"testing"

	"perfclone/internal/workloads"
)

// BenchmarkTimingSimulation measures the cycle-level simulator's speed in
// simulated instructions per second on the base configuration.
func BenchmarkTimingSimulation(b *testing.B) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build()
	cfg := BaseConfig()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		st, err := RunLimitsContext(context.Background(), p, cfg, Limits{MaxInsts: 200_000})
		if err != nil {
			b.Fatal(err)
		}
		insts += st.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkTimingSimulationWide exercises the 4-wide configuration, whose
// larger window makes the scheduler scan more entries per cycle.
func BenchmarkTimingSimulationWide(b *testing.B) {
	w, err := workloads.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build()
	cfg := BaseConfig()
	cfg.Width = 4
	cfg.ROBSize = 64
	cfg.LSQSize = 32
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		st, err := RunLimitsContext(context.Background(), p, cfg, Limits{MaxInsts: 200_000})
		if err != nil {
			b.Fatal(err)
		}
		insts += st.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}
