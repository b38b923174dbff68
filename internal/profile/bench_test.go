package profile_test

import (
	"context"
	"testing"

	"perfclone/internal/fidelity"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// BenchmarkProfileCollect measures profiling throughput (the Figure 1
// "workload profiler" box) on a real kernel at 1M instructions and on a
// fidelity clone at the gate's 400k re-profile budget.
func BenchmarkProfileCollect(b *testing.B) {
	ctx := context.Background()
	w, err := workloads.ByName("jpeg")
	if err != nil {
		b.Fatal(err)
	}
	kernel := w.Build()
	target, err := profile.CollectContext(ctx, kernel, profile.Options{MaxInsts: 400_000})
	if err != nil {
		b.Fatal(err)
	}
	clone, _, err := fidelity.GenerateContext(ctx, target, synth.Config{}, fidelity.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		p     *prog.Program
		insts uint64
	}{
		{"kernel-1M", kernel, 1_000_000},
		{"clone-400k", clone.Program, 400_000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				prof, err := profile.CollectContext(ctx, bc.p, profile.Options{MaxInsts: bc.insts})
				if err != nil {
					b.Fatal(err)
				}
				insts += prof.TotalInsts
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
		})
	}
}
