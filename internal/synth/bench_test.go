package synth

import (
	"context"
	"testing"

	"perfclone/internal/profile"
	"perfclone/internal/workloads"
)

// BenchmarkGenerate measures clone synthesis (the Figure 1 "workload
// synthesizer" box).
func BenchmarkGenerate(b *testing.B) {
	w, err := workloads.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := profile.CollectContext(context.Background(), w.Build(), profile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(prof, Config{Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}
