package experiments

import (
	"context"
	"testing"

	"perfclone/internal/profile"
	"perfclone/internal/stats"
	"perfclone/internal/synth"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// TestHeadlineFidelity is the regression guard for the reproduction's
// headline numbers: if a change to the profiler, synthesizer, or
// simulators degrades clone fidelity on a mixed workload subset beyond
// the bands below, this test fails. The bands are set ~2x looser than the
// currently measured values (see EXPERIMENTS.md) so that noise does not
// trip them but regressions do.
func TestHeadlineFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("fidelity integration test is slow")
	}
	opts := Options{
		Workloads:    []string{"crc32", "qsort", "fft", "adpcm", "gsm", "sha"},
		ProfileInsts: 500_000,
		TimingWarmup: 100_000,
		TimingInsts:  400_000,
		Parallel:     true,
	}
	pairs, err := Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Figure 4 band: measured ≈0.95 on this subset; fail below 0.75.
	fig4, err := Fig4(pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var rs []float64
	for _, r := range fig4 {
		rs = append(rs, r.R)
	}
	if m := stats.Mean(rs); m < 0.75 {
		t.Errorf("Fig4 cache-tracking correlation regressed: %.3f", m)
	}

	// Figures 6/7 band: measured ≈4-6 %; fail above 15 %.
	base, err := Fig6and7(pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ipcErrs, powErrs []float64
	for _, r := range base {
		ipcErrs = append(ipcErrs, r.IPCErr)
		powErrs = append(powErrs, r.PowerErr)
	}
	if m := stats.Mean(ipcErrs); m > 0.15 {
		t.Errorf("Fig6 IPC error regressed: %.1f%%", 100*m)
	}
	if m := stats.Mean(powErrs); m > 0.15 {
		t.Errorf("Fig7 power error regressed: %.1f%%", 100*m)
	}

	// Table 3 band: measured ≈4 %; fail above 12 %.
	_, sums, err := Table3(pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var rel []float64
	for _, s := range sums {
		rel = append(rel, s.AvgRelErrIPC)
	}
	if m := stats.Mean(rel); m > 0.12 {
		t.Errorf("Table 3 relative IPC error regressed: %.1f%%", 100*m)
	}
	// Trend direction: the clone must agree with the real programs on
	// which changes help and which hurt.
	for _, s := range sums {
		realUp := s.RealSpeedup >= 1
		cloneUp := s.CloneSpeedup >= 1
		if realUp != cloneUp && absDiff(s.RealSpeedup, 1) > 0.05 {
			t.Errorf("%s: clone disagrees on trend direction (real %.3fx clone %.3fx)",
				s.Change, s.RealSpeedup, s.CloneSpeedup)
		}
	}
}

// cloneIPCWithSeed generates one seeded clone and measures its IPC on the
// base configuration.
func cloneIPCWithSeed(opts Options, seed uint64) (float64, error) {
	w, err := workloads.ByName(opts.Workloads[0])
	if err != nil {
		return 0, err
	}
	prof, err := profile.Collect(w.Build(), profile.Options{MaxInsts: opts.ProfileInsts})
	if err != nil {
		return 0, err
	}
	clone, err := synth.Generate(prof, synth.Config{Seed: seed})
	if err != nil {
		return 0, err
	}
	st, err := uarch.RunLimitsContext(context.Background(), clone.Program, uarch.BaseConfig(),
		uarch.Limits{Warmup: opts.TimingWarmup, MaxInsts: opts.TimingInsts})
	if err != nil {
		return 0, err
	}
	return st.IPC(), nil
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestCloneSeedStability: clone fidelity must not hinge on a lucky PRNG
// seed — IPC across three seeds stays within a tight band.
func TestCloneSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := Options{Workloads: []string{"qsort"}, ProfileInsts: 400_000,
		TimingWarmup: 100_000, TimingInsts: 300_000}
	var ipcs []float64
	for seed := uint64(1); seed <= 3; seed++ {
		ipc, err := cloneIPCWithSeed(opts, seed)
		if err != nil {
			t.Fatal(err)
		}
		ipcs = append(ipcs, ipc)
	}
	spread := stats.Max(ipcs) - stats.Min(ipcs)
	if spread/stats.Mean(ipcs) > 0.10 {
		t.Errorf("clone IPC varies %.1f%% across seeds: %v", 100*spread/stats.Mean(ipcs), ipcs)
	}
}
