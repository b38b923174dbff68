package statsim

import (
	"context"
	"errors"
	"math"
	"testing"

	"perfclone/internal/profile"
	"perfclone/internal/supervise"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

func setup(t *testing.T, name string) (*profile.Profile, Rates, uarch.Config) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	cfg := uarch.BaseConfig()
	prof, err := profile.Collect(p, profile.Options{MaxInsts: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	rates, err := MeasureRates(p, cfg, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	return prof, rates, cfg
}

func TestEstimateApproximatesDetailedIPC(t *testing.T) {
	// Statistical simulation's accuracy claim (Section 2): the synthetic
	// trace estimates the detailed simulation's IPC at the *same*
	// configuration within the error band the literature reports
	// (typically 5-15 %).
	for _, name := range []string{"crc32", "gsm", "sha"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, _ := workloads.ByName(name)
			p := w.Build()
			prof, rates, cfg := setup(t, name)
			detailed, err := uarch.RunLimitsContext(context.Background(), p, cfg, uarch.Limits{Warmup: 100_000, MaxInsts: 400_000})
			if err != nil {
				t.Fatal(err)
			}
			est, err := Estimate(context.Background(), prof, rates, cfg, Options{TraceLen: 300_000})
			if err != nil {
				t.Fatal(err)
			}
			relErr := math.Abs(est.IPC()-detailed.IPC()) / detailed.IPC()
			t.Logf("%s: detailed IPC %.3f, statistical %.3f (err %.1f%%)",
				name, detailed.IPC(), est.IPC(), 100*relErr)
			if relErr > 0.30 {
				t.Errorf("statistical estimate off by %.1f%%", 100*relErr)
			}
		})
	}
}

func TestEstimateInjectsRates(t *testing.T) {
	prof, _, cfg := setup(t, "crc32")
	// Force heavy misses: the estimated IPC must drop substantially
	// versus a no-miss estimate.
	fast, err := Estimate(context.Background(), prof, Rates{}, cfg, Options{TraceLen: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Estimate(context.Background(), prof, Rates{L1DMiss: 0.5, L2Miss: 0.8, Mispred: 0.2}, cfg, Options{TraceLen: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if slow.IPC() >= fast.IPC()*0.8 {
		t.Fatalf("injected misses had little effect: %.3f vs %.3f", slow.IPC(), fast.IPC())
	}
	if slow.L1D.MissRate() < 0.3 {
		t.Fatalf("L1D miss injection failed: %.3f", slow.L1D.MissRate())
	}
	if slow.MispredRate() < 0.1 {
		t.Fatalf("mispredict injection failed: %.3f", slow.MispredRate())
	}
}

func TestEstimateDeterministic(t *testing.T) {
	prof, rates, cfg := setup(t, "fft")
	a, err := Estimate(context.Background(), prof, rates, cfg, Options{TraceLen: 100_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(context.Background(), prof, rates, cfg, Options{TraceLen: 100_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Insts != b.Insts {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Insts, a.Cycles, b.Insts, b.Cycles)
	}
}

func TestEstimateRejectsEmptyProfile(t *testing.T) {
	if _, err := Estimate(context.Background(), &profile.Profile{Name: "x"}, Rates{}, uarch.BaseConfig(), Options{}); err == nil {
		t.Fatal("empty profile accepted")
	}
}

// TestStatisticalSimulationIsMicroarchDependent demonstrates the paper's
// criticism: rates measured at the base configuration misestimate a
// different cache configuration, where the clone (by construction) adapts.
func TestStatisticalSimulationIsMicroarchDependent(t *testing.T) {
	w, _ := workloads.ByName("basicmath")
	p := w.Build()
	base := uarch.BaseConfig()
	prof, err := profile.Collect(p, profile.Options{MaxInsts: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	baseRates, err := MeasureRates(p, base, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	// Target configuration: tiny L1D.
	tiny := base
	tiny.L1D.Size = 512
	tiny.Name = "tiny-l1d"
	detailedTiny, err := uarch.RunLimitsContext(context.Background(), p, tiny, uarch.Limits{Warmup: 100_000, MaxInsts: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	// Statistical simulation reuses the BASE rates at the tiny config —
	// exactly what a fixed statistical profile would do.
	estStale, err := Estimate(context.Background(), prof, baseRates, tiny, Options{TraceLen: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	// With re-measured rates it does fine — the point is that the
	// profile must be re-collected per configuration.
	freshRates, err := MeasureRates(p, tiny, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	estFresh, err := Estimate(context.Background(), prof, freshRates, tiny, Options{TraceLen: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	staleErr := math.Abs(estStale.IPC()-detailedTiny.IPC()) / detailedTiny.IPC()
	freshErr := math.Abs(estFresh.IPC()-detailedTiny.IPC()) / detailedTiny.IPC()
	t.Logf("tiny L1D: detailed %.3f, stale-rates %.3f (err %.1f%%), fresh-rates %.3f (err %.1f%%)",
		detailedTiny.IPC(), estStale.IPC(), 100*staleErr, estFresh.IPC(), 100*freshErr)
	if staleErr < freshErr {
		t.Errorf("stale rates tracked the new configuration better than fresh ones — unexpected")
	}
}

// TestEstimateCancel: the statsim stage is cancellable. A context
// cancelled before the call, or one cancelled from the heartbeat the
// timing walk ticks once per chunk, ends Estimate with the context's
// cause and no Stats.
func TestEstimateCancel(t *testing.T) {
	prof, rates, cfg := setup(t, "crc32")
	cause := errors.New("stop requested")
	opts := Options{TraceLen: 1 << 20}

	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if st, err := Estimate(ctx, prof, rates, cfg, opts); !errors.Is(err, cause) || st.Insts != 0 {
		t.Fatalf("pre-cancelled: err = %v, insts = %d; want the cause and no stats", err, st.Insts)
	}

	ctx, cancel = context.WithCancelCause(context.Background())
	defer cancel(nil)
	ticks := 0
	ctx = supervise.WithTicker(ctx, func() {
		ticks++
		cancel(cause)
	})
	if st, err := Estimate(ctx, prof, rates, cfg, opts); !errors.Is(err, cause) || st.Insts != 0 {
		t.Fatalf("mid-run: err = %v, insts = %d; want the cause and no stats", err, st.Insts)
	}
	if ticks != 1 {
		t.Fatalf("walk ran %d chunks after the cancel, want it to stop at the next one", ticks)
	}
}
