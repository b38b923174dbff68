package experiments

import (
	"context"
	"reflect"
	"testing"

	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/funcsim"
	"perfclone/internal/prog"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// goldenWorkloads pin the replay-equivalence guarantee across distinct
// behaviour classes: streaming (crc32), data-dependent control (qsort),
// and strided/recursive access (fft).
var goldenWorkloads = []string{"crc32", "qsort", "fft"}

// TestReplayGoldenUarch proves the trace-replay timing path is
// bit-identical to the execution-driven path: every field of uarch.Stats
// must match, not just IPC.
func TestReplayGoldenUarch(t *testing.T) {
	base := uarch.BaseConfig()
	lim := uarch.Limits{Warmup: 50_000, MaxInsts: 150_000}
	for _, name := range goldenWorkloads {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build()
		tr, err := dyntrace.Capture(p, lim.MaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := uarch.RunLimitsContext(context.Background(), p, base, lim)
		if err != nil {
			t.Fatal(err)
		}
		replays, err := uarch.ReplayMultiWorkers(context.Background(), tr, []uarch.Config{base}, lim, 1)
		if err != nil {
			t.Fatal(err)
		}
		replay := replays[0]
		if !reflect.DeepEqual(exec, replay) {
			t.Errorf("%s: replay stats diverge from execution\nexec:   %+v\nreplay: %+v", name, exec, replay)
		}
		if exec.IPC() != replay.IPC() {
			t.Errorf("%s: IPC %v (exec) != %v (replay)", name, exec.IPC(), replay.IPC())
		}
	}
}

// executedMPI is the execution-driven reference for the cache sweep: it
// runs p in the functional simulator for up to maxInsts instructions,
// collects its data-reference addresses from the event stream, and sweeps
// them through cfgs. It shares no code with the trace's packed address
// column.
func executedMPI(p *prog.Program, cfgs []cache.Config, maxInsts uint64) ([]float64, error) {
	var addrs []uint64
	obs := func(ev *funcsim.Event) error {
		if ev.Inst.Op.IsMem() {
			addrs = append(addrs, ev.Addr)
		}
		return nil
	}
	res, err := funcsim.RunProgram(p, funcsim.Limits{MaxInsts: maxInsts}, obs)
	if err != nil {
		return nil, err
	}
	return sweepMPI(context.Background(), addrs, cfgs, res.Insts)
}

// TestReplayGoldenCacheMPI proves the packed-stream cache replay produces
// bit-identical misses-per-instruction across all 28 configurations.
func TestReplayGoldenCacheMPI(t *testing.T) {
	cfgs := cache.Sweep28()
	const maxInsts = 200_000
	for _, name := range goldenWorkloads {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build()
		tr, err := dyntrace.Capture(p, maxInsts)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := executedMPI(p, cfgs, maxInsts)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := CacheMPIFromTrace(tr, cfgs, maxInsts)
		if err != nil {
			t.Fatal(err)
		}
		if len(exec) != len(replay) {
			t.Fatalf("%s: %d vs %d configs", name, len(exec), len(replay))
		}
		for k := range exec {
			if exec[k] != replay[k] {
				t.Errorf("%s cfg %s: MPI %v (exec) != %v (replay)",
					name, cfgs[k], exec[k], replay[k])
			}
		}
	}
}

// TestReplayMultiGolden28 pins the fused timing replay against serial
// replay over the full 28-configuration cache grid mapped onto the base
// pipeline: one decode pass feeding 28 independent Sims must be
// bit-identical, per uarch.Stats field, to 28 separate trace walks. Run
// under `go test -race` in CI this also covers concurrent fused replays
// sharing one trace's decode cache across workloads.
func TestReplayMultiGolden28(t *testing.T) {
	base := uarch.BaseConfig()
	sweep := cache.Sweep28()
	cfgs := make([]uarch.Config, len(sweep))
	for i, cc := range sweep {
		cfgs[i] = base
		cfgs[i].L1D = cc
		cfgs[i].L1D.Name = "L1D"
		cfgs[i].Name = cc.String()
	}
	lim := uarch.Limits{Warmup: 20_000, MaxInsts: 80_000}
	for _, name := range goldenWorkloads {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build()
		tr, err := dyntrace.Capture(p, lim.MaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := uarch.ReplayMultiWorkers(context.Background(), tr, cfgs, lim, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			serial, err := uarch.ReplayMultiWorkers(context.Background(), tr, []uarch.Config{cfg}, lim, 1)
			if err != nil {
				t.Fatalf("%s %s: %v", name, cfg.Name, err)
			}
			if !reflect.DeepEqual(fused[i], serial[0]) {
				t.Errorf("%s %s: fused replay diverges from serial", name, cfg.Name)
			}
		}
		// The parallel walk over the same grid must be bit-identical too:
		// 4 workers stripe the 28 configs (worker w owns configs w, w+4, …)
		// while a producer goroutine decodes each chunk exactly once.
		par, err := uarch.ReplayMultiWorkers(context.Background(), tr, cfgs, lim, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			if !reflect.DeepEqual(par[i], fused[i]) {
				t.Errorf("%s %s: parallel replay diverges from fused", name, cfg.Name)
			}
		}
	}
}

// TestParallelGridRace drives the atomic-counter work pool with more
// workers than items and with the full flattened Table 3 grid; run under
// `go test -race` it checks the pool for data races, and the comparison
// against a serial run checks that results are independent of worker
// count.
func TestParallelGridRace(t *testing.T) {
	opts := smallOpts()
	opts.Parallel = true
	opts.Workers = 8
	pairs, err := Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig4Par, err := Fig4(pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, sumsPar, err := Table3(pairs, opts)
	if err != nil {
		t.Fatal(err)
	}

	serial := opts
	serial.Parallel = false
	fig4Ser, err := Fig4(pairs, serial)
	if err != nil {
		t.Fatal(err)
	}
	_, sumsSer, err := Table3(pairs, serial)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig4Par, fig4Ser) {
		t.Error("Fig4 results depend on worker count")
	}
	if !reflect.DeepEqual(sumsPar, sumsSer) {
		t.Error("Table3 summaries depend on worker count")
	}
}

// TestTraceFallbackMatchesPrepared: a Pair whose traces are missing, or
// too short for a study's window, makes the study capture the stream it
// needs. Its rows must be identical to those from Prepare's traces.
func TestTraceFallbackMatchesPrepared(t *testing.T) {
	opts := smallOpts()
	opts.Workloads = []string{"crc32", "qsort"}
	prepared, err := Prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	bare := make([]*Pair, len(prepared))
	for i, pr := range prepared {
		cp := *pr
		cp.RealTrace, cp.CloneTrace = nil, nil
		bare[i] = &cp
	}
	// The second pair keeps traces that cover neither window.
	for _, tp := range []struct {
		dst **dyntrace.Trace
		p   *prog.Program
	}{{&bare[1].RealTrace, bare[1].Real}, {&bare[1].CloneTrace, bare[1].Clone.Program}} {
		if *tp.dst, err = dyntrace.Capture(tp.p, 10_000); err != nil {
			t.Fatal(err)
		}
	}

	type studies struct {
		Fig4     []Fig4Row
		Fig6and7 []BaseRow
		Table3   []DesignRow
		Summary  []Table3Summary
		Ablation []AblationRow
	}
	run := func(pairs []*Pair) studies {
		var s studies
		var err error
		if s.Fig4, err = Fig4(pairs, opts); err != nil {
			t.Fatal(err)
		}
		if s.Fig6and7, err = Fig6and7(pairs, opts); err != nil {
			t.Fatal(err)
		}
		if s.Table3, s.Summary, err = Table3(pairs, opts); err != nil {
			t.Fatal(err)
		}
		if s.Ablation, err = Ablation(pairs, opts); err != nil {
			t.Fatal(err)
		}
		return s
	}
	want, got := run(prepared), run(bare)
	if !reflect.DeepEqual(got.Fig4, want.Fig4) {
		t.Error("Fig4 rows differ without Prepare's traces")
	}
	if !reflect.DeepEqual(got.Fig6and7, want.Fig6and7) {
		t.Error("Fig6and7 rows differ without Prepare's traces")
	}
	if !reflect.DeepEqual(got.Table3, want.Table3) || !reflect.DeepEqual(got.Summary, want.Summary) {
		t.Error("Table3 rows differ without Prepare's traces")
	}
	if !reflect.DeepEqual(got.Ablation, want.Ablation) {
		t.Error("Ablation rows differ without Prepare's traces")
	}
}
