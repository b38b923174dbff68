package main

// paper-figures: the in-process equivalent of
// `experiments -run all -store <fresh empty dir>` on all 23 kernels with
// the default budgets. Its synthesis seed is fixed by the paper's
// configuration, so --seed does not change its inputs.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"perfclone/internal/baseline"
	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/experiments"
	"perfclone/internal/power"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/stats"
	"perfclone/internal/store"
	"perfclone/internal/supervise"
	"perfclone/internal/synth"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// The experiments package's defaults, restated for the traced walk.
const (
	profileInsts = 1_000_000
	timingWarmup = 150_000
	timingInsts  = 500_000
	traceBudget  = 2 * timingInsts // Fig4 sweeps 2x the timing budget
)

// stageNames are the public stage calls of one paper-figures pass.
var stageNames = []string{"prepare", "fig4", "fig6and7", "table3", "ablation"}

// paperRun holds one pass's figure rows, for the traced walk to match.
type paperRun struct {
	fig4  []experiments.Fig4Row
	base  []experiments.BaseRow
	rows  []experiments.DesignRow
	sums  []experiments.Table3Summary
	ablat []experiments.AblationRow
}

// paperReference is the first untraced pass of the run.
var paperReference *paperRun

func setupPaper(b *bench) (func(*tracer) error, func() error, error) {
	// Prepare builds the programs again inside the pass; building them
	// here too gives set-up the CPU-bound program builds it shares with
	// clone-validate, where a fresh store alone is a few file-system
	// calls whose timing says more about the disk than the program.
	if _, err := buildPrograms(); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(b.dir, "store-")
	if err != nil {
		return nil, nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	b.raw["inputs"] = "fixed by the paper's configuration (synthesis seed 1); --seed is not used"
	pass := func(tr *tracer) error {
		if tr != nil {
			return paperWalk(b, tr, st)
		}
		return paperPass(b, st)
	}
	return pass, func() error { return os.RemoveAll(dir) }, nil
}

// paperPass runs the five public stage calls, parallel over nproc workers.
func paperPass(b *bench, st *store.Store) error {
	ctx := context.Background()
	super := supervise.New(supervise.Options{Log: os.Stderr})
	var cells []time.Duration
	opts := experiments.Options{
		Parallel: true, Workers: b.workers, Store: st, Supervisor: super,
		Progress: func(ev experiments.Event) {
			if ev.Cell != "" {
				cells = append(cells, ev.Elapsed) // callbacks are serialized
			}
		},
	}
	var r paperRun
	var pairs []*experiments.Pair
	stage := func(i int, fn func() error) error {
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", stageNames[i], err)
		}
		b.set("experiments."+stageNames[i]+"_s", time.Since(start).Seconds())
		return nil
	}
	start := time.Now()
	err := stage(0, func() (err error) { pairs, err = experiments.PrepareContext(ctx, opts); return })
	if err == nil {
		err = stage(1, func() (err error) { r.fig4, err = experiments.Fig4Context(ctx, pairs, opts); return })
	}
	if err == nil {
		err = stage(2, func() (err error) { r.base, err = experiments.Fig6and7Context(ctx, pairs, opts); return })
	}
	if err == nil {
		err = stage(3, func() (err error) { r.rows, r.sums, err = experiments.Table3Context(ctx, pairs, opts); return })
	}
	if err == nil {
		err = stage(4, func() (err error) { r.ablat, err = experiments.AblationContext(ctx, pairs, opts); return })
	}
	wall := time.Since(start)
	if err != nil {
		return err
	}
	c := super.Counts()
	planned := len(stageNames) * len(workloads.Names())
	b.check(len(cells) == planned, "paper-figures finished %d of %d cells", len(cells), planned)
	for i := 0; i < planned; i++ {
		if i < int(c.Failed) {
			b.tally.fail()
		} else {
			b.tally.ok()
		}
	}
	b.opLat = append(b.opLat, cells...)
	b.set("supervise.retried", float64(c.Retried))

	checkPaperRows(b, pairs, &r)
	// Timing-model instructions walked: every program's window under
	// the base config (Fig6) and the base plus five design changes (Table3).
	var walked float64
	for _, pr := range pairs {
		for _, t := range []*dyntrace.Trace{pr.RealTrace, pr.CloneTrace} {
			walked += float64(min(t.Insts(), timingInsts)) * float64(1+1+len(uarch.DesignChanges()))
		}
	}
	b.set("sim_minst_per_s", walked/1e6/wall.Seconds())
	b.raw["sim_insts_walked"] = walked
	fmt.Fprintf(os.Stderr, "perfbench: paper-figures simulated %.0f timing-model instructions in %.3f s\n", walked, wall.Seconds())

	// Simulated-time accuracy, clone vs original under the same model.
	var r4, ipc, pow, dIPC, dPow []float64
	for _, row := range r.fig4 {
		r4 = append(r4, row.R)
	}
	for _, row := range r.base {
		ipc = append(ipc, row.IPCErr)
		pow = append(pow, row.PowerErr)
	}
	for _, s := range r.sums {
		dIPC = append(dIPC, s.AvgRelErrIPC)
		dPow = append(dPow, s.AvgRelErrPow)
	}
	b.set("clone_cache_r", stats.Mean(r4))
	b.set("clone_ipc_err_pct", 100*stats.Mean(ipc))
	b.set("clone_power_err_pct", 100*stats.Mean(pow))
	b.set("design_ipc_relerr_pct", 100*stats.Mean(dIPC))
	b.set("design_power_relerr_pct", 100*stats.Mean(dPow))

	sc := st.Counters()
	if lookups := sc.TraceHits + sc.TraceMisses + sc.ProfileHits + sc.ProfileMisses; lookups > 0 {
		b.set("store.hit_ratio", float64(sc.TraceHits+sc.ProfileHits)/float64(lookups))
	}
	b.set("store.quarantined", float64(sc.Quarantined))

	if paperReference == nil {
		paperReference = &r
	} else {
		b.check(reflect.DeepEqual(*paperReference, r), "paper-figures rows differ between passes of one run")
	}
	return nil
}

// checkPaperRows requires complete, finite rows for every kernel.
func checkPaperRows(b *bench, pairs []*experiments.Pair, r *paperRun) {
	n := len(workloads.Names())
	b.check(len(pairs) == n, "prepare returned %d pairs, want %d", len(pairs), n)
	b.check(len(r.fig4) == n && len(r.base) == n && len(r.ablat) == n,
		"figure rows incomplete: fig4 %d, fig6and7 %d, ablation %d, want %d", len(r.fig4), len(r.base), len(r.ablat), n)
	changes := len(uarch.DesignChanges())
	b.check(len(r.rows) == n*changes && len(r.sums) == changes,
		"table3 has %d rows and %d summaries, want %d and %d", len(r.rows), len(r.sums), n*changes, changes)
	for _, row := range r.fig4 {
		b.check(len(row.RealMPI) == 28 && len(row.CloneMPI) == 28, "fig4 %s: MPI vectors of %d and %d configs", row.Workload, len(row.RealMPI), len(row.CloneMPI))
		b.check(finite(append(append([]float64{row.R}, row.RealMPI...), row.CloneMPI...)...), "fig4 %s: non-finite value", row.Workload)
	}
	for _, row := range r.base {
		b.check(finite(row.RealIPC, row.CloneIPC, row.IPCErr, row.RealPower, row.ClonePower, row.PowerErr) && row.RealIPC > 0,
			"fig6and7 %s: bad row %+v", row.Workload, row)
	}
	for _, row := range r.rows {
		b.check(finite(row.RealIPC, row.CloneIPC, row.RealPow, row.ClonePow, row.RelErrIPC, row.RelErrPow),
			"table3 %s/%s: non-finite value", row.Workload, row.Change)
	}
	for _, row := range r.ablat {
		b.check(finite(row.CloneR, row.BaselineR, row.CloneMispredMAE, row.BaselineMispredMAE, row.TrainMissReal, row.TrainMissBaseline),
			"ablation %s: non-finite value", row.Workload)
	}
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// paperWalk rebuilds prepare, fig4, fig6and7 and table3 from public
// layer calls, one kernel at a time on one goroutine, with a span around
// each call, and requires the same rows as the untraced pass. Ablation's
// predictor sweep is private, so it is spanned as one call per kernel.
func paperWalk(b *bench, tr *tracer, st *store.Store) error {
	ctx := context.Background()
	base := uarch.BaseConfig()
	cfgs := []uarch.Config{base}
	for _, ch := range uarch.DesignChanges() {
		cfgs = append(cfgs, ch.Apply(base))
	}
	lim := uarch.Limits{Warmup: timingWarmup, MaxInsts: timingInsts}
	sweep := cache.Sweep28()
	// The ablation stage's training point, restated to time baseline
	// generation on its own.
	train := baseline.TrainingConfig{
		Cache:     cache.Config{Size: 16 << 10, Assoc: 2, LineSize: 32},
		Predictor: "gap", MaxInsts: timingInsts,
	}
	var w paperRun
	var profInsts, capInsts, cacheAcc, cacheMiss, walked float64
	var sim uarch.Stats
	var tracedBytes float64

	for _, name := range workloads.Names() {
		root := tr.begin("kernel", name, 0)
		span := func(layer string, fn func() error) error {
			if err := tr.do(layer, name, root, fn); err != nil {
				return fmt.Errorf("%s %s: %w", layer, name, err)
			}
			return nil
		}
		var (
			p         *prog.Program
			prof      *profile.Profile
			clone     *synth.Clone
			rt, ct    *dyntrace.Trace
			realMPI   []float64
			cloneMPI  []float64
			str, sts  []uarch.Stats
			ablations []experiments.AblationRow
		)
		wl, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		err = span("workloads.build", func() error { p = wl.Build(); return nil })
		if err == nil {
			err = span("profile.collect", func() (err error) {
				prof, err = profile.CollectContext(ctx, p, profile.Options{MaxInsts: profileInsts})
				return
			})
		}
		if err == nil {
			err = span("store.save", func() error { return st.SaveProfile(name, store.ProgramHash(p), profileInsts, prof) })
		}
		if err == nil {
			err = span("synth.generate", func() (err error) { clone, err = synth.GenerateContext(ctx, prof, synth.Config{}); return })
		}
		capture := func(label string, pp *prog.Program, out **dyntrace.Trace) error {
			err := span("dyntrace.capture", func() (err error) { *out, err = dyntrace.CaptureContext(ctx, pp, traceBudget); return })
			if err != nil {
				return err
			}
			capInsts += float64((*out).Insts())
			return span("store.save", func() error { return st.SaveTrace(label, *out, traceBudget) })
		}
		if err == nil {
			err = capture(name, p, &rt)
		}
		if err == nil {
			err = capture(name+"-clone", clone.Program, &ct)
		}
		if err != nil {
			return err
		}
		profInsts += float64(prof.TotalInsts)
		pair := &experiments.Pair{Name: name, Real: p, Profile: prof, Clone: clone, RealTrace: rt, CloneTrace: ct}

		// Figure 4: both 28-config sweeps, then the correlation.
		sweepOne := func(t *dyntrace.Trace, out *[]float64) error {
			return span("cache.sweep", func() (err error) {
				*out, err = experiments.CacheMPIFromTraceContext(ctx, t, sweep, traceBudget)
				n := min(t.Insts(), traceBudget)
				addrs, _ := t.Mem(n)
				cacheAcc += float64(len(addrs) * len(sweep))
				for _, mpi := range *out {
					cacheMiss += math.Round(mpi * float64(n))
				}
				return
			})
		}
		if err := sweepOne(rt, &realMPI); err != nil {
			return err
		}
		if err := sweepOne(ct, &cloneMPI); err != nil {
			return err
		}
		relR := make([]float64, 0, len(sweep)-1)
		relC := make([]float64, 0, len(sweep)-1)
		for k := 1; k < len(sweep); k++ {
			relR = append(relR, realMPI[k]-realMPI[0])
			relC = append(relC, cloneMPI[k]-cloneMPI[0])
		}
		r, err := stats.Pearson(relC, relR)
		if err != nil {
			return fmt.Errorf("fig4 %s: %w", name, err)
		}
		w.fig4 = append(w.fig4, experiments.Fig4Row{Workload: name, R: r, RealMPI: realMPI, CloneMPI: cloneMPI})

		// Figures 6/7 and Table 3: one fused replay per program over the
		// base config plus the five design changes.
		replay := func(t *dyntrace.Trace, out *[]uarch.Stats) error {
			return span("uarch.replay", func() (err error) {
				*out, err = uarch.ReplayMultiWorkers(ctx, t, cfgs, lim, 1)
				walked += float64(min(t.Insts(), timingInsts) * uint64(len(cfgs)))
				return
			})
		}
		if err := replay(rt, &str); err != nil {
			return err
		}
		if err := replay(ct, &sts); err != nil {
			return err
		}
		for _, s := range append(append([]uarch.Stats(nil), str...), sts...) {
			sim.Insts += s.Insts
			sim.Cycles += s.Cycles
			sim.L1D.Misses += s.L1D.Misses
			sim.L2.Misses += s.L2.Misses
			sim.ROBOccupancy += s.ROBOccupancy
			sim.BranchLookups += s.BranchLookups
			sim.BranchMispredict += s.BranchMispredict
		}
		var realPow, clonePow []float64
		_ = span("power.estimate", func() error {
			for i := range cfgs {
				realPow = append(realPow, power.Estimate(str[i]).AvgPower)
				clonePow = append(clonePow, power.Estimate(sts[i]).AvgPower)
			}
			return nil
		})
		ipcErr, err1 := stats.AbsRelError(sts[0].IPC(), str[0].IPC())
		powErr, err2 := stats.AbsRelError(clonePow[0], realPow[0])
		if err := firstErr(err1, err2); err != nil {
			return fmt.Errorf("fig6and7 %s: %w", name, err)
		}
		w.base = append(w.base, experiments.BaseRow{
			Workload: name, RealIPC: str[0].IPC(), CloneIPC: sts[0].IPC(), IPCErr: ipcErr,
			RealPower: realPow[0], ClonePower: clonePow[0], PowerErr: powErr,
		})
		for ci, ch := range uarch.DesignChanges() {
			reIPC, err1 := stats.RelativeError(str[0].IPC(), str[1+ci].IPC(), sts[0].IPC(), sts[1+ci].IPC())
			rePow, err2 := stats.RelativeError(realPow[0], realPow[1+ci], clonePow[0], clonePow[1+ci])
			if err := firstErr(err1, err2); err != nil {
				return fmt.Errorf("table3 %s: %w", name, err)
			}
			w.rows = append(w.rows, experiments.DesignRow{
				Workload: name, Change: ch.Name,
				RealBaseIPC: str[0].IPC(), RealIPC: str[1+ci].IPC(),
				CloneBaseIPC: sts[0].IPC(), CloneIPC: sts[1+ci].IPC(),
				RealBasePow: realPow[0], RealPow: realPow[1+ci],
				CloneBasePow: clonePow[0], ClonePow: clonePow[1+ci],
				RelErrIPC: reIPC, RelErrPow: rePow,
			})
		}

		if err := span("baseline.generate", func() error {
			_, _, err := baseline.Generate(p, prof, train, synth.Config{})
			return err
		}); err != nil {
			return err
		}
		if err := span("experiments.ablation", func() (err error) {
			ablations, err = experiments.AblationContext(ctx, []*experiments.Pair{pair}, experiments.Options{Log: os.Stderr})
			return
		}); err != nil {
			return err
		}
		w.ablat = append(w.ablat, ablations...)
		for _, t := range []*dyntrace.Trace{rt, ct} {
			_ = t.Close()
		}
		tr.end(root)
	}

	// Bit-equality with the untraced pass. Table 3 is compared row by
	// row; its summaries are means of those rows.
	ref := paperReference
	b.check(ref != nil, "traced walk ran before any untraced pass")
	if ref != nil {
		b.check(reflect.DeepEqual(ref.fig4, w.fig4), "traced walk: Fig4 rows differ from the untraced pass")
		b.check(reflect.DeepEqual(ref.base, w.base), "traced walk: Fig6/7 rows differ from the untraced pass")
		b.check(reflect.DeepEqual(sortedRows(ref.rows), w.rows), "traced walk: Table3 rows differ from the untraced pass")
		b.check(reflect.DeepEqual(ref.ablat, w.ablat), "traced walk: ablation rows differ from the untraced pass")
	}

	err := filepath.WalkDir(filepath.Join(st.Dir(), "traces"), func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			tracedBytes += float64(info.Size())
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("sizing stored traces: %w", err)
	}
	self := selfTimes(tr.snapshot())
	secs := func(layer string) float64 { return self[layer].Seconds() }
	b.set("trace.workers", 1)
	b.set("profile.collect_s", secs("profile.collect"))
	b.set("profile.minst_per_s", profInsts/1e6/secs("profile.collect"))
	b.set("synth.generate_s", secs("synth.generate"))
	b.set("dyntrace.capture_s", secs("dyntrace.capture"))
	b.set("dyntrace.capture_minst_per_s", capInsts/1e6/secs("dyntrace.capture"))
	b.set("dyntrace.bytes_per_inst", tracedBytes/capInsts)
	b.set("store.save_s", secs("store.save"))
	b.set("cache.sweep_s", secs("cache.sweep"))
	b.set("cache.maccess_per_s", cacheAcc/1e6/secs("cache.sweep"))
	b.set("cache.accesses", cacheAcc)
	b.set("cache.misses", cacheMiss)
	b.set("uarch.replay_s", secs("uarch.replay"))
	b.set("uarch.minst_per_s", walked/1e6/secs("uarch.replay"))
	b.set("uarch.sim_insts", float64(sim.Insts))
	b.set("uarch.sim_cycles", float64(sim.Cycles))
	b.set("uarch.l1d_misses", float64(sim.L1D.Misses))
	b.set("uarch.l2_misses", float64(sim.L2.Misses))
	b.set("uarch.rob_occupancy", float64(sim.ROBOccupancy))
	b.set("bpred.lookups", float64(sim.BranchLookups))
	b.set("bpred.mispredicts", float64(sim.BranchMispredict))
	b.set("power.estimate_s", secs("power.estimate"))
	b.set("baseline.generate_s", secs("baseline.generate"))
	b.set("workloads.build_s", secs("workloads.build"))
	return nil
}

// sortedRows reorders Table3's change-major rows kernel-major, the order
// the walk produces them in.
func sortedRows(rows []experiments.DesignRow) []experiments.DesignRow {
	byKernel := map[string][]experiments.DesignRow{}
	for _, r := range rows {
		byKernel[r.Workload] = append(byKernel[r.Workload], r)
	}
	var out []experiments.DesignRow
	for _, name := range workloads.Names() {
		out = append(out, byKernel[name]...)
	}
	return out
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
