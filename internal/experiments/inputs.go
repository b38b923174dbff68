package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/stats"
	"perfclone/internal/synth"
	"perfclone/internal/uarch"
	"perfclone/internal/workloads"
)

// InputRow quantifies input-set assimilation for one kernel: a clone
// generated from the small input compared against the real program on the
// small and on the large input. The paper (Section 3.2) notes "one can
// think of the input set being assimilated into the synthetic benchmark
// clone" — so the small-input clone should match the small-input run and
// may drift from the large-input run when the input changes behaviour.
type InputRow struct {
	Workload string
	// IPC of the real program on each input and of the small-input
	// clone.
	RealSmallIPC float64
	RealLargeIPC float64
	CloneIPC     float64
	// ErrVsSmall and ErrVsLarge are the clone's absolute relative errors
	// against each input's real run.
	ErrVsSmall float64
	ErrVsLarge float64
	// LargeCloneErr is a large-input clone's error against the
	// large-input run (re-profiling restores fidelity).
	LargeCloneErr float64
}

// InputSensitivity runs the assimilation study over every kernel that has
// a large-input variant.
func InputSensitivity(opts Options) ([]InputRow, error) {
	return InputSensitivityContext(context.Background(), opts)
}

// InputSensitivityContext is InputSensitivity with cancellation and
// per-kernel checkpointing (stage "inputs").
func InputSensitivityContext(ctx context.Context, opts Options) ([]InputRow, error) {
	opts = opts.withDefaults()
	ctx, cancelStage := stageContext(ctx, opts, "inputs")
	defer cancelStage()
	base := []uarch.Config{uarch.BaseConfig()}
	lim := uarch.Limits{Warmup: opts.TimingWarmup, MaxInsts: opts.TimingInsts}
	variants := workloads.Large()
	sr, err := newStage(opts, "inputs", len(variants))
	if err != nil {
		return nil, err
	}
	defer sr.close()
	rows := make([]InputRow, len(variants))
	err = forEach(ctx, opts, len(variants), func(i int) error {
		large := variants[i]
		smallName := strings.TrimSuffix(large.Name, "-large")
		return stageCell(ctx, sr, smallName, &rows[i], func(tctx context.Context) error {
			small, err := workloads.ByName(smallName)
			if err != nil {
				return err
			}
			smallProg := small.Build()
			largeProg := large.Build()

			smallProf, err := profile.CollectContext(tctx, smallProg, profile.Options{MaxInsts: opts.ProfileInsts})
			if err != nil {
				return err
			}
			largeProf, err := profile.CollectContext(tctx, largeProg, profile.Options{MaxInsts: opts.ProfileInsts})
			if err != nil {
				return err
			}
			smallClone, err := synth.GenerateContext(tctx, smallProf, synth.Config{})
			if err != nil {
				return err
			}
			largeClone, err := synth.GenerateContext(tctx, largeProf, synth.Config{})
			if err != nil {
				return err
			}

			// None of these four programs has a captured trace, so each
			// timing run captures its own (runTimedMulti via traceFor).
			var sts [4]uarch.Stats
			for k, p := range []*prog.Program{smallProg, largeProg, smallClone.Program, largeClone.Program} {
				st, err := runTimedMulti(tctx, p, nil, base, lim, 1)
				if err != nil {
					return err
				}
				sts[k] = st[0]
			}
			rs, rl, cs, cl := sts[0], sts[1], sts[2], sts[3]

			evs, err := stats.AbsRelError(cs.IPC(), rs.IPC())
			if err != nil {
				return err
			}
			evl, err := stats.AbsRelError(cs.IPC(), rl.IPC())
			if err != nil {
				return err
			}
			lce, err := stats.AbsRelError(cl.IPC(), rl.IPC())
			if err != nil {
				return err
			}
			rows[i] = InputRow{
				Workload:      smallName,
				RealSmallIPC:  rs.IPC(),
				RealLargeIPC:  rl.IPC(),
				CloneIPC:      cs.IPC(),
				ErrVsSmall:    evs,
				ErrVsLarge:    evl,
				LargeCloneErr: lce,
			}
			return nil
		})
	})
	return rows, err
}

// PrintInputSensitivity renders the assimilation study.
func PrintInputSensitivity(w io.Writer, rows []InputRow) {
	fmt.Fprintln(w, "Extension — input-set assimilation (clone generated from the small input)")
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %10s %12s\n",
		"kernel", "real-sm", "real-lg", "clone-sm", "err-vs-sm", "err-vs-lg", "lg-clone-err")
	var vs, vl, lc []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10.3f %10.3f %10.3f %9.1f%% %9.1f%% %11.1f%%\n",
			r.Workload, r.RealSmallIPC, r.RealLargeIPC, r.CloneIPC,
			100*r.ErrVsSmall, 100*r.ErrVsLarge, 100*r.LargeCloneErr)
		vs = append(vs, r.ErrVsSmall)
		vl = append(vl, r.ErrVsLarge)
		lc = append(lc, r.LargeCloneErr)
	}
	fmt.Fprintf(w, "%-10s %32s %9.1f%% %9.1f%% %11.1f%%\n", "average", "",
		100*stats.Mean(vs), 100*stats.Mean(vl), 100*stats.Mean(lc))
	fmt.Fprintln(w, "(Section 3.2's assimilation property: a clone tracks the input it was")
	fmt.Fprintln(w, " profiled with, so its error against the other input grows; note that")
	fmt.Fprintln(w, " larger working sets are also intrinsically harder to clone)")
}
