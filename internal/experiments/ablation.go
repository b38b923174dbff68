package experiments

import (
	"context"

	"perfclone/internal/baseline"
	"perfclone/internal/bpred"
	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/stats"
	"perfclone/internal/supervise"
	"perfclone/internal/synth"
)

// AblationRow compares the microarchitecture-independent clone against
// the microarchitecture-dependent baseline clone for one workload.
type AblationRow struct {
	Workload string
	// Cache-tracking correlation across the 28 configurations
	// (Figure 4's metric) for each clone.
	CloneR    float64
	BaselineR float64
	// Misprediction-rate tracking across predictors: mean absolute
	// error vs the real program.
	CloneMispredMAE    float64
	BaselineMispredMAE float64
	// At the training point both clones should match; this shows the
	// baseline is not simply broken.
	TrainMissReal     float64
	TrainMissBaseline float64
}

// ablationPredictors are the predictor sweep of the ablation.
var ablationPredictors = []string{"gap", "bimodal", "gshare", "not-taken", "taken"}

// mispredFromTrace is a program's misprediction rate under one predictor
// over the first maxInsts instructions of its trace: it walks the
// static-id column and taken bitset directly, so a predictor sweep costs
// no interpretation at all.
func mispredFromTrace(t *dyntrace.Trace, predName string, maxInsts uint64) (float64, error) {
	pred, err := bpred.ByName(predName)
	if err != nil {
		return 0, err
	}
	n := t.Insts()
	if maxInsts > 0 && n > maxInsts {
		n = maxInsts
	}
	statics := t.Statics()
	sids := t.SIDs()
	takenBits := t.TakenBits()
	var look, miss uint64
	for i := uint64(0); i < n; i++ {
		st := &statics[sids[i]]
		if !st.Branch {
			continue
		}
		taken := takenBits[i>>6]>>(i&63)&1 == 1
		look++
		if pred.Predict(st.PC) != taken {
			miss++
		}
		pred.Update(st.PC, taken)
	}
	if look == 0 {
		return 0, nil
	}
	return float64(miss) / float64(look), nil
}

// Ablation runs the baseline-vs-clone comparison for each pair. The
// baseline clone is trained on the base configuration's L1D and
// predictor; both clones are then swept across the 28 cache
// configurations and the predictor set.
func Ablation(pairs []*Pair, opts Options) ([]AblationRow, error) {
	return AblationContext(context.Background(), pairs, opts)
}

// AblationContext is Ablation with cancellation and per-workload
// checkpointing (stage "ablation").
func AblationContext(ctx context.Context, pairs []*Pair, opts Options) ([]AblationRow, error) {
	opts = opts.withDefaults()
	ctx, cancelStage := stageContext(ctx, opts, "ablation")
	defer cancelStage()
	train := baseline.TrainingConfig{
		Cache:     cache.Config{Size: 16 << 10, Assoc: 2, LineSize: 32},
		Predictor: "gap",
		MaxInsts:  opts.TimingInsts,
	}
	cfgs := cache.Sweep28()
	sr, err := newStage(opts, "ablation", len(pairs))
	if err != nil {
		return nil, err
	}
	defer sr.close()
	rows := make([]AblationRow, len(pairs))
	err = forEach(ctx, opts, len(pairs), func(i int) error {
		pr := pairs[i]
		return stageCell(ctx, sr, pr.Name, &rows[i], func(tctx context.Context) error {
			bl, targets, err := baseline.Generate(pr.Real, pr.Profile, train, synth.Config{})
			if err != nil {
				return err
			}
			// The baseline clone is generated here, so its trace is captured
			// here too — once, then shared by the cache sweep, the predictor
			// sweep, and the training-point check below.
			window := traceBudget(opts)
			blTrace, err := dyntrace.CaptureContext(tctx, bl.Program, window)
			if err != nil {
				return err
			}
			realTrace, err := traceFor(tctx, pr.Real, pr.RealTrace, window)
			if err != nil {
				return err
			}
			cloneTrace, err := traceFor(tctx, pr.Clone.Program, pr.CloneTrace, window)
			if err != nil {
				return err
			}
			realMPI, err := CacheMPIFromTraceContext(tctx, realTrace, cfgs, window)
			if err != nil {
				return err
			}
			cloneMPI, err := CacheMPIFromTraceContext(tctx, cloneTrace, cfgs, window)
			if err != nil {
				return err
			}
			blMPI, err := CacheMPIFromTraceContext(tctx, blTrace, cfgs, window)
			if err != nil {
				return err
			}
			rel := func(v []float64) []float64 {
				out := make([]float64, len(v)-1)
				for k := 1; k < len(v); k++ {
					out[k-1] = v[k] - v[0]
				}
				return out
			}
			// Zero variance (a clone whose miss behaviour does not change
			// across configurations at all) counts as zero correlation —
			// that *is* the failure mode being measured.
			cloneR, err := stats.Pearson(rel(cloneMPI), rel(realMPI))
			if err != nil {
				cloneR = 0
			}
			blR, err := stats.Pearson(rel(blMPI), rel(realMPI))
			if err != nil {
				blR = 0
			}

			var cloneMAE, blMAE float64
			for _, pn := range ablationPredictors {
				if err := supervise.Cause(tctx); err != nil {
					return err
				}
				supervise.Beat(tctx)
				realM, err := mispredFromTrace(realTrace, pn, opts.TimingInsts)
				if err != nil {
					return err
				}
				cloneM, err := mispredFromTrace(cloneTrace, pn, opts.TimingInsts)
				if err != nil {
					return err
				}
				blM, err := mispredFromTrace(blTrace, pn, opts.TimingInsts)
				if err != nil {
					return err
				}
				cloneMAE += absF(cloneM - realM)
				blMAE += absF(blM - realM)
			}
			n := float64(len(ablationPredictors))

			blTrainMiss, err := missRateFromTrace(tctx, blTrace, train.Cache, opts.TimingInsts)
			if err != nil {
				return err
			}
			rows[i] = AblationRow{
				Workload:           pr.Name,
				CloneR:             cloneR,
				BaselineR:          blR,
				CloneMispredMAE:    cloneMAE / n,
				BaselineMispredMAE: blMAE / n,
				TrainMissReal:      targets.MissRate,
				TrainMissBaseline:  blTrainMiss,
			}
			return nil
		})
	})
	return rows, err
}

// missRateFromTrace is a program's miss rate on one cache config over
// the packed reference stream of its trace's first maxInsts instructions.
func missRateFromTrace(ctx context.Context, t *dyntrace.Trace, cfg cache.Config, maxInsts uint64) (float64, error) {
	addrs, _ := t.Mem(maxInsts)
	misses, err := cache.SweepMisses(ctx, addrs, []cache.Config{cfg})
	if err != nil {
		return 0, err
	}
	return cache.Stats{Accesses: uint64(len(addrs)), Misses: misses[0]}.MissRate(), nil
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
