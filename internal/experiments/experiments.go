// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): Figure 3 (stride coverage), Figures 4 and 5
// (28-configuration cache study), Table 2 (base configuration), Figures 6
// and 7 (base-configuration IPC and power), Table 3 and Figures 8 and 9
// (five design changes), plus the microarchitecture-dependent-baseline
// ablation that motivates the whole technique.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perfclone/internal/cache"
	"perfclone/internal/dyntrace"
	"perfclone/internal/fidelity"
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

// Options configure an experiment run.
type Options struct {
	// Workloads restricts the benchmark set (nil = all 23).
	Workloads []string
	// ProfileInsts bounds profiling (0 = default 1M).
	ProfileInsts uint64
	// TimingWarmup and TimingInsts bound each timing-simulator run
	// (defaults 150k warmup, 500k total).
	TimingWarmup uint64
	TimingInsts  uint64
	// Parallel runs independent simulations on multiple goroutines
	// (default: serial when false).
	Parallel bool
	// Workers caps the worker pool used when Parallel is set
	// (0 = runtime.GOMAXPROCS(0)). Results are deterministic for any
	// worker count; only wall time changes.
	Workers int
	// Store durably caches captured traces and collected profiles, and
	// records finished grid cells as checkpoints (nil = everything stays
	// in memory and every run starts from scratch).
	Store *store.Store
	// Resume reuses checkpointed grid cells from a previous interrupted
	// run instead of recomputing them. Requires Store. Rows restored from
	// a checkpoint are byte-identical to freshly computed ones (pinned by
	// TestResumeByteIdentical).
	Resume bool
	// Progress, when non-nil, receives one Event per finished grid cell
	// and one stage-summary Event (Cell == "") per completed stage.
	// Callbacks are serialized; they may be invoked from worker
	// goroutines.
	Progress func(Event)
	// Log receives degradation warnings — checkpoint rows that could not
	// be reused or persisted on a non-strict store (default os.Stderr).
	Log io.Writer
	// Fidelity gates every figure on clone fidelity: Prepare runs each
	// generated clone through the closed-loop fidelity check (re-profile,
	// compare, bounded deterministic repair). A clone that still fails
	// degrades to the ungated first-attempt clone with a DEGRADED warning
	// on Log — the run completes and the figures stay comparable — unless
	// StrictFidelity aborts instead.
	Fidelity bool
	// StrictFidelity promotes a fidelity failure to a hard error carrying
	// the full per-attribute report. Implies Fidelity.
	StrictFidelity bool
	// FidelityTolerance uniformly scales the default per-attribute
	// tolerances (0 = 1.0; >1 loosens, <1 tightens).
	FidelityTolerance float64
	// StageTimeout bounds each experiment stage's wall clock: a stage
	// that exceeds it aborts with supervise.ErrDeadline as the context
	// cause (cmd/experiments maps that to exit 124) instead of hanging
	// the run. 0 = unbounded.
	StageTimeout time.Duration
	// TaskRetries gives every supervised task — a grid cell, a prepare
	// step — this many extra attempts after a transient failure, a
	// contained panic, or a watchdog kill. Retried attempts recompute
	// from scratch (never from a partial result), so results stay
	// deterministic. 0 = fail on the first error.
	TaskRetries int
	// Watchdog arms the stuck-task watchdog: a running task whose
	// heartbeat — ticked by every hot loop in the pipeline at least once
	// per 64 Ki instructions — stays silent this long is killed with
	// supervise.ErrStuck as the cause and retried under TaskRetries. The
	// quiet period must comfortably exceed one heartbeat interval on the
	// slowest machine in play. 0 = disabled.
	Watchdog time.Duration
	// Supervisor aggregates per-task outcomes (ok / recovered / retried /
	// stuck-killed / failed) across stages. cmd/experiments passes one so
	// its run-summary line spans the whole run; nil gives each stage a
	// private supervisor logging to Log.
	Supervisor *supervise.Supervisor
	// CheckpointPrefix namespaces this run's checkpoint files within the
	// store ("<prefix><stage>.jsonl"). The daemon sets it to the job ID
	// so concurrent jobs sharing one store never interleave checkpoint
	// logs; the CLI leaves it empty.
	CheckpointPrefix string
}

// Event is one progress notification: a finished grid cell, or — with
// Cell empty — a completed stage.
type Event struct {
	// Stage is the checkpoint stage name ("prepare", "fig4", "table3", …).
	Stage string
	// Cell identifies the finished cell ("" for a stage summary).
	Cell string
	// Done and Total count cells finished/planned in this stage.
	Done, Total int
	// Cached reports that the cell was restored from a checkpoint (or,
	// for prepare, that every artifact came from the store).
	Cached bool
	// Elapsed is the cell's compute time, or the stage's wall time for a
	// summary event.
	Elapsed time.Duration
}

func (o Options) withDefaults() Options {
	if len(o.Workloads) == 0 {
		o.Workloads = workloads.Names()
	}
	if o.ProfileInsts == 0 {
		o.ProfileInsts = 1_000_000
	}
	if o.TimingInsts == 0 {
		o.TimingInsts = 500_000
	}
	if o.TimingWarmup == 0 {
		o.TimingWarmup = 150_000
		// A defaulted warmup must not consume the whole timing budget
		// (e.g. -insts 150000): zero timed instructions would make every
		// IPC 0 and every relative error degenerate.
		if o.TimingWarmup >= o.TimingInsts {
			o.TimingWarmup = o.TimingInsts / 4
		}
	}
	if o.Log == nil {
		o.Log = os.Stderr
	}
	return o
}

// Pair is one workload with its profile, synthetic clone, and the
// captured dynamic traces every downstream experiment replays.
type Pair struct {
	Name    string
	Real    *prog.Program
	Profile *profile.Profile
	Clone   *synth.Clone
	// RealTrace and CloneTrace are each program's dynamic instruction
	// stream, executed once in Prepare (with budget traceBudget) and
	// shared read-only by every cache sweep, timing run, and predictor
	// study — the interpreter never re-runs for these programs. A study
	// that finds a trace missing or too short captures its own
	// (traceFor).
	RealTrace  *dyntrace.Trace
	CloneTrace *dyntrace.Trace
}

// traceBudget is the capture length: the largest dynamic-stream prefix
// any experiment consumes (the Figure 4/5 cache sweep uses 2× the timing
// budget; every timing run uses at most 1×).
func traceBudget(opts Options) uint64 { return opts.TimingInsts * 2 }

// traceFor returns a trace covering the first n instructions of p (n = 0:
// the whole run): t itself when it holds the complete run or at least n
// instructions, else a fresh capture. Prepare's traces always cover every
// study's window; a Pair built by hand, or a window larger than Prepare
// captured, gets its stream captured here. Either way the studies read a
// trace, and replaying it is bit-identical to executing p.
func traceFor(ctx context.Context, p *prog.Program, t *dyntrace.Trace, n uint64) (*dyntrace.Trace, error) {
	if t != nil && (t.Halted() || (n > 0 && t.Insts() >= n)) {
		return t, nil
	}
	return dyntrace.CaptureContext(ctx, p, n)
}

// runTimedMulti times a program on every configuration in cfgs as a
// single fused walk of its trace (uarch.ReplayMultiWorkers): the stream
// is decoded once and feeds all pipelines, with the configurations
// striped across workers goroutines (1 = fully serial). The results are
// bit-identical for every worker count, so checkpointed rows from older
// runs stay valid.
func runTimedMulti(ctx context.Context, p *prog.Program, t *dyntrace.Trace, cfgs []uarch.Config, lim uarch.Limits, workers int) ([]uarch.Stats, error) {
	t, err := traceFor(ctx, p, t, lim.MaxInsts)
	if err != nil {
		return nil, err
	}
	return uarch.ReplayMultiWorkers(ctx, t, cfgs, lim, workers)
}

// Prepare profiles each selected workload, generates its clone, and
// captures both programs' dynamic traces for replay.
func Prepare(opts Options) ([]*Pair, error) {
	return PrepareContext(context.Background(), opts)
}

// PrepareContext is Prepare with cancellation and store reuse: when
// opts.Store is set, each workload's profile and both dynamic traces are
// looked up by (name, program hash, budget) before anything executes, and
// captured artifacts are written back, so a later run — or a crashed
// run's successor — loads instead of re-executing. Clone programs are
// regenerated from the (possibly cached) profile: synthesis is cheap and
// deterministic, so the clone's program hash keys its trace stably.
func PrepareContext(ctx context.Context, opts Options) ([]*Pair, error) {
	opts = opts.withDefaults()
	ctx, cancelStage := stageContext(ctx, opts, "prepare")
	defer cancelStage()
	sr, err := newStage(opts, "prepare", len(opts.Workloads))
	if err != nil {
		return nil, err
	}
	defer sr.close()
	pairs := make([]*Pair, len(opts.Workloads))
	err = forEach(ctx, opts, len(opts.Workloads), func(i int) error {
		start := time.Now()
		name := opts.Workloads[i]
		var allCached bool
		err := sr.super.Run(ctx, sr.spec(name), func(tctx context.Context) error {
			pairs[i] = nil // a retried attempt rebuilds the pair from scratch
			allCached = true
			if testCellHook != nil {
				testCellHook(tctx, sr.name, name)
			}
			w, err := workloads.ByName(name)
			if err != nil {
				return err
			}
			p := w.Build()

			var prof *profile.Profile
			var hash string
			if opts.Store != nil {
				hash = store.ProgramHash(p)
				prof, _, err = opts.Store.LoadProfile(name, hash, opts.ProfileInsts)
				if err != nil {
					return err
				}
			}
			if prof == nil {
				allCached = false
				prof, err = profile.CollectContext(tctx, p, profile.Options{MaxInsts: opts.ProfileInsts})
				if err != nil {
					return fmt.Errorf("profile %s: %w", name, err)
				}
				if opts.Store != nil {
					if err := opts.Store.SaveProfile(name, hash, opts.ProfileInsts, prof); err != nil {
						return err
					}
				}
			}
			supervise.Beat(tctx)
			clone, err := generateClone(tctx, prof, opts)
			if err != nil {
				return fmt.Errorf("clone %s: %w", name, err)
			}

			budget := traceBudget(opts)
			capture := func(label string, tp *prog.Program) (*dyntrace.Trace, error) {
				supervise.Beat(tctx)
				if opts.Store != nil {
					t, ok, err := opts.Store.LoadTrace(label, tp, budget)
					if err != nil || ok {
						return t, err
					}
				}
				allCached = false
				t, err := dyntrace.CaptureContext(tctx, tp, budget)
				if err != nil {
					return nil, fmt.Errorf("trace %s: %w", label, err)
				}
				if opts.Store != nil {
					if err := opts.Store.SaveTrace(label, t, budget); err != nil {
						return nil, err
					}
				}
				return t, nil
			}
			rt, err := capture(name, p)
			if err != nil {
				return err
			}
			ct, err := capture(name+"-clone", clone.Program)
			if err != nil {
				return err
			}
			pairs[i] = &Pair{
				Name: name, Real: p, Profile: prof, Clone: clone,
				RealTrace: rt, CloneTrace: ct,
			}
			return nil
		})
		if err != nil {
			return err
		}
		sr.emit(name, allCached && opts.Store != nil, time.Since(start))
		return nil
	})
	return pairs, err
}

// generateClone synthesizes one workload's clone, applying the fidelity
// gate when Options asks for it. Mirroring the store's strict/degraded
// convention: a clone that fails the gate aborts a StrictFidelity run
// with the full report, and otherwise degrades — with a greppable
// DEGRADED warning — to the deterministic ungated clone, so one
// hard-to-fit workload cannot take down a 23-workload figure run.
func generateClone(ctx context.Context, prof *profile.Profile, opts Options) (*synth.Clone, error) {
	if !opts.Fidelity && !opts.StrictFidelity {
		return synth.GenerateContext(ctx, prof, synth.Config{})
	}
	fo := fidelity.Options{}
	if opts.FidelityTolerance > 0 {
		fo.Tol = fidelity.DefaultTolerances().Scale(opts.FidelityTolerance)
	}
	clone, rep, err := fidelity.GenerateContext(ctx, prof, synth.Config{}, fo)
	if err == nil {
		if rep.Attempt > 1 {
			fmt.Fprintf(opts.Log, "experiments: fidelity repaired %s on attempt %d (seed %d)\n",
				prof.Name, rep.Attempt, rep.Seed)
		}
		return clone, nil
	}
	if supervise.Cause(ctx) != nil {
		// A cancelled gate is not a fidelity failure; don't degrade, stop.
		return nil, err
	}
	if opts.StrictFidelity {
		return nil, err
	}
	fmt.Fprintf(opts.Log, "experiments: DEGRADED: %v\nexperiments: using the unvalidated clone of %s\n", err, prof.Name)
	return synth.GenerateContext(ctx, prof, synth.Config{})
}

// EffectiveWorkers reports the run's total worker budget: 1 unless
// Parallel is set, else Options.Workers when positive, else
// runtime.GOMAXPROCS(0). Every layer of parallelism in a run — the
// forEach pool over grid cells and the per-cell fused-replay workers —
// is carved out of this one number.
func (o Options) EffectiveWorkers() int {
	if !o.Parallel {
		return 1
	}
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// WorkerBudget splits the run's total worker budget across a stage's two
// levels of parallelism: outer goroutines iterate the stage's cells
// (workloads) and each cell's fused replay stripes its configurations
// over inner goroutines. Outer parallelism is preferred — whole cells
// are perfectly independent — and inner workers only soak up budget the
// cell count cannot use (e.g. 8 workers × 2 workloads → outer 2,
// inner 4). outer×inner never exceeds the total, so a stage never
// oversubscribes the requested worker count no matter how the grid is
// shaped. Both results are ≥ 1.
func WorkerBudget(opts Options, cells int) (outer, inner int) {
	total := opts.EffectiveWorkers()
	if total <= 1 {
		return 1, 1
	}
	outer = total
	if cells > 0 && outer > cells {
		outer = cells
	}
	inner = total / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// forEach runs fn over [0,n), optionally on a parallel worker pool sized
// by Options.Workers (0 = runtime.GOMAXPROCS(0)). Work is handed out via
// an atomic counter, so a grid whose cells have very different costs —
// e.g. (workload × design change) — stays load-balanced. The first error
// by index wins, matching serial semantics.
//
// Cancelling ctx stops workers from claiming new cells; cells already
// running finish (or abort at their own ctx poll) before forEach returns,
// so a SIGINT drains cleanly and every completed cell has been
// checkpointed. A cancelled run never returns nil: it returns the
// context's cancellation cause (context.Cause), so a stage-deadline or
// watchdog sentinel survives the pool.
func forEach(ctx context.Context, opts Options, n int, fn func(i int) error) error {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if !opts.Parallel || workers <= 1 {
		for i := 0; i < n; i++ {
			if err := supervise.Cause(ctx); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return supervise.Cause(ctx)
}

// stageContext applies Options.StageTimeout to one stage: each stage
// driver derives its own deadline context, so a budget bounds every
// stage individually rather than the whole run. The returned cancel must
// run when the stage ends.
func stageContext(ctx context.Context, opts Options, name string) (context.Context, context.CancelFunc) {
	return supervise.StageContext(ctx, name, opts.StageTimeout)
}

// stageRun tracks one experiment stage: its checkpoint log (when a store
// is configured), its task supervisor, completed-cell count, and wall
// time.
type stageRun struct {
	opts  Options
	name  string
	total int
	cp    *store.Checkpoint
	super *supervise.Supervisor
	start time.Time

	mu   sync.Mutex
	done int
}

// newStage opens the stage's checkpoint (honoring Options.Resume) and
// starts its wall clock. A checkpoint that cannot be opened on a
// non-strict store degrades to running the stage without one: every cell
// recomputes and nothing is recorded, but the run completes.
func newStage(opts Options, name string, total int) (*stageRun, error) {
	sr := &stageRun{opts: opts, name: name, total: total, start: time.Now()}
	sr.super = opts.Supervisor
	if sr.super == nil {
		sr.super = supervise.New(supervise.Options{Log: opts.Log})
	}
	if opts.Store != nil {
		cp, err := opts.Store.OpenCheckpoint(opts.CheckpointPrefix+name, opts.Resume)
		switch {
		case err == nil:
			sr.cp = cp
		case opts.Store.Strict():
			return nil, err
		default:
			fmt.Fprintf(opts.Log, "experiments: DEGRADED: %v; stage %s runs without checkpointing\n", err, name)
		}
	}
	return sr, nil
}

// strict reports whether the run's store demands hard failures instead
// of degradation.
func (sr *stageRun) strict() bool {
	return sr.opts.Store != nil && sr.opts.Store.Strict()
}

// emit records one finished cell and forwards it to Options.Progress.
// The lock also serializes the callback, as Options.Progress promises.
func (sr *stageRun) emit(cell string, cached bool, d time.Duration) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.done++
	if sr.opts.Progress != nil {
		sr.opts.Progress(Event{
			Stage: sr.name, Cell: cell,
			Done: sr.done, Total: sr.total,
			Cached: cached, Elapsed: d,
		})
	}
}

// close flushes the checkpoint and emits the stage-summary event.
func (sr *stageRun) close() {
	if sr.cp != nil {
		sr.cp.Close()
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.opts.Progress != nil {
		sr.opts.Progress(Event{
			Stage: sr.name,
			Done:  sr.done, Total: sr.total,
			Elapsed: time.Since(sr.start),
		})
	}
}

// spec is the supervision contract for one of the stage's cells: task
// names are "stage/cell" (the grain the wedge hook and the STUCK /
// RECOVERED log lines use), with retries and watchdog taken from
// Options.
func (sr *stageRun) spec(cell string) supervise.Spec {
	return supervise.Spec{
		Name:    sr.name + "/" + cell,
		Retries: sr.opts.TaskRetries,
		Quiet:   sr.opts.Watchdog,
	}
}

// testCellHook, when set by a test, runs at the top of every supervised
// cell attempt (stage, cell, and attempt number via
// supervise.AttemptFrom) — the seam for injecting panics and wedges into
// specific cells.
var testCellHook func(ctx context.Context, stage, cell string)

// stageCell runs one grid cell as a supervised task with checkpoint
// reuse: a cell recorded by a previous run is unmarshalled into out
// (byte-identical rows — JSON round-trips float64 exactly); otherwise
// compute fills out under supervision — panic containment, optional
// watchdog, TaskRetries attempts — and the result is marked durable
// before the cell counts as done. Every attempt starts from a zeroed
// out, so a half-filled result from a failed or killed attempt can never
// leak into a retry.
//
// The checkpoint append is deadline-fenced: once the stage context has
// died, the cell returns the cancellation cause without marking, even if
// compute returned success — inner work may have been cut short by a
// cancellation the compute path swallowed, and a valid-CRC checkpoint
// record must always describe a complete cell (an expired run leaves at
// most a torn tail, which the JSONL loader drops).
//
// On a non-strict store both checkpoint directions degrade rather than
// abort: a recorded row that does not unmarshal into T is discarded and
// the cell recomputed, and a row that cannot be persisted is logged as
// DEGRADED and the run continues (the cell would simply recompute after
// a crash). Strict stores turn both into hard errors.
func stageCell[T any](ctx context.Context, sr *stageRun, key string, out *T, compute func(ctx context.Context) error) error {
	start := time.Now()
	if sr.cp != nil {
		if raw, ok := sr.cp.Done(key); ok {
			err := json.Unmarshal(raw, out)
			if err == nil {
				sr.emit(key, true, time.Since(start))
				return nil
			}
			if sr.strict() {
				return fmt.Errorf("experiments: checkpoint %s cell %s: %w", sr.name, key, err)
			}
			fmt.Fprintf(sr.opts.Log, "experiments: checkpoint %s cell %s: unusable row (%v); recomputing\n", sr.name, key, err)
		}
	}
	err := sr.super.Run(ctx, sr.spec(key), func(tctx context.Context) error {
		var zero T // an earlier attempt (or failed unmarshal) may have half-filled out
		*out = zero
		if testCellHook != nil {
			testCellHook(tctx, sr.name, key)
		}
		return compute(tctx)
	})
	if err != nil {
		return err
	}
	if cerr := supervise.Cause(ctx); cerr != nil {
		return cerr
	}
	if sr.cp != nil {
		if err := sr.cp.MarkContext(ctx, key, *out); err != nil {
			if sr.strict() {
				return err
			}
			fmt.Fprintf(sr.opts.Log, "experiments: DEGRADED: %v; cell %s recomputes after a crash\n", err, key)
		}
	}
	sr.emit(key, false, time.Since(start))
	return nil
}

// --- Figure 3 ---

// Fig3Row is one bar of Figure 3.
type Fig3Row struct {
	Workload string
	// Coverage is the fraction of dynamic memory references following
	// their static instruction's single dominant stride.
	Coverage float64
	// UniqueStreams counts distinct stream sources (Section 5.1 relates
	// clone accuracy to this).
	UniqueStreams int
}

// Fig3 reproduces Figure 3.
func Fig3(pairs []*Pair) []Fig3Row {
	out := make([]Fig3Row, 0, len(pairs))
	for _, pr := range pairs {
		out = append(out, Fig3Row{
			Workload:      pr.Name,
			Coverage:      pr.Profile.StrideCoverage(),
			UniqueStreams: pr.Profile.UniqueStreams(),
		})
	}
	return out
}

// --- Figures 4 and 5 ---

// Fig4Row is one workload's cache-tracking result.
type Fig4Row struct {
	Workload string
	// R is Pearson's correlation between real and clone
	// misses-per-instruction across the 27 non-reference configurations,
	// relative to the 256 B direct-mapped reference (Section 5.1).
	R float64
	// RealMPI and CloneMPI are misses-per-instruction for all 28
	// configurations, in cache.Sweep28 order.
	RealMPI  []float64
	CloneMPI []float64
}

// sweepMPI sweeps a reference stream through cfgs and divides each
// configuration's misses by insts.
func sweepMPI(ctx context.Context, addrs []uint64, cfgs []cache.Config, insts uint64) ([]float64, error) {
	misses, err := cache.SweepMisses(ctx, addrs, cfgs)
	if err != nil {
		return nil, err
	}
	mpi := make([]float64, len(cfgs))
	for i, m := range misses {
		mpi[i] = float64(m) / float64(insts)
	}
	return mpi, nil
}

// CacheMPIFromTrace measures misses-per-instruction for every
// configuration in cfgs: it sweeps the packed data-reference stream of
// the trace's first maxInsts instructions (0 = whole trace) through all of
// them at once.
func CacheMPIFromTrace(t *dyntrace.Trace, cfgs []cache.Config, maxInsts uint64) ([]float64, error) {
	return CacheMPIFromTraceContext(context.Background(), t, cfgs, maxInsts)
}

// CacheMPIFromTraceContext is CacheMPIFromTrace with cooperative
// cancellation inside the sweep.
func CacheMPIFromTraceContext(ctx context.Context, t *dyntrace.Trace, cfgs []cache.Config, maxInsts uint64) ([]float64, error) {
	insts := t.Insts()
	if maxInsts > 0 && insts > maxInsts {
		insts = maxInsts
	}
	if insts == 0 {
		return nil, fmt.Errorf("experiments: %s trace has no instructions; misses-per-instruction is undefined", t.Program().Name)
	}
	addrs, _ := t.Mem(insts)
	return sweepMPI(ctx, addrs, cfgs, insts)
}

// Fig4 reproduces Figure 4: per-workload Pearson correlation of real vs
// clone misses-per-instruction deltas across the 28 cache configurations.
func Fig4(pairs []*Pair, opts Options) ([]Fig4Row, error) {
	return Fig4Context(context.Background(), pairs, opts)
}

// Fig4Context is Fig4 with cancellation and per-workload checkpointing
// (stage "fig4", one cell per workload).
func Fig4Context(ctx context.Context, pairs []*Pair, opts Options) ([]Fig4Row, error) {
	opts = opts.withDefaults()
	ctx, cancelStage := stageContext(ctx, opts, "fig4")
	defer cancelStage()
	cfgs := cache.Sweep28()
	sr, err := newStage(opts, "fig4", len(pairs))
	if err != nil {
		return nil, err
	}
	defer sr.close()
	rows := make([]Fig4Row, len(pairs))
	err = forEach(ctx, opts, len(pairs), func(i int) error {
		pr := pairs[i]
		return stageCell(ctx, sr, pr.Name, &rows[i], func(tctx context.Context) error {
			window := traceBudget(opts)
			rt, err := traceFor(tctx, pr.Real, pr.RealTrace, window)
			if err != nil {
				return err
			}
			real, err := CacheMPIFromTraceContext(tctx, rt, cfgs, window)
			if err != nil {
				return err
			}
			ct, err := traceFor(tctx, pr.Clone.Program, pr.CloneTrace, window)
			if err != nil {
				return err
			}
			clone, err := CacheMPIFromTraceContext(tctx, ct, cfgs, window)
			if err != nil {
				return err
			}
			// Relative to the 256 B direct-mapped reference config (index 0).
			relR := make([]float64, 0, len(cfgs)-1)
			relC := make([]float64, 0, len(cfgs)-1)
			for k := 1; k < len(cfgs); k++ {
				relR = append(relR, real[k]-real[0])
				relC = append(relC, clone[k]-clone[0])
			}
			r, err := stats.Pearson(relC, relR)
			if err != nil {
				return fmt.Errorf("%s: %w", pr.Name, err)
			}
			rows[i] = Fig4Row{Workload: pr.Name, R: r, RealMPI: real, CloneMPI: clone}
			return nil
		})
	})
	return rows, err
}

// Fig5Point is one cache configuration's average rank pair (Figure 5).
type Fig5Point struct {
	Config    string
	RealRank  float64
	CloneRank float64
}

// Fig5 reproduces Figure 5 from Fig4's per-workload MPI matrices: each
// configuration's rank (1 = fewest misses), averaged over workloads. Like
// the stats package it errors (rather than dividing by zero into NaN)
// when rows is empty.
func Fig5(rows []Fig4Row) ([]Fig5Point, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("experiments: Fig5 needs at least one Fig4 row; average rank over zero workloads is undefined")
	}
	cfgs := cache.Sweep28()
	n := len(cfgs)
	sumR := make([]float64, n)
	sumC := make([]float64, n)
	for _, row := range rows {
		rr := stats.Rank(row.RealMPI)
		rc := stats.Rank(row.CloneMPI)
		for k := 0; k < n; k++ {
			sumR[k] += rr[k]
			sumC[k] += rc[k]
		}
	}
	out := make([]Fig5Point, n)
	for k := 0; k < n; k++ {
		out[k] = Fig5Point{
			Config:    cfgs[k].Name,
			RealRank:  sumR[k] / float64(len(rows)),
			CloneRank: sumC[k] / float64(len(rows)),
		}
	}
	return out, nil
}

// --- Figures 6 and 7 ---

// BaseRow is one workload's base-configuration comparison.
type BaseRow struct {
	Workload   string
	RealIPC    float64
	CloneIPC   float64
	IPCErr     float64 // |clone-real|/real
	RealPower  float64
	ClonePower float64
	PowerErr   float64
}

// Fig6and7 reproduces Figures 6 and 7: absolute IPC and power of real
// benchmark vs clone on the Table 2 base configuration.
func Fig6and7(pairs []*Pair, opts Options) ([]BaseRow, error) {
	return Fig6and7Context(context.Background(), pairs, opts)
}

// Fig6and7Context is Fig6and7 with cancellation and per-workload
// checkpointing (stage "fig6and7").
func Fig6and7Context(ctx context.Context, pairs []*Pair, opts Options) ([]BaseRow, error) {
	opts = opts.withDefaults()
	ctx, cancelStage := stageContext(ctx, opts, "fig6and7")
	defer cancelStage()
	base := []uarch.Config{uarch.BaseConfig()}
	lim := uarch.Limits{Warmup: opts.TimingWarmup, MaxInsts: opts.TimingInsts}
	sr, err := newStage(opts, "fig6and7", len(pairs))
	if err != nil {
		return nil, err
	}
	defer sr.close()
	rows := make([]BaseRow, len(pairs))
	err = forEach(ctx, opts, len(pairs), func(i int) error {
		pr := pairs[i]
		return stageCell(ctx, sr, pr.Name, &rows[i], func(tctx context.Context) error {
			rs, err := runTimedMulti(tctx, pr.Real, pr.RealTrace, base, lim, 1)
			if err != nil {
				return err
			}
			cs, err := runTimedMulti(tctx, pr.Clone.Program, pr.CloneTrace, base, lim, 1)
			if err != nil {
				return err
			}
			str, sts := rs[0], cs[0]
			realPow := power.Estimate(str).AvgPower
			clonePow := power.Estimate(sts).AvgPower
			ipcErr, err := stats.AbsRelError(sts.IPC(), str.IPC())
			if err != nil {
				return err
			}
			powErr, err := stats.AbsRelError(clonePow, realPow)
			if err != nil {
				return err
			}
			rows[i] = BaseRow{
				Workload:  pr.Name,
				RealIPC:   str.IPC(),
				CloneIPC:  sts.IPC(),
				IPCErr:    ipcErr,
				RealPower: realPow, ClonePower: clonePow, PowerErr: powErr,
			}
			return nil
		})
	})
	return rows, err
}

// --- Table 3, Figures 8 and 9 ---

// DesignRow is one (workload, design change) measurement.
type DesignRow struct {
	Workload string
	Change   string
	// Metrics at the base and changed configuration.
	RealBaseIPC, RealIPC   float64
	CloneBaseIPC, CloneIPC float64
	RealBasePow, RealPow   float64
	CloneBasePow, ClonePow float64
	// RelErrIPC and RelErrPow are the paper's RE_X.
	RelErrIPC float64
	RelErrPow float64
}

// Table3Summary is one Table 3 row: a design change's relative errors
// averaged over workloads.
type Table3Summary struct {
	Change        string
	AvgRelErrIPC  float64
	AvgRelErrPow  float64
	WorstRelErr   float64
	RealSpeedup   float64 // mean real IPC ratio vs base (context)
	CloneSpeedup  float64
	RealPowRatio  float64
	ClonePowRatio float64
}

// table3Base is the baseline measurement for one workload; its fields
// are exported so the cell survives the JSON round trip.
type table3Base struct {
	RealIPC, CloneIPC float64
	RealPow, ClonePow float64
}

// table3Cell is the checkpointed payload for one workload: its baseline
// plus one row per design change. The whole cell is produced by two
// fused replays (real and clone across base + all changes), so it is
// also the natural checkpoint unit — a restored cell skips both walks.
type table3Cell struct {
	Base table3Base
	Rows []DesignRow
}

// Table3 reproduces Table 3 (and provides the Figures 8/9 series via the
// returned per-workload rows for the "double width" change).
func Table3(pairs []*Pair, opts Options) ([]DesignRow, []Table3Summary, error) {
	return Table3Context(context.Background(), pairs, opts)
}

// Table3Context is Table3 with cancellation and checkpointing: one cell
// per workload in stage "table3", each cell holding the baseline and
// every design-change row. A workload's entire sweep (base + all five
// changes, real and clone) runs as two fused replays over its traces —
// the worker pool parallelizes across workloads, not (workload × config)
// cells, so each trace is decoded exactly once per program.
func Table3Context(ctx context.Context, pairs []*Pair, opts Options) ([]DesignRow, []Table3Summary, error) {
	opts = opts.withDefaults()
	ctx, cancelStage := stageContext(ctx, opts, "table3")
	defer cancelStage()
	base := uarch.BaseConfig()
	changes := uarch.DesignChanges()
	lim := uarch.Limits{Warmup: opts.TimingWarmup, MaxInsts: opts.TimingInsts}

	// cfgs[0] is the base; cfgs[1+ci] is design change ci.
	cfgs := make([]uarch.Config, 1+len(changes))
	cfgs[0] = base
	for ci, ch := range changes {
		cfgs[1+ci] = ch.Apply(base)
	}
	sr, err := newStage(opts, "table3", len(pairs))
	if err != nil {
		return nil, nil, err
	}
	defer sr.close()
	cells := make([]table3Cell, len(pairs))
	outer, inner := WorkerBudget(opts, len(pairs))
	fopts := opts
	fopts.Workers = outer
	if err := forEach(ctx, fopts, len(pairs), func(i int) error {
		pr := pairs[i]
		return stageCell(ctx, sr, pr.Name, &cells[i], func(tctx context.Context) error {
			str, err := runTimedMulti(tctx, pr.Real, pr.RealTrace, cfgs, lim, inner)
			if err != nil {
				return err
			}
			sts, err := runTimedMulti(tctx, pr.Clone.Program, pr.CloneTrace, cfgs, lim, inner)
			if err != nil {
				return err
			}
			b := table3Base{
				RealIPC: str[0].IPC(), CloneIPC: sts[0].IPC(),
				RealPow: power.Estimate(str[0]).AvgPower, ClonePow: power.Estimate(sts[0]).AvgPower,
			}
			rows := make([]DesignRow, len(changes))
			for ci, ch := range changes {
				stR, stC := str[1+ci], sts[1+ci]
				realPow := power.Estimate(stR).AvgPower
				clonePow := power.Estimate(stC).AvgPower
				reIPC, err := stats.RelativeError(b.RealIPC, stR.IPC(), b.CloneIPC, stC.IPC())
				if err != nil {
					return err
				}
				rePow, err := stats.RelativeError(b.RealPow, realPow, b.ClonePow, clonePow)
				if err != nil {
					return err
				}
				rows[ci] = DesignRow{
					Workload:     pr.Name,
					Change:       ch.Name,
					RealBaseIPC:  b.RealIPC,
					RealIPC:      stR.IPC(),
					CloneBaseIPC: b.CloneIPC,
					CloneIPC:     stC.IPC(),
					RealBasePow:  b.RealPow,
					RealPow:      realPow,
					CloneBasePow: b.ClonePow,
					ClonePow:     clonePow,
					RelErrIPC:    reIPC,
					RelErrPow:    rePow,
				}
			}
			cells[i] = table3Cell{Base: b, Rows: rows}
			return nil
		})
	}); err != nil {
		return nil, nil, err
	}

	// Reassemble change-major, exactly as the flat grid used to emit:
	// all workloads for change 0, then change 1, and so on.
	var rows []DesignRow
	var summaries []Table3Summary
	for ci, ch := range changes {
		var sIPC, sPow, worst float64
		var rs, cs, rp, cp float64
		for i := range pairs {
			r := cells[i].Rows[ci]
			sIPC += r.RelErrIPC
			sPow += r.RelErrPow
			if r.RelErrIPC > worst {
				worst = r.RelErrIPC
			}
			rs += r.RealIPC / r.RealBaseIPC
			cs += r.CloneIPC / r.CloneBaseIPC
			rp += r.RealPow / r.RealBasePow
			cp += r.ClonePow / r.CloneBasePow
			rows = append(rows, r)
		}
		n := float64(len(pairs))
		summaries = append(summaries, Table3Summary{
			Change:        ch.Name,
			AvgRelErrIPC:  sIPC / n,
			AvgRelErrPow:  sPow / n,
			WorstRelErr:   worst,
			RealSpeedup:   rs / n,
			CloneSpeedup:  cs / n,
			RealPowRatio:  rp / n,
			ClonePowRatio: cp / n,
		})
	}
	return rows, summaries, nil
}

// Fig8and9Rows extracts the Figures 8/9 series (per-workload IPC speedup
// and power increase for the double-width change) from Table 3 rows.
func Fig8and9Rows(rows []DesignRow) []DesignRow {
	var out []DesignRow
	for _, r := range rows {
		if r.Change == "double width" {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Workload < out[j].Workload })
	return out
}
