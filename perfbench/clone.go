package main

// clone-validate: the vendor's path with no timing model. Each kernel is
// profiled once; then, for each of cloneSeeds synthesis seeds derived
// from --seed, a clone is generated through the fidelity gate and emitted
// as C. The gate's tolerances were calibrated at seed 1, so other seeds
// are inputs held back from that tuning.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"perfclone/internal/codegen"
	"perfclone/internal/fidelity"
	"perfclone/internal/funcsim"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// cloneSeeds per kernel: 23 kernels x 5 = 115 clones a pass, enough for
// a p90 with ten samples beyond it.
const cloneSeeds = 5

// haltBudget bounds the halting check; clones are sized to the profiled
// run, at most 2M instructions.
const haltBudget = 20_000_000

type cloneOut struct {
	kernel   string
	seed     uint64
	program  *prog.Program
	src      [sha256.Size]byte
	attempts int
}

// cloneReference is the first untraced pass's clones, checked once and
// then matched by every later pass.
var cloneReference []cloneOut

// buildPrograms builds and validates the 23 kernel programs.
func buildPrograms() ([]*prog.Program, error) {
	var progs []*prog.Program
	for _, w := range workloads.All() {
		p := w.Build()
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		progs = append(progs, p)
	}
	return progs, nil
}

func setupClone(b *bench) (func(*tracer) error, func() error, error) {
	progs, err := buildPrograms()
	if err != nil {
		return nil, nil, err
	}
	seeds := make([]uint64, cloneSeeds)
	for i := range seeds {
		seeds[i] = splitmix64(b.seed*cloneSeeds + uint64(i))
	}
	pass := func(tr *tracer) error { return clonePass(b, tr, progs, seeds) }
	return pass, func() error { return nil }, nil
}

// clonePass runs every kernel on one goroutine, as the vendor's
// clonegen does. An untraced pass calls fidelity.GenerateContext; the
// traced pass splits it into its public synth and check calls.
func clonePass(b *bench, tr *tracer, progs []*prog.Program, seeds []uint64) error {
	ctx := context.Background()
	var outs []cloneOut
	var profInsts, srcBytes float64
	for _, p := range progs {
		root := tr.begin("kernel", p.Name, 0)
		start := time.Now()
		var prof *profile.Profile
		err := tr.do("profile.collect", p.Name, root, func() (err error) {
			prof, err = profile.CollectContext(ctx, p, profile.Options{MaxInsts: profileInsts})
			return
		})
		if err != nil {
			return fmt.Errorf("profile %s: %w", p.Name, err)
		}
		profInsts += float64(prof.TotalInsts)
		profShare := time.Since(start) / cloneSeeds
		for _, seed := range seeds {
			start := time.Now()
			clone, attempts, src, err := cloneOne(ctx, tr, root, prof, seed)
			lat := profShare + time.Since(start)
			if err != nil {
				// Every clone must pass the gate and emit: a failure is a
				// failed output check, not only a failed operation.
				b.tally.fail()
				b.check(false, "clone %s seed %d: %v", p.Name, seed, err)
				continue
			}
			b.tally.ok()
			if tr == nil {
				b.opLat = append(b.opLat, lat)
			}
			srcBytes += float64(len(src))
			outs = append(outs, cloneOut{kernel: p.Name, seed: seed, program: clone.Program, src: sha256.Sum256([]byte(src)), attempts: attempts})
		}
		tr.end(root)
	}

	var first, attempts float64
	for _, o := range outs {
		attempts += float64(o.attempts)
		if o.attempts == 1 {
			first++
		}
	}
	if n := float64(len(outs)); n > 0 {
		b.set("fidelity.attempts_per_clone", attempts/n)
		b.set("fidelity.first_pass_share", first/n)
		b.set("codegen.bytes_per_clone", srcBytes/n)
	}
	if tr != nil {
		self := selfTimes(tr.snapshot())
		b.set("trace.workers", 1)
		b.set("profile.collect_s", self["profile.collect"].Seconds())
		b.set("profile.minst_per_s", profInsts/1e6/self["profile.collect"].Seconds())
		b.set("synth.generate_s", self["synth.generate"].Seconds())
		b.set("fidelity.check_s", (self["fidelity.check"] + self["fidelity.repair"]).Seconds())
		b.set("codegen.emit_s", self["codegen.emit"].Seconds())
	} else {
		lat := millis(b.opLat)
		b.set("clone_ms_p50", percentile(lat, 50))
		b.set("clone_ms_p90", percentile(lat, 90))
	}

	if cloneReference == nil {
		cloneReference = outs
		b.later(func() { checkClones(b, outs) })
		return nil
	}
	b.check(len(outs) == len(cloneReference), "pass made %d clones, the first made %d", len(outs), len(cloneReference))
	for i := range outs {
		if i < len(cloneReference) {
			b.check(outs[i].src == cloneReference[i].src, "clone %s seed %d: C source differs between passes", outs[i].kernel, outs[i].seed)
		}
	}
	return nil
}

// cloneOne generates one clone through the fidelity gate and emits it.
func cloneOne(ctx context.Context, tr *tracer, root int, prof *profile.Profile, seed uint64) (*synth.Clone, int, string, error) {
	var (
		clone *synth.Clone
		rep   *fidelity.Report
		src   string
		err   error
	)
	cfg := synth.Config{Seed: seed}
	if tr == nil {
		clone, rep, err = fidelity.GenerateContext(ctx, prof, cfg, fidelity.Options{})
	} else {
		// Attempt 1 of the repair loop is exactly this pair of calls.
		err = tr.do("synth.generate", prof.Name, root, func() (err error) { clone, err = synth.GenerateContext(ctx, prof, cfg); return })
		if err == nil {
			err = tr.do("fidelity.check", prof.Name, root, func() (err error) { rep, err = fidelity.CheckContext(ctx, prof, clone, fidelity.Options{}); return })
		}
		if err == nil && !rep.Pass {
			err = tr.do("fidelity.repair", prof.Name, root, func() (err error) {
				clone, rep, err = fidelity.GenerateContext(ctx, prof, cfg, fidelity.Options{})
				return
			})
		}
	}
	if err != nil {
		return nil, 0, "", err
	}
	err = tr.do("codegen.emit", prof.Name, root, func() (err error) {
		src, err = codegen.EmitC(clone.Program, codegen.Options{FuncName: prof.Name + "_clone"})
		return
	})
	return clone, rep.Attempt, src, err
}

// checkClones requires every clone to be a valid program that halts.
func checkClones(b *bench, outs []cloneOut) {
	for _, o := range outs {
		if err := o.program.Validate(); err != nil {
			b.check(false, "clone %s seed %d does not validate: %v", o.kernel, o.seed, err)
			continue
		}
		res, err := funcsim.RunProgram(o.program, funcsim.Limits{MaxInsts: haltBudget}, nil)
		b.check(err == nil && res.Halted, "clone %s seed %d did not halt within %d instructions (err %v)", o.kernel, o.seed, haltBudget, err)
	}
}
