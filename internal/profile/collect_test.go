package profile_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"perfclone/internal/fidelity"
	"perfclone/internal/isa"
	"perfclone/internal/profile"
	"perfclone/internal/prog"
	"perfclone/internal/supervise"
	"perfclone/internal/synth"
	"perfclone/internal/workloads"
)

// saved is a profile's Save bytes, the form every consumer sees.
func saved(t testing.TB, p *profile.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireReference profiles p with CollectContext and with the
// reference collector and fails unless both save to the same bytes. It
// returns CollectContext's profile.
func requireReference(t testing.TB, p *prog.Program, opts profile.Options) *profile.Profile {
	t.Helper()
	ctx := context.Background()
	got, err := profile.CollectContext(ctx, p, opts)
	if err != nil {
		t.Fatalf("%+v: %v", opts, err)
	}
	want, err := profile.CollectReference(ctx, p, opts)
	if err != nil {
		t.Fatalf("%+v: reference: %v", opts, err)
	}
	g, w := saved(t, got), saved(t, want)
	if !bytes.Equal(g, w) {
		t.Fatalf("%s %+v: Save bytes differ from the reference collector\n%s", p.Name, opts, firstDiff(g, w))
	}
	return got
}

// firstDiff renders the first differing line of two Save outputs.
func firstDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(gl), len(wl))
}

// TestCollectMatchesReference pins CollectContext to the reference
// collector byte for byte: every workload, with and without per-block
// nodes, run to halt and cut off at budgets that end mid-run, inside the
// first event chunk and mid-chunk; plus the 400k re-profile the fidelity
// gate runs on each workload's clone.
func TestCollectMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p := w.Build()
			for _, perBlock := range []bool{false, true} {
				for _, budget := range []uint64{0, 1_000_000, 100, 12345} {
					requireReference(t, p, profile.Options{MaxInsts: budget, PerBlockNodes: perBlock})
				}
			}
			target, err := profile.CollectContext(ctx, p, profile.Options{MaxInsts: 400_000})
			if err != nil {
				t.Fatal(err)
			}
			clone, _, err := fidelity.GenerateContext(ctx, target, synth.Config{}, fidelity.Options{})
			if err != nil {
				t.Fatal(err)
			}
			requireReference(t, clone.Program, profile.Options{MaxInsts: 400_000})
		})
	}
}

// TestCollectManyPredecessors drives one block from 70 distinct
// predecessors, repeatedly, so the per-block node list grows well past
// any small fixed size and reorders on every lookup.
func TestCollectManyPredecessors(t *testing.T) {
	const preds = 70
	r := isa.IntReg
	b := prog.NewBuilder("widejoin")
	b.Label("entry")
	b.Li(r(5), 3) // outer trips
	b.Label("outer")
	b.Li(r(1), 0)
	b.Li(r(4), preds)
	for k := 0; k < preds; k++ {
		// Dispatch chain: test k branches to the join when r1 == k and
		// otherwise falls through to test k+1.
		b.Label(fmt.Sprintf("test%d", k))
		b.Li(r(3), int64(k))
		b.Beq(r(1), r(3), "join")
	}
	b.Label("nomatch")
	b.Halt()
	b.Label("join")
	b.Addi(r(1), r(1), 1)
	b.Blt(r(1), r(4), "test0")
	b.Label("next")
	b.Addi(r(5), r(5), -1)
	b.Bne(r(5), isa.RZero, "outer")
	b.Label("end")
	b.Halt()
	p := b.MustBuild()

	got := requireReference(t, p, profile.Options{})
	join := -1
	for bi := range p.Blocks {
		if p.Blocks[bi].Label == "join" {
			join = bi
		}
	}
	n := 0
	for _, nd := range got.NodeList {
		if nd.Key.Block == join {
			n++
			if nd.Count != 3 {
				t.Errorf("join from block %d ran %d times, want 3", nd.Key.Prev, nd.Count)
			}
		}
	}
	if n != preds {
		t.Fatalf("join has %d SFG nodes, want %d", n, preds)
	}
	requireReference(t, p, profile.Options{PerBlockNodes: true})
	for _, budget := range []uint64{1000, 1001, 2000} {
		requireReference(t, p, profile.Options{MaxInsts: budget})
	}
}

// TestCollectContextCancel: the batched collector keeps the per-event
// collector's cadence of one poll and heartbeat tick per 64 Ki retired
// instructions, and stops with the context's cause.
func TestCollectContextCancel(t *testing.T) {
	w, err := workloads.ByName("jpeg")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	opts := profile.Options{MaxInsts: 1_000_000}
	ticks := 0
	if _, err := profile.CollectContext(supervise.WithTicker(context.Background(), func() { ticks++ }), p, opts); err != nil {
		t.Fatal(err)
	}
	if want := int((opts.MaxInsts + 1<<16 - 1) >> 16); ticks != want {
		t.Errorf("%d heartbeat ticks over %d instructions, want %d", ticks, opts.MaxInsts, want)
	}

	stop := errors.New("stop")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(stop)
	if _, err := profile.CollectContext(ctx, p, opts); !errors.Is(err, stop) {
		t.Errorf("pre-cancelled: err = %v, want %v", err, stop)
	}

	ctx, cancel = context.WithCancelCause(context.Background())
	defer cancel(nil)
	ticks = 0
	ctx = supervise.WithTicker(ctx, func() {
		if ticks++; ticks == 3 {
			cancel(stop)
		}
	})
	if _, err := profile.CollectContext(ctx, p, opts); !errors.Is(err, stop) {
		t.Errorf("cancelled mid-run: err = %v, want %v", err, stop)
	}
	if ticks != 3 {
		t.Errorf("collector ran on for %d more polls after cancellation", ticks-3)
	}
}

// FuzzCollect runs both collectors over clones synthesized from
// fuzz-chosen workloads, seeds, sizes and budgets and requires equal
// profiles.
func FuzzCollect(f *testing.F) {
	names := []string{"crc32", "qsort", "susan", "sha"}
	targets := make([]*profile.Profile, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		if targets[i], err = profile.CollectContext(context.Background(), w.Build(), profile.Options{MaxInsts: 50_000}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(uint8(0), uint64(1), uint16(150), uint32(0), false, false)
	f.Add(uint8(1), uint64(7), uint16(20), uint32(4097), true, false)
	f.Add(uint8(2), uint64(99), uint16(400), uint32(65536), false, true)
	f.Add(uint8(3), uint64(3), uint16(1), uint32(12345), false, false)
	f.Fuzz(func(t *testing.T, wl uint8, seed uint64, blocks uint16, budget uint32, perBlock, takenOnly bool) {
		clone, err := synth.GenerateContext(context.Background(), targets[int(wl)%len(targets)], synth.Config{
			TargetBlocks:          1 + int(blocks)%500,
			Iterations:            1 + int(seed%16),
			Seed:                  seed,
			TakenRateOnlyBranches: takenOnly,
		})
		if err != nil {
			t.Skip()
		}
		requireReference(t, clone.Program, profile.Options{MaxInsts: uint64(budget) % 300_000, PerBlockNodes: perBlock})
	})
}
