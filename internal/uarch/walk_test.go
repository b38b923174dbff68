package uarch

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"perfclone/internal/dyntrace"
	"perfclone/internal/isa"
	"perfclone/internal/workloads"
)

// TestWalkProducersAgree: the walk's three producers — live funcsim
// (RunLimitsContext), a trace decoder (ReplayMultiWorkers), and a record
// generator (RunTrace) fed the same records — must give bit-identical
// Stats. One length is an exact multiple of streamChunk, so the
// per-record producers end with an empty final chunk; the other ends on a
// partial one.
func TestWalkProducersAgree(t *testing.T) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	cfg := BaseConfig()
	for _, n := range []uint64{2 * streamChunk, 2*streamChunk + 123} {
		tr, err := dyntrace.Capture(p, n)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Insts() != n {
			t.Fatalf("captured %d instructions, want %d", tr.Insts(), n)
		}
		// The generator's records come straight from the trace columns,
		// independent of the replay's chunk decoder.
		statics, sids, addrs := tr.Statics(), tr.SIDs(), tr.MemAddrs()
		recs := make([]TraceInst, n)
		mi := 0
		for i := range recs {
			st := &statics[sids[i]]
			recs[i] = TraceInst{
				PC: st.PC, Class: st.Class, Dest: st.Dest, Src1: st.Src1, Src2: st.Src2,
				Branch: st.Branch, Jump: st.Jump, Taken: tr.Taken(uint64(i)),
			}
			if st.Mem {
				recs[i].Addr = addrs[mi]
				mi++
			}
		}
		lim := Limits{Warmup: 40_000, MaxInsts: n}
		ctx := context.Background()
		exec, err := RunLimitsContext(ctx, p, cfg, lim)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := ReplayMultiWorkers(ctx, tr, []Config{cfg}, lim, 1)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := RunTrace(ctx, cfg, lim, n, func(i uint64) TraceInst { return recs[i] })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exec, replay[0]) {
			t.Errorf("n=%d: replay diverges from execution\nexec:   %+v\nreplay: %+v", n, exec, replay[0])
		}
		if !reflect.DeepEqual(exec, gen) {
			t.Errorf("n=%d: generated stream diverges from execution\nexec: %+v\ngen:  %+v", n, exec, gen)
		}
	}
}

// aluRecord is a generator record with no dependences or memory traffic.
func aluRecord(i uint64) TraceInst {
	return TraceInst{PC: 1<<41 + (i%64)*8, Class: isa.ClassIntALU, Dest: isa.IntReg(1), Src1: isa.NoReg, Src2: isa.NoReg}
}

// TestRunTraceCancel: RunTrace returns the context's cause, and no Stats,
// within one chunk of the cancellation — both for a context cancelled
// before the run and for one cancelled mid-stream.
func TestRunTraceCancel(t *testing.T) {
	cause := errors.New("stop requested")
	const n = 10 * streamChunk

	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	var calls uint64
	st, err := RunTrace(ctx, BaseConfig(), Limits{}, n, func(i uint64) TraceInst {
		calls++
		return aluRecord(i)
	})
	if !errors.Is(err, cause) {
		t.Fatalf("pre-cancelled: err = %v, want the cause", err)
	}
	if !reflect.DeepEqual(st, Stats{}) {
		t.Fatal("pre-cancelled run returned stats")
	}
	if calls > streamChunk {
		t.Fatalf("pre-cancelled run generated %d records, want at most one chunk (%d)", calls, streamChunk)
	}

	ctx, cancel = context.WithCancelCause(context.Background())
	defer cancel(nil)
	const at = 3*streamChunk + 17
	calls = 0
	_, err = RunTrace(ctx, BaseConfig(), Limits{}, n, func(i uint64) TraceInst {
		calls++
		if i == at {
			cancel(cause)
		}
		return aluRecord(i)
	})
	if !errors.Is(err, cause) {
		t.Fatalf("mid-stream: err = %v, want the cause", err)
	}
	if calls > at+streamChunk {
		t.Fatalf("mid-stream cancel at record %d still generated %d records", at, calls)
	}
}
