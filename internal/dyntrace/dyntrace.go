// Package dyntrace records one functional execution of a program as a
// compact, immutable, in-memory dynamic trace, so that every downstream
// consumer — the 28-configuration cache sweep, the timing simulator
// across design changes, the branch-predictor studies — can replay the
// identical instruction stream without re-running the interpreter.
//
// This is the execute-once/replay-many substrate real simulation
// frameworks use to amortize functional simulation: the paper's
// evaluation replays each workload and its clone across dozens of cache
// and pipeline configurations, and all of those runs consume the same
// dynamic stream.
//
// The trace is a struct-of-arrays: per-program static-instruction
// metadata is stored once in a Static table, and the dynamic stream is
// three parallel columns — a uint32 static-instruction id per retired
// instruction, a taken bitset indexed by dynamic position, and a packed
// effective-address stream holding one word per memory reference (not per
// instruction). No per-event structs are allocated and no observer
// closure runs during replay. Footprint is
//
//	4 B/inst (id) + 1 bit/inst (taken) + 8.125 B/memref (addr + store bit)
//
// ≈ 7 MB per million instructions at a typical ~35 % memory-op mix,
// versus ~100 B/inst for a slice of funcsim.Event.
package dyntrace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"perfclone/internal/funcsim"
	"perfclone/internal/isa"
	"perfclone/internal/prog"
	"perfclone/internal/supervise"
)

// Static is the per-static-instruction metadata replayers need, computed
// once at capture time. Fields mirror what the timing simulator's
// functional front end derives per dynamic instruction.
type Static struct {
	// PC is the synthetic text address (drives I-cache and predictor
	// indexing).
	PC uint64
	// Op is the opcode; Class its functional-unit class.
	Op    isa.Op
	Class isa.Class
	// Dest, Src1, Src2 are the architected registers (isa.NoReg when
	// absent) driving dependence tracking.
	Dest isa.Reg
	Src1 isa.Reg
	Src2 isa.Reg
	// Branch, Jump, Mem, Store classify the instruction.
	Branch bool
	Jump   bool
	Mem    bool
	Store  bool
	// Block and Index locate the instruction in the program.
	Block int32
	Index int32
}

// Trace is one captured dynamic instruction stream. All accessors return
// internal slices for zero-copy replay; callers must treat them as
// read-only. A Trace is immutable after Capture and safe for concurrent
// replay from many goroutines.
//
// A trace loaded from a PCDT v2 artifact keeps its sid and address
// columns varint-encoded (possibly aliasing an mmap'd file — see
// LoadBytes): NewCursor streams them without materializing, and the
// whole-column accessors (SIDs, MemAddrs, Mem) decode them once, on
// first use, under a sync.Once.
type Trace struct {
	prog     *prog.Program
	static   []Static
	sid      []uint32 // per dynamic instruction: index into static
	taken    []uint64 // bitset over dynamic instructions
	memAddr  []uint64 // packed effective addresses, dynamic order
	memStore []uint64 // bitset over memAddr entries
	insts    uint64
	numMem   uint64 // memory references (== len(memAddr) once materialized)
	halted   bool

	// Encoded columns from a PCDT v2 load; nil for captured or v1
	// traces. When non-nil they are authoritative and sid/memAddr start
	// nil until materialize decodes them.
	sidEnc  []byte
	memEnc  []byte
	matOnce sync.Once

	// decodeCache memoizes one consumer-defined decode product (see
	// DecodeCache); stored as any so dyntrace stays free of consumer
	// types. decodeOnce makes the build single-flight.
	decodeOnce  sync.Once
	decodeCache atomic.Value

	// release unmaps or otherwise frees the backing storage of a
	// zero-copy load (see LoadBytes and Close).
	release func() error
}

// Capture executes p functionally (up to maxInsts dynamic instructions;
// 0 = to completion) and records the dynamic stream.
func Capture(p *prog.Program, maxInsts uint64) (*Trace, error) {
	return CaptureContext(context.Background(), p, maxInsts)
}

// CaptureContext is Capture with cooperative cancellation: the batch
// observer polls ctx once per event batch, aborting the capture with the
// context's cancellation cause, and ticks any supervision heartbeat
// carried by ctx at the same cadence so a long capture under a watchdog
// never reads as a wedged task.
func CaptureContext(ctx context.Context, p *prog.Program, maxInsts uint64) (*Trace, error) {
	m, err := funcsim.New(p)
	if err != nil {
		return nil, err
	}
	tick := supervise.TickerFrom(ctx)
	watched := ctx.Done() != nil || tick != nil
	static, base := buildStatic(p)
	hint := maxInsts
	if hint == 0 || hint > 1<<20 {
		hint = 1 << 20
	}
	t := &Trace{
		prog:   p,
		static: static,
		sid:    make([]uint32, 0, hint),
		taken:  make([]uint64, 0, (hint+63)/64),
	}
	obs := func(events []funcsim.Event) error {
		if watched {
			if err := supervise.Cause(ctx); err != nil {
				return err
			}
			if tick != nil {
				tick()
			}
		}
		for k := range events {
			ev := &events[k]
			sid := base[ev.Block] + uint32(ev.Index)
			i := uint64(len(t.sid))
			t.sid = append(t.sid, sid)
			t.taken = appendBit(t.taken, i, ev.Taken)
			st := &t.static[sid]
			if st.Mem {
				mi := uint64(len(t.memAddr))
				t.memStore = appendBit(t.memStore, mi, st.Store)
				t.memAddr = append(t.memAddr, ev.Addr)
			}
		}
		return nil
	}
	res, err := m.RunBatch(funcsim.Limits{MaxInsts: maxInsts}, obs)
	if err != nil {
		return nil, fmt.Errorf("dyntrace: capture %s: %w", p.Name, err)
	}
	t.insts = res.Insts
	t.halted = res.Halted
	t.numMem = uint64(len(t.memAddr))
	return t, nil
}

// FromColumns assembles a Trace directly from its dynamic columns,
// without functional execution and without validation. It exists for
// tests and trace-processing tools; replay consumers validate the
// columns at use time (see uarch.ReplayMultiWorkers), so a malformed hand-built
// trace surfaces as an error there instead of a panic.
func FromColumns(p *prog.Program, sid []uint32, taken, memAddr, memStore []uint64, insts uint64, halted bool) *Trace {
	static, _ := buildStatic(p)
	return &Trace{
		prog: p, static: static,
		sid: sid, taken: taken, memAddr: memAddr, memStore: memStore,
		insts: insts, numMem: uint64(len(memAddr)), halted: halted,
	}
}

// buildStatic flattens the program's blocks into the static table and
// returns per-block base offsets into it.
func buildStatic(p *prog.Program) ([]Static, []uint32) {
	static := make([]Static, 0, p.NumStaticInsts())
	base := make([]uint32, len(p.Blocks))
	var srcBuf [2]isa.Reg
	for bi := range p.Blocks {
		base[bi] = uint32(len(static))
		blk := &p.Blocks[bi]
		for ii := range blk.Insts {
			in := &blk.Insts[ii]
			s := Static{
				PC:     p.InstAddr(bi, ii),
				Op:     in.Op,
				Class:  in.Op.Class(),
				Dest:   in.Dest(),
				Src1:   isa.NoReg,
				Src2:   isa.NoReg,
				Branch: in.Op.IsBranch(),
				Jump:   in.Op == isa.OpJmp,
				Mem:    in.Op.IsMem(),
				Store:  in.Op.IsStore(),
				Block:  int32(bi),
				Index:  int32(ii),
			}
			srcs := in.Sources(srcBuf[:0])
			if len(srcs) > 0 {
				s.Src1 = srcs[0]
			}
			if len(srcs) > 1 {
				s.Src2 = srcs[1]
			}
			static = append(static, s)
		}
	}
	return static, base
}

func appendBit(bits []uint64, i uint64, v bool) []uint64 {
	if i&63 == 0 {
		bits = append(bits, 0)
	}
	if v {
		bits[i>>6] |= 1 << (i & 63)
	}
	return bits
}

// Program returns the traced program.
func (t *Trace) Program() *prog.Program { return t.prog }

// Insts is the number of retired dynamic instructions recorded.
func (t *Trace) Insts() uint64 { return t.insts }

// Halted reports whether the program reached halt within the capture
// budget.
func (t *Trace) Halted() bool { return t.halted }

// NumMem is the number of memory references recorded.
func (t *Trace) NumMem() uint64 { return t.numMem }

// Statics returns the static-instruction table (read-only).
func (t *Trace) Statics() []Static { return t.static }

// materialize decodes the varint-encoded columns of a v2-loaded trace
// into the whole-column slices, once. Captured and v1-loaded traces
// materialize trivially. The streams were fully validated at load time
// (Trace.check), so a decode failure here means the backing storage
// mutated after load — a contract violation worth a loud stop.
func (t *Trace) materialize() {
	if t.sidEnc == nil && t.memEnc == nil {
		return
	}
	t.matOnce.Do(func() {
		sid, memAddr, err := decodeColumns(t.sidEnc, t.memEnc, t.insts, t.numMem)
		if err != nil {
			panic(fmt.Sprintf("dyntrace: %s: encoded columns mutated after load: %v", t.prog.Name, err))
		}
		t.sid, t.memAddr = sid, memAddr
	})
}

// SIDs returns the per-instruction static-id column (read-only).
func (t *Trace) SIDs() []uint32 {
	t.materialize()
	return t.sid
}

// DecodeCache memoizes one consumer-defined decode product on the
// trace, so repeated sweeps over the same trace skip its construction
// (uarch stores its per-static TraceInst template table here). The
// build is single-flight: it runs exactly once per trace, concurrent
// callers block until the winner has stored the product, and every
// caller — then and forever after — receives the same value, so
// pointer-identity comparisons on the product are safe. build must
// return a non-nil value.
func (t *Trace) DecodeCache(build func() any) any {
	if v := t.decodeCache.Load(); v != nil {
		return v
	}
	t.decodeOnce.Do(func() {
		t.decodeCache.Store(build())
	})
	return t.decodeCache.Load()
}

// Close releases the backing storage of a zero-copy load (the mmap
// behind LoadBytes). The Trace must not be used afterwards. Closing a
// trace that owns no mapping — captured, v1-loaded, or already closed —
// is a no-op.
func (t *Trace) Close() error {
	rel := t.release
	t.release = nil
	if rel == nil {
		return nil
	}
	return rel()
}

// TakenBits returns the per-instruction taken bitset (read-only); bit i
// is dynamic instruction i's branch direction.
func (t *Trace) TakenBits() []uint64 { return t.taken }

// Taken reports dynamic instruction i's branch direction.
func (t *Trace) Taken(i uint64) bool {
	return t.taken[i>>6]>>(i&63)&1 == 1
}

// MemAddrs returns the packed effective-address stream (read-only): one
// entry per memory reference, in dynamic order.
func (t *Trace) MemAddrs() []uint64 {
	t.materialize()
	return t.memAddr
}

// MemStores returns the store bitset over MemAddrs (read-only); bit i is
// set when reference i is a store.
func (t *Trace) MemStores() []uint64 { return t.memStore }

// Mem returns the data-reference stream of the first maxInsts dynamic
// instructions (0 or ≥ Insts() = the whole trace): a packed address slice
// and the store bitset indexed in parallel with it. The slices alias the
// trace; treat them as read-only.
func (t *Trace) Mem(maxInsts uint64) (addrs []uint64, storeBits []uint64) {
	t.materialize()
	if maxInsts == 0 || maxInsts >= t.insts {
		return t.memAddr, t.memStore
	}
	var k uint64
	for i := uint64(0); i < maxInsts; i++ {
		if t.static[t.sid[i]].Mem {
			k++
		}
	}
	return t.memAddr[:k], t.memStore
}

// Bytes estimates the trace's in-memory footprint, for capacity planning
// (EXPERIMENTS.md documents the per-million-instruction cost). For a
// v2-loaded trace it reports the encoded footprint — the whole-column
// decode that SIDs/MemAddrs/Mem trigger adds the materialized columns on
// top of it.
func (t *Trace) Bytes() uint64 {
	const staticSize = 40 // unsafe.Sizeof(Static{}) with padding
	n := 8*uint64(len(t.taken)+len(t.memStore)) + staticSize*uint64(len(t.static))
	if t.sidEnc != nil || t.memEnc != nil {
		return n + uint64(len(t.sidEnc)+len(t.memEnc))
	}
	return n + 4*uint64(len(t.sid)) + 8*uint64(len(t.memAddr))
}
