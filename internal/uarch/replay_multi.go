package uarch

import (
	"context"
	"fmt"

	"perfclone/internal/dyntrace"
)

// decodeTable is the per-trace decode product replay memoizes on
// the trace (dyntrace.Trace.DecodeCache): a TraceInst template per
// static instruction (everything but Addr and Taken is static) plus the
// memory-op flags the chunk decoder needs to pair static ids with the
// packed address stream. Building it is O(statics) and happens once per
// trace, no matter how many sweeps replay it.
type decodeTable struct {
	tmpl  []TraceInst
	isMem []bool
}

func decodeTableFor(t *dyntrace.Trace) *decodeTable {
	return t.DecodeCache(func() any {
		statics := t.Statics()
		dt := &decodeTable{
			tmpl:  make([]TraceInst, len(statics)),
			isMem: make([]bool, len(statics)),
		}
		for i := range statics {
			st := &statics[i]
			dt.tmpl[i] = TraceInst{
				PC:     st.PC,
				Class:  st.Class,
				Dest:   st.Dest,
				Src1:   st.Src1,
				Src2:   st.Src2,
				Branch: st.Branch,
				Jump:   st.Jump,
				IsMem:  st.Mem,
			}
			dt.isMem[i] = st.Mem
		}
		return dt
	}).(*decodeTable)
}

// chunkDecoder walks a trace's dynamic columns one streamChunk at a
// time, expanding static-id records into full TraceInst values. It owns
// the trace's Cursor exclusively: only the producing goroutine touches
// it, and each decoded chunk is handed to the pipelines as a read-only
// buffer, so the cursor never crosses a goroutine boundary.
type chunkDecoder struct {
	t       *dyntrace.Trace
	dt      *decodeTable
	taken   []uint64
	cur     *dyntrace.Cursor
	sidBuf  []uint32
	addrBuf []uint64
	base    uint64
	n       uint64
}

// produce is the decoder's producer: it decodes the requested window
// chunk by chunk into the buffers the walk hands it.
func (d *chunkDecoder) produce(buf []TraceInst, emit func(int) ([]TraceInst, error)) error {
	for d.base < d.n {
		c, err := d.next(buf)
		if err != nil {
			return err
		}
		if buf, err = emit(c); err != nil {
			return err
		}
	}
	return nil
}

// next decodes the next chunk into dst (len(dst) >= streamChunk) and
// returns the record count; the chunk boundaries are the exact
// streamChunk boundaries execution-driven runs use.
// The cursor streams both dynamic columns in chunk-sized bites: on a
// zero-copy (v2) trace it varint-decodes straight out of the mmap, on a
// captured trace it returns aliasing subslices. Either way a malformed
// column surfaces as a validation error here, not a panic.
func (d *chunkDecoder) next(dst []TraceInst) (int, error) {
	c := d.n - d.base
	if c > streamChunk {
		c = streamChunk
	}
	sids, err := d.cur.NextSIDs(d.sidBuf[:c])
	if err != nil {
		return 0, fmt.Errorf("uarch: replay: %w", err)
	}
	nmem := 0
	isMem := d.dt.isMem
	for _, sid := range sids {
		if int(sid) >= len(isMem) {
			return 0, fmt.Errorf("uarch: replay %s: static id %d out of range (table has %d entries)",
				d.t.Program().Name, sid, len(isMem))
		}
		if isMem[sid] {
			nmem++
		}
	}
	addrs, err := d.cur.NextAddrs(d.addrBuf[:nmem])
	if err != nil {
		return 0, fmt.Errorf("uarch: replay: %w", err)
	}
	// Template expansion, 64 records per taken-bitset word: base is
	// always streamChunk-aligned, so each group of 64 dynamic positions
	// shares one word and the per-record work is pure shift/mask lane
	// math over the hoisted word.
	tmpl := d.dt.tmpl
	wbase := d.base >> 6
	mi := 0
	for k := 0; k < len(sids); {
		w := d.taken[wbase+uint64(k)>>6]
		end := k + 64
		if end > len(sids) {
			end = len(sids)
		}
		for ; k < end; k++ {
			sid := sids[k]
			ti := tmpl[sid]
			if isMem[sid] {
				ti.Addr = addrs[mi]
				mi++
			}
			ti.Taken = w>>(uint(k)&63)&1 == 1
			dst[k] = ti
		}
	}
	d.base += c
	return int(c), nil
}

// ReplayMultiWorkers times one captured trace on every configuration in
// cfgs, decoding each streamChunk of TraceInst records once and feeding it
// to all pipelines in lockstep. Each config keeps its own independent Sim,
// and the chunk boundaries are the ones execution-driven timing
// (RunLimitsContext) uses, so each returned Stats is bit-identical to
// executing the traced program on that config — the decode cost
// (static-id stream, address stream, taken bitset, template expansion) is
// simply amortized N ways. This is what makes wide config sweeps (Table
// 3's design changes, the predictor and L2 sweeps) cost one trace walk
// instead of N. The trace is read-only here, so many walks can share one
// trace concurrently.
//
// workers > 1 spreads the per-config pipelines over that many goroutines:
// the calling goroutine decodes each chunk once and fans it out to the
// workers behind a chunk barrier, and worker w drives configs w,
// w+workers, …. The Stats are bit-identical for any worker count. workers
// is clamped to [1, len(cfgs)]; 1 selects the serial walk.
//
// Cancellation returns the context's cause (see walk), so a watchdog's
// supervise.ErrStuck stays distinguishable from a user's ^C, and it
// drains first: no goroutine touches the trace (or its mmap) after
// ReplayMultiWorkers returns.
func ReplayMultiWorkers(ctx context.Context, t *dyntrace.Trace, cfgs []Config, lim Limits, workers int) ([]Stats, error) {
	n := t.Insts()
	if lim.MaxInsts > 0 && n > lim.MaxInsts {
		n = lim.MaxInsts
	}
	takenBits := t.TakenBits()
	if uint64(len(takenBits))*64 < n {
		return nil, fmt.Errorf("uarch: replay %s: taken bitset has %d words, need %d for %d instructions",
			t.Program().Name, len(takenBits), (n+63)/64, n)
	}
	dec := &chunkDecoder{
		t: t, dt: decodeTableFor(t), taken: takenBits, n: n,
		cur:     t.NewCursor(),
		sidBuf:  make([]uint32, streamChunk),
		addrBuf: make([]uint64, streamChunk),
	}
	return walk(ctx, cfgs, lim, workers, dec.produce)
}
