package uarch

import (
	"context"
	"sync"

	"perfclone/internal/supervise"
)

// A producer writes a dynamic instruction stream into chunk buffers. It
// is handed a buffer of streamChunk records, fills it from the front, and
// passes the number of records written (never 0) to emit: once per full
// chunk and once for a final partial one. emit hands those records to
// the pipelines and returns the buffer to fill next. A producer returns
// the first error it meets, including one from emit, unchanged.
//
// The three timing entry points differ only in their producer: a trace
// decoder (ReplayMultiWorkers), the functional simulator
// (RunLimitsContext), and a record generator (RunTrace). All of them cut
// the stream at the same streamChunk boundaries, which is why a replayed
// trace times bit-identically to the execution that captured it.
type producer func(buf []TraceInst, emit func(n int) ([]TraceInst, error)) error

// perRecord adapts a source that yields one record at a time into a
// producer: run calls put for every record in stream order, and put emits
// each chunk as it fills.
func perRecord(run func(put func(TraceInst) error) error) producer {
	return func(buf []TraceInst, emit func(int) ([]TraceInst, error)) error {
		n := 0
		err := run(func(ti TraceInst) error {
			buf[n] = ti
			n++
			if n < len(buf) {
				return nil
			}
			var err error
			buf, err = emit(n)
			n = 0
			return err
		})
		if err == nil && n > 0 {
			_, err = emit(n)
		}
		return err
	}
}

// walk times the stream produce writes on every configuration in cfgs,
// one independent Sim per config, and returns their Stats in config
// order. Every chunk is produced once and fed to all the pipelines, so a
// sweep over N configs costs one stream walk.
//
// Before a chunk reaches the pipelines the walk polls ctx, aborting with
// its cause (context.Cause, so a watchdog's supervise.ErrStuck or a stage
// deadline's cause survives), and ticks any supervision heartbeat carried
// by ctx. A run either completes with the exact result or returns the
// cause and no Stats.
//
// workers > 1 stripes the pipelines over that many goroutines (clamped to
// len(cfgs)); each pipeline still consumes the identical chunk sequence,
// so the result does not depend on the worker count.
func walk(ctx context.Context, cfgs []Config, lim Limits, workers int, produce producer) ([]Stats, error) {
	sims := make([]*Sim, len(cfgs))
	for i, cfg := range cfgs {
		s, err := newSim(cfg)
		if err != nil {
			return nil, err
		}
		s.warmup = lim.Warmup
		sims[i] = s
	}
	if workers > len(sims) {
		workers = len(sims)
	}
	var err error
	if workers <= 1 {
		err = walkSerial(ctx, sims, produce)
	} else {
		err = walkParallel(ctx, sims, workers, produce)
	}
	if err != nil {
		return nil, err
	}
	out := make([]Stats, len(sims))
	for i, s := range sims {
		out[i] = s.finish()
	}
	return out, nil
}

// chunkGate is the per-chunk supervision step shared by both walks: it
// polls ctx and ticks the heartbeat.
func chunkGate(ctx context.Context, tick func()) error {
	if err := supervise.Cause(ctx); err != nil {
		return err
	}
	if tick != nil {
		tick()
	}
	return nil
}

// walkSerial feeds every chunk to every pipeline on the calling
// goroutine, reusing one buffer.
func walkSerial(ctx context.Context, sims []*Sim, produce producer) error {
	buf := make([]TraceInst, streamChunk)
	tick := supervise.TickerFrom(ctx)
	return produce(buf, func(n int) ([]TraceInst, error) {
		if err := chunkGate(ctx, tick); err != nil {
			return nil, err
		}
		for _, s := range sims {
			s.consume(buf[:n])
		}
		return buf, nil
	})
}

// walkParallel runs the producer/barrier/worker topology. Two chunk
// buffers double-buffer the walk — the producer fills chunk k+1 while the
// workers consume chunk k — and each buffer carries a token channel
// holding one token per worker: a worker returns its token when it
// finishes a buffer, and the producer collects all of them before
// rewriting that buffer. That reclaim is the chunk barrier: a buffer is
// never mutated while any pipeline can still read it, and since sims are
// striped (worker w owns sims w, w+workers, …) and the chunk is read-only
// to consume, the walk is race-free without any locking in the cycle
// loop.
//
// On a producer error or cancellation the walk stops feeding, closes the
// feeds, and waits for every worker to drain its queue (at most two
// chunks each) before returning, so no goroutine touches the producer's
// source (a trace's mmap, say) after walkParallel returns.
func walkParallel(ctx context.Context, sims []*Sim, workers int, produce producer) error {
	const nbuf = 2
	type slot struct {
		chunk []TraceInst
		free  chan struct{}
	}
	var slots [nbuf]slot
	for b := range slots {
		slots[b] = slot{
			chunk: make([]TraceInst, streamChunk),
			free:  make(chan struct{}, workers),
		}
		for w := 0; w < workers; w++ {
			slots[b].free <- struct{}{}
		}
	}
	type msg struct{ buf, n int }
	feeds := make([]chan msg, workers)
	for w := range feeds {
		feeds[w] = make(chan msg, nbuf)
	}
	// Producer and workers share one heartbeat: any goroutine still
	// making progress keeps the watchdog satisfied, so only a genuinely
	// wedged topology (producer and every worker silent) trips it.
	tick := supervise.TickerFrom(ctx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for m := range feeds[w] {
				chunk := slots[m.buf].chunk[:m.n]
				for j := w; j < len(sims); j += workers {
					sims[j].consume(chunk)
				}
				if tick != nil {
					tick()
				}
				slots[m.buf].free <- struct{}{}
			}
		}(w)
	}
	b := 0
	// reclaim waits until every worker has released buffer b.
	reclaim := func() []TraceInst {
		for w := 0; w < workers; w++ {
			<-slots[b].free
		}
		return slots[b].chunk
	}
	err := produce(reclaim(), func(n int) ([]TraceInst, error) {
		if err := chunkGate(ctx, tick); err != nil {
			return nil, err
		}
		m := msg{buf: b, n: n}
		for w := range feeds {
			feeds[w] <- m
		}
		b = (b + 1) % nbuf
		return reclaim(), nil
	})
	for w := range feeds {
		close(feeds[w])
	}
	wg.Wait()
	return err
}
