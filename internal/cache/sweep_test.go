package cache

import (
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// xorshift is the deterministic generator the stream builders share.
type xorshift uint64

func (s *xorshift) next() uint64 {
	*s ^= *s << 13
	*s ^= *s >> 7
	*s ^= *s << 17
	return uint64(*s)
}

// sweepStreams are the reference patterns the differential tests replay:
// uniform random over 64 KB (mostly capacity misses), a strided stream
// with loops that re-walk it (the streaming kernels), and a handful of
// lines 16 KB apart that all fight over one set in every geometry
// (conflict-heavy), mixed with a hot line so stacks keep reordering.
func sweepStreams(n int) map[string][]uint64 {
	rng := xorshift(0x9e3779b97f4a7c15)
	random := make([]uint64, n)
	for i := range random {
		random[i] = rng.next() % (64 << 10)
	}
	streaming := make([]uint64, n)
	for i := range streaming {
		// Walks of 3 KB to 24 KB at 8 B strides, repeated: hits in the
		// large caches, capacity misses in the small ones.
		span := uint64(3<<10) << (uint64(i/20000) % 4)
		streaming[i] = 0x10000 + (uint64(i)*8)%span
	}
	conflict := make([]uint64, n)
	for i := range conflict {
		r := rng.next()
		if r&3 == 0 {
			conflict[i] = 0x40 // the hot line
		} else {
			conflict[i] = (r>>8)%24*(16<<10) + (r>>32)%4*32
		}
	}
	return map[string][]uint64{"random": random, "streaming": streaming, "conflict": conflict}
}

// sweepShapes are the configuration sets the differential tests check:
// the paper's 28, wider LRU caches, 64 B lines, and line sizes mixed in
// one call.
func sweepShapes() map[string][]Config {
	wide := []Config{
		{Size: 4 << 10, Assoc: 8, LineSize: 32},
		{Size: 8 << 10, Assoc: 8, LineSize: 32},
		{Size: 8 << 10, Assoc: 16, LineSize: 32},
		{Size: 16 << 10, Assoc: 16, LineSize: 32},
		{Size: 32 << 10, Assoc: 32, LineSize: 32},
	}
	line64 := []Config{
		{Size: 512, Assoc: 1, LineSize: 64},
		{Size: 2 << 10, Assoc: 2, LineSize: 64},
		{Size: 4 << 10, Assoc: 4, LineSize: 64},
		{Size: 8 << 10, Assoc: 8, LineSize: 64},
		{Size: 16 << 10, Assoc: 16, LineSize: 64},
		{Size: 16 << 10, Assoc: 0, LineSize: 64},
	}
	mixed := []Config{
		{Size: 1 << 10, Assoc: 1, LineSize: 16},
		{Size: 768, Assoc: 0, LineSize: 32}, // 24-way: not a power of two
		{Size: 4 << 10, Assoc: 2, LineSize: 128},
		{Size: 8 << 10, Assoc: 0, LineSize: 32},
		{Size: 8 << 10, Assoc: 0, LineSize: 32}, // duplicate
		{Size: 2 << 10, Assoc: 4, LineSize: 64},
		{Size: 64, Assoc: 0, LineSize: 1},
	}
	return map[string][]Config{"sweep28": Sweep28(), "wide": wide, "line64": line64, "mixed": mixed}
}

// referenceMisses simulates one Cache per configuration — the
// independent reference the sweep must match exactly.
func referenceMisses(addrs []uint64, cfgs []Config) []uint64 {
	out := make([]uint64, len(cfgs))
	for i, cfg := range cfgs {
		c := MustNew(cfg)
		for j, a := range addrs {
			c.Access(a, j%4 == 0)
		}
		out[i] = c.Stats().Misses
	}
	return out
}

func checkSweep(t *testing.T, addrs []uint64, cfgs []Config) {
	t.Helper()
	got, err := SweepMisses(context.Background(), addrs, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceMisses(addrs, cfgs)
	for i := range cfgs {
		if got[i] != want[i] {
			t.Errorf("%s: sweep %d misses, Cache %d", cfgs[i], got[i], want[i])
		}
	}
}

// TestSweepMatchesIndividual is the differential test: every stream
// through every shape set, against one Cache per configuration.
func TestSweepMatchesIndividual(t *testing.T) {
	for sname, addrs := range sweepStreams(100_000) {
		for cname, cfgs := range sweepShapes() {
			t.Run(sname+"/"+cname, func(t *testing.T) { checkSweep(t, addrs, cfgs) })
		}
	}
}

// TestSweepInclusion checks Mattson inclusion directly: at an equal set
// count and line size, more ways never means more misses.
func TestSweepInclusion(t *testing.T) {
	var cfgs []Config
	for _, sets := range []int{1, 4, 32} {
		for ways := 1; ways <= 64; ways *= 2 {
			cfgs = append(cfgs, Config{Size: sets * ways * 32, Assoc: ways, LineSize: 32})
		}
	}
	for sname, addrs := range sweepStreams(50_000) {
		misses, err := SweepMisses(context.Background(), addrs, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(cfgs); i++ {
			a, b := cfgs[i-1], cfgs[i]
			if a.Size/a.Assoc == b.Size/b.Assoc && misses[i] > misses[i-1] {
				t.Errorf("%s: %s misses %d > %s misses %d", sname, b, misses[i], a, misses[i-1])
			}
		}
	}
}

// TestSweepRejectsNonLRU: inclusion does not hold for FIFO or random
// replacement, so the sweep must refuse them rather than return numbers.
func TestSweepRejectsNonLRU(t *testing.T) {
	for _, pol := range []Policy{PolicyFIFO, PolicyRandom} {
		cfgs := append(Sweep28(), Config{Size: 1 << 10, Assoc: 2, LineSize: 32, Replacement: pol})
		_, err := SweepMisses(context.Background(), []uint64{0, 64}, cfgs)
		if err == nil || !strings.Contains(err.Error(), "needs LRU") {
			t.Errorf("%s: err = %v, want an LRU-only error", pol, err)
		}
	}
	if _, err := SweepMisses(context.Background(), nil, []Config{{Size: 768, Assoc: 2, LineSize: 32}}); err == nil {
		t.Error("invalid geometry accepted")
	}
}

// TestSweepCancel: a cancelled context stops the sweep with its cause.
func TestSweepCancel(t *testing.T) {
	cause := errors.New("stop")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	addrs := make([]uint64, 2*sweepCheckEvery)
	if _, err := SweepMisses(ctx, addrs, Sweep28()); !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
}

// FuzzSweepMisses drives the sweep with fuzzer-chosen address streams
// over a fuzzer-chosen footprint and geometry set, against one Cache per
// configuration.
func FuzzSweepMisses(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(0), uint8(10))
	f.Add([]byte("conflict-heavy conflict-heavy conflict-heavy"), uint8(1), uint8(14))
	f.Add(make([]byte, 512), uint8(2), uint8(6))
	shapes := sweepShapes()
	sets := [][]Config{shapes["sweep28"], shapes["wide"], shapes["line64"], shapes["mixed"]}
	f.Fuzz(func(t *testing.T, data []byte, shape, footprintLog uint8) {
		cfgs := sets[int(shape)%len(sets)]
		// Each pair of bytes is one reference; the footprint keeps the
		// working set near the cache sizes so hits and misses both occur.
		mask := uint64(1)<<(6+footprintLog%14) - 1
		var addrs []uint64
		for len(data) >= 2 {
			a := uint64(binary.LittleEndian.Uint16(data))
			addrs = append(addrs, (a*0x9e3779b97f4a7c15>>20)&mask)
			data = data[2:]
		}
		// Repeat the stream so recency stacks are revisited warm.
		addrs = append(addrs, addrs...)
		checkSweep(t, addrs, cfgs)
	})
}
