package cache

import (
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{Size: 256, Assoc: 1, LineSize: 32},
		{Size: 16 << 10, Assoc: 2, LineSize: 32},
		{Size: 1 << 10, Assoc: 0, LineSize: 64}, // fully associative
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", c, err)
		}
	}
	bad := []Config{
		{Size: 0, Assoc: 1, LineSize: 32},
		{Size: 100, Assoc: 1, LineSize: 32},  // size not multiple of line
		{Size: 256, Assoc: 1, LineSize: 33},  // line not pow2
		{Size: 256, Assoc: 3, LineSize: 32},  // lines % assoc != 0... 8%3
		{Size: 768, Assoc: 2, LineSize: 32},  // 12 sets, not pow2
		{Size: 256, Assoc: -1, LineSize: 32}, // negative
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%v: expected validation error", c)
		}
	}
}

func TestConfigString(t *testing.T) {
	cases := map[string]Config{
		"4KB/2-way/32B":  {Size: 4 << 10, Assoc: 2, LineSize: 32},
		"256B/1-way/32B": {Size: 256, Assoc: 1, LineSize: 32},
		"1KB/full/64B":   {Size: 1 << 10, Assoc: 0, LineSize: 64},
		"2MB/4-way/64B":  {Size: 2 << 20, Assoc: 4, LineSize: 64},
	}
	for want, cfg := range cases {
		if got := cfg.String(); got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 256B direct-mapped, 32B lines → 8 sets. Two addresses 256 apart
	// map to the same set and evict each other.
	c := MustNew(Config{Size: 256, Assoc: 1, LineSize: 32})
	for i := 0; i < 10; i++ {
		c.Access(0, false)
		c.Access(256, false)
	}
	st := c.Stats()
	if st.Misses != st.Accesses {
		t.Fatalf("conflict pair should always miss: %d/%d", st.Misses, st.Accesses)
	}
}

func TestTwoWayAvoidsPairConflict(t *testing.T) {
	c := MustNew(Config{Size: 256, Assoc: 2, LineSize: 32})
	for i := 0; i < 10; i++ {
		c.Access(0, false)
		c.Access(256, false)
	}
	st := c.Stats()
	if st.Misses != 2 {
		t.Fatalf("2-way should hold both lines: %d misses", st.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way set: touch A, B (set full), touch A again, insert C: B (the
	// least recently used) must be evicted, so A still hits.
	c := MustNew(Config{Size: 64, Assoc: 2, LineSize: 32}) // 1 set, 2 ways
	a, b2, c3 := uint64(0), uint64(64), uint64(128)
	c.Access(a, false)  // miss
	c.Access(b2, false) // miss
	c.Access(a, false)  // hit, A most recent
	c.Access(c3, false) // miss, evicts B
	if !c.Access(a, false) {
		t.Fatal("A should still be resident (LRU evicted B)")
	}
	if c.Access(b2, false) {
		t.Fatal("B should have been evicted")
	}
}

func TestSpatialLocality(t *testing.T) {
	c := MustNew(Config{Size: 1 << 10, Assoc: 2, LineSize: 32})
	for addr := uint64(0); addr < 320; addr++ {
		c.Access(addr, false)
	}
	st := c.Stats()
	if st.Misses != 10 { // 320 bytes / 32B lines
		t.Fatalf("byte walk misses %d, want 10", st.Misses)
	}
}

func TestWritebacks(t *testing.T) {
	// Fill a direct-mapped cache with dirty lines, then evict them all.
	c := MustNew(Config{Size: 256, Assoc: 1, LineSize: 32})
	for i := uint64(0); i < 8; i++ {
		c.Access(i*32, true) // dirty
	}
	for i := uint64(0); i < 8; i++ {
		c.Access(256+i*32, false) // evict all dirty lines
	}
	st := c.Stats()
	if st.Writebacks != 8 {
		t.Fatalf("writebacks %d, want 8", st.Writebacks)
	}
}

func TestResetAndResetStats(t *testing.T) {
	c := MustNew(Config{Size: 256, Assoc: 1, LineSize: 32})
	c.Access(0, false)
	c.Access(0, false)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Fatal("stats not cleared")
	}
	if !c.Access(0, false) {
		t.Fatal("contents should survive ResetStats")
	}
	c.Reset()
	if c.Access(0, false) {
		t.Fatal("contents should be cleared by Reset")
	}
}

func TestSweep28(t *testing.T) {
	cfgs := Sweep28()
	if len(cfgs) != 28 {
		t.Fatalf("want 28 configurations, got %d", len(cfgs))
	}
	sizes := map[int]bool{}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("%v invalid: %v", c, err)
		}
		if c.LineSize != 32 {
			t.Errorf("%v: line size must be 32", c)
		}
		sizes[c.Size] = true
	}
	if len(sizes) != 7 { // 256B..16KB
		t.Errorf("want 7 sizes, got %d", len(sizes))
	}
	if cfgs[0].Size != 256 || cfgs[0].Assoc != 1 {
		t.Error("first config must be the 256B direct-mapped reference")
	}
}

// TestMissRateMonotonicity: for a fixed random trace, a larger
// fully-associative cache never misses more (inclusion property of LRU).
func TestMissRateMonotonicity(t *testing.T) {
	fn := func(seed uint64) bool {
		var caches []*Cache
		for size := 256; size <= 8<<10; size *= 2 {
			caches = append(caches, MustNew(Config{Size: size, Assoc: 0, LineSize: 32}))
		}
		s := seed | 1
		for i := 0; i < 5000; i++ {
			s ^= s >> 12
			s ^= s << 25
			s ^= s >> 27
			addr := (s * 0x2545f4914f6cdd1d) % (16 << 10)
			for _, c := range caches {
				c.Access(addr, false)
			}
		}
		for i := 1; i < len(caches); i++ {
			if caches[i].Stats().Misses > caches[i-1].Stats().Misses {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestFIFOReplacement(t *testing.T) {
	// 1 set, 2 ways. Insert A, B; touch A (FIFO ignores recency); insert
	// C: A (the oldest insertion) is evicted even though it was just
	// used.
	c := MustNew(Config{Size: 64, Assoc: 2, LineSize: 32, Replacement: PolicyFIFO})
	a, b2, c3 := uint64(0), uint64(64), uint64(128)
	c.Access(a, false)
	c.Access(b2, false)
	c.Access(a, false)  // hit, but FIFO does not refresh
	c.Access(c3, false) // evicts A (oldest insertion)
	if !c.Access(b2, false) {
		t.Fatal("B should still be resident under FIFO")
	}
	if c.Access(a, false) {
		t.Fatal("FIFO should have evicted A despite the recent hit")
	}
}

func TestRandomReplacementDeterministicAndBounded(t *testing.T) {
	run := func() Stats {
		c := MustNew(Config{Size: 256, Assoc: 2, LineSize: 32, Replacement: PolicyRandom})
		s := uint64(7)
		for i := 0; i < 10000; i++ {
			s ^= s >> 12
			s ^= s << 25
			s ^= s >> 27
			c.Access((s*0x2545f4914f6cdd1d)%(4<<10), false)
		}
		return c.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("random policy must still be deterministic per run")
	}
	// Random replacement on a uniform stream performs in the same
	// ballpark as LRU (within a few points).
	lru := MustNew(Config{Size: 256, Assoc: 2, LineSize: 32})
	s := uint64(7)
	for i := 0; i < 10000; i++ {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		lru.Access((s*0x2545f4914f6cdd1d)%(4<<10), false)
	}
	if d := a.MissRate() - lru.Stats().MissRate(); d < -0.1 || d > 0.1 {
		t.Fatalf("random vs LRU miss rates too far apart: %f vs %f", a.MissRate(), lru.Stats().MissRate())
	}
}

func TestBadPolicyRejected(t *testing.T) {
	cfg := Config{Size: 256, Assoc: 2, LineSize: 32, Replacement: "plru"}
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestPrefetchDoesNotCountAsDemand(t *testing.T) {
	c := MustNew(Config{Size: 256, Assoc: 2, LineSize: 32})
	c.Prefetch(0)
	if st := c.Stats(); st.Accesses != 0 || st.Misses != 0 {
		t.Fatalf("prefetch polluted demand stats: %+v", st)
	}
	if !c.Access(0, false) {
		t.Fatal("prefetched line not resident")
	}
	if !c.Prefetch(0) {
		t.Fatal("Prefetch should report residency")
	}
}

func TestMissRateHelper(t *testing.T) {
	s := Stats{Accesses: 200, Misses: 50}
	if s.MissRate() != 0.25 {
		t.Fatalf("miss rate %f", s.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("zero-access miss rate must be 0")
	}
}
