package trace

import (
	"context"
	"testing"

	"perfclone/internal/cache"
	"perfclone/internal/profile"
	"perfclone/internal/workloads"
)

func profileOf(t *testing.T, name string) *profile.Profile {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.CollectContext(context.Background(), w.Build(), profile.Options{MaxInsts: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGeneratorAddressesStayInFootprint(t *testing.T) {
	prof := profileOf(t, "crc32")
	g, err := New(prof)
	if err != nil {
		t.Fatal(err)
	}
	// Every generated address must fall inside some profiled interval
	// (walkers re-walk their own footprints).
	type iv struct{ lo, hi uint64 }
	var ivs []iv
	for _, m := range prof.MemList {
		ivs = append(ivs, iv{m.MinAddr, m.MaxAddr + 16})
	}
	for i := 0; i < 50_000; i++ {
		r := g.Next()
		ok := false
		for _, v := range ivs {
			if r.Addr >= v.lo && r.Addr <= v.hi {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("address %d outside every profiled interval", r.Addr)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	prof := profileOf(t, "fft")
	g1, err := New(prof)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(prof)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if g1.Next() != g2.Next() {
			t.Fatalf("divergence at reference %d", i)
		}
	}
}

func TestGeneratorMixesReadsAndWrites(t *testing.T) {
	prof := profileOf(t, "qsort")
	g, err := New(prof)
	if err != nil {
		t.Fatal(err)
	}
	reads, writes := 0, 0
	for i := 0; i < 20_000; i++ {
		if g.Next().Write {
			writes++
		} else {
			reads++
		}
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("degenerate stream: %d reads, %d writes", reads, writes)
	}
}

func TestReplayTracksCacheSize(t *testing.T) {
	// The synthetic trace of a streaming workload must miss more in a
	// small cache than in a big one.
	prof := profileOf(t, "basicmath")
	small, err := Replay(prof, cache.Config{Size: 512, Assoc: 2, LineSize: 32}, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Replay(prof, cache.Config{Size: 64 << 10, Assoc: 2, LineSize: 32}, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if small.MissRate() <= big.MissRate() {
		t.Fatalf("small cache %f not missing more than big %f", small.MissRate(), big.MissRate())
	}
}

func TestNewRejectsEmptyProfile(t *testing.T) {
	if _, err := New(&profile.Profile{Name: "empty"}); err == nil {
		t.Fatal("profile without memory ops accepted")
	}
}
