package main

import (
	"math"
	"testing"
	"time"

	"perfclone/internal/jobqueue"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // median has 9 beyond it
		{20, 50, true},
		{99, 50, true}, // p90 has 99-90 = 9 beyond it
		{100, 90, true},
		{115, 90, true},
		{999, 90, true}, // p99 has 999-990 = 9 beyond it
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		// Two concurrent children covering [10, 60) together, plus one
		// that sticks out past its parent's end.
		{ID: 2, Parent: 1, Name: "poll", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "poll", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "artifact", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "inner", Start: 35, End: 45},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"job":      100 - 50 - 10, // children cover [10,60) and [90,100)
		"poll":     30 + 30 - 10,  // span 3 loses [35,45) to its child
		"artifact": 30,
		"inner":    10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestUnattributed(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "kernel", Start: 0, End: 50},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Name: "kernel", Start: 60, End: 100},
		{ID: 4, Parent: 3, Name: "b", Start: 60, End: 90},
		{ID: 5, Parent: 4, Name: "c", Start: 70, End: 80},
	}
	// Layer self times: a 20, b 30-10, c 10; 50 of 100. The kernels'
	// own time and the gap [50,60) between them are unattributed.
	if got := unattributed(spans, 0, 100, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("unattributed on one lane = %v, want 0.5", got)
	}
	// Two lanes over the same wall have 200 to account for.
	if got := unattributed(spans, 0, 100, 2); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("unattributed on two lanes = %v, want 0.75", got)
	}
}

func TestFailedShareBase(t *testing.T) {
	var tl tally
	if tl.failedShare() != 0 {
		t.Fatal("an empty tally must report no failures")
	}
	// A job refused once with 429 and then accepted and done, a second
	// job accepted but failed, and a third done: four attempts, two failed.
	tl.fail()
	tl.ok()
	tl.fail()
	tl.ok()
	if tl.attempted != 4 || tl.failed != 2 || tl.failedShare() != 0.5 {
		t.Errorf("tally = %+v share %v, want 4 attempted, 2 failed, 0.5", tl, tl.failedShare())
	}
}

func TestJobListFirstTouchIsProfile(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		jobs := jobList(seed)
		if len(jobs) < 100 {
			t.Fatalf("seed %d: %d jobs, want at least 100", seed, len(jobs))
		}
		seen := map[string]bool{}
		for _, js := range jobs {
			w := js.Spec.Workload
			if w == "" || seen[w] {
				continue
			}
			seen[w] = true
			if js.Spec.Kind != jobqueue.KindProfile {
				t.Errorf("seed %d: first job of %s is a %s job", seed, w, js.Spec.Kind)
			}
		}
	}
}
