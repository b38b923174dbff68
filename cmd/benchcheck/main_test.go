package main

import (
	"bytes"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: perfclone
BenchmarkTable3DesignChanges 	       1	1000000000 ns/op	         2.890 relerr-ipc-%	         2.307 relerr-pow-%
BenchmarkFig4CacheTracking-8 	       1	 200000000 ns/op	         0.9259 pearson-R
BenchmarkUnknownThing 	       1	 123456 ns/op
PASS
ok  	perfclone	3.456s
`

func sampleBaseline() baselineFile {
	var b baselineFile
	b.Benchmarks = map[string]struct {
		AfterNsPerOp float64 `json:"after_ns_per_op"`
	}{
		"BenchmarkTable3DesignChanges": {AfterNsPerOp: 1000000000},
		"BenchmarkFig4CacheTracking":   {AfterNsPerOp: 100000000},
	}
	return b
}

// TestParseBenchLines pins the output-format contract: ns/op extracted
// per benchmark, GOMAXPROCS suffixes stripped, custom metrics and
// non-benchmark lines ignored.
func TestParseBenchLines(t *testing.T) {
	got, err := parseBenchLines(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkTable3DesignChanges": 1e9,
		"BenchmarkFig4CacheTracking":   2e8,
		"BenchmarkUnknownThing":        123456,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s: ns/op = %v, want %v", name, got[name], ns)
		}
	}
}

// TestCheckThreshold: equal-to-baseline passes, a 2x slowdown fails at
// +10%, unknown benchmarks are skipped not failed, and the regression
// disappears with a loose enough threshold.
func TestCheckThreshold(t *testing.T) {
	got, err := parseBenchLines(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	regressed := check(&out, sampleBaseline(), got, 0.10)
	if len(regressed) != 1 || regressed[0] != "BenchmarkFig4CacheTracking" {
		t.Fatalf("regressed = %v, want exactly BenchmarkFig4CacheTracking", regressed)
	}
	report := out.String()
	for _, want := range []string{
		"benchcheck: OK BenchmarkTable3DesignChanges",
		"benchcheck: REGRESSED BenchmarkFig4CacheTracking",
		"benchcheck: SKIP BenchmarkUnknownThing",
		"benchcheck: 1 ok, 1 skip, 1 regressed",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	if regressed := check(&bytes.Buffer{}, sampleBaseline(), got, 1.5); len(regressed) != 0 {
		t.Errorf("threshold +150%% still reports regressions: %v", regressed)
	}
}

// TestRepeatedSamplesUseMedian: under -count a benchmark appears once
// per run; its verdict must rest on the median, so an outlier last
// sample neither fails a steady benchmark nor hides a real regression.
func TestRepeatedSamplesUseMedian(t *testing.T) {
	const repeated = `BenchmarkFig4CacheTracking-2 	       1	 100000000 ns/op
BenchmarkFig4CacheTracking-2 	       1	 104000000 ns/op
BenchmarkFig4CacheTracking-2 	       1	 900000000 ns/op
BenchmarkTable3DesignChanges 	       1	2000000000 ns/op
BenchmarkTable3DesignChanges 	       1	2100000000 ns/op
BenchmarkTable3DesignChanges 	       1	 900000000 ns/op
`
	got, err := parseBenchLines(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkFig4CacheTracking"] != 104e6 {
		t.Errorf("Fig4 ns/op = %v, want the median 1.04e8", got["BenchmarkFig4CacheTracking"])
	}
	if got["BenchmarkTable3DesignChanges"] != 2e9 {
		t.Errorf("Table3 ns/op = %v, want the median 2e9", got["BenchmarkTable3DesignChanges"])
	}
	regressed := check(&bytes.Buffer{}, sampleBaseline(), got, 0.10)
	if len(regressed) != 1 || regressed[0] != "BenchmarkTable3DesignChanges" {
		t.Errorf("regressed = %v, want exactly BenchmarkTable3DesignChanges", regressed)
	}

	even, err := parseBenchLines(strings.NewReader("BenchmarkX 1 10 ns/op\nBenchmarkX 1 30 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if even["BenchmarkX"] != 20 {
		t.Errorf("even-count median = %v, want 20", even["BenchmarkX"])
	}
}
