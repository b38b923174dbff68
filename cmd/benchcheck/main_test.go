package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
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

// parseBenchLines extracts name -> ns/op from `go test -bench` output,
// the way main reads it.
func parseBenchLines(r io.Reader) (map[string]float64, error) {
	metrics, err := parseMetrics(r)
	if err != nil {
		return nil, err
	}
	return nsPerOp(metrics), nil
}

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

// benchFidelity is bench-smoke output carrying every fidelity metric
// BENCH_timing.json records, at the values it records.
const benchFidelity = `BenchmarkTable3DesignChanges-2 	       1	 800000000 ns/op	         2.890 relerr-ipc-%	         2.307 relerr-pow-%
BenchmarkFig4CacheTracking-2 	       1	 200000000 ns/op	         0.9259 pearson-R
BenchmarkFig6BaseIPC-2 	       1	 150000000 ns/op	         4.960 ipc-err-%
`

func loadFidelity(t *testing.T) fidelityBaseline {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_timing.json")
	if err != nil {
		t.Fatal(err)
	}
	var fid fidelityBaseline
	if err := json.Unmarshal(raw, &fid); err != nil {
		t.Fatal(err)
	}
	return fid
}

func fidelityReport(t *testing.T, bench string) ([]string, string) {
	t.Helper()
	metrics, err := parseMetrics(strings.NewReader(bench))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	drifted := checkFidelity(&out, loadFidelity(t), metrics)
	return drifted, out.String()
}

// TestFidelityMatch: the committed baseline's fidelity figures, printed
// at bench precision (2.890 for a recorded 2.89), pass.
func TestFidelityMatch(t *testing.T) {
	drifted, report := fidelityReport(t, benchFidelity)
	if len(drifted) != 0 {
		t.Fatalf("drifted = %v, want none:\n%s", drifted, report)
	}
	if n := strings.Count(report, "benchcheck: FIDELITY-OK "); n != 4 {
		t.Fatalf("%d metrics checked, want 4:\n%s", n, report)
	}
}

// TestFidelityDrift: a metric that differs at the baseline's printed
// precision fails with a greppable FIDELITY-DRIFT line; the others still
// pass.
func TestFidelityDrift(t *testing.T) {
	bench := strings.Replace(benchFidelity, "0.9259 pearson-R", "0.9260 pearson-R", 1)
	drifted, report := fidelityReport(t, bench)
	if len(drifted) != 1 || drifted[0] != "BenchmarkFig4CacheTracking pearson_R" {
		t.Fatalf("drifted = %v, want exactly Fig4's pearson_R:\n%s", drifted, report)
	}
	if !strings.Contains(report, "benchcheck: FIDELITY-DRIFT BenchmarkFig4CacheTracking pearson_R: 0.926 vs baseline 0.9259") {
		t.Fatalf("report lacks the drift line:\n%s", report)
	}
}

// TestFidelityMissingMetric: a benchmark that ran without reporting a
// recorded fidelity metric fails; a benchmark that did not run is not
// checked.
func TestFidelityMissingMetric(t *testing.T) {
	bench := strings.Replace(benchFidelity, "	         2.307 relerr-pow-%", "", 1)
	bench = strings.Replace(bench, "BenchmarkFig6BaseIPC-2 	       1	 150000000 ns/op	         4.960 ipc-err-%\n", "", 1)
	drifted, report := fidelityReport(t, bench)
	if len(drifted) != 1 || drifted[0] != "BenchmarkTable3DesignChanges relerr_pow_pct" {
		t.Fatalf("drifted = %v, want exactly Table3's relerr_pow_pct:\n%s", drifted, report)
	}
	if !strings.Contains(report, "benchcheck: FIDELITY-DRIFT BenchmarkTable3DesignChanges relerr_pow_pct: not reported") {
		t.Fatalf("report lacks the missing-metric line:\n%s", report)
	}
	if strings.Contains(report, "BenchmarkFig6BaseIPC") {
		t.Fatalf("a benchmark that did not run was checked:\n%s", report)
	}
}
